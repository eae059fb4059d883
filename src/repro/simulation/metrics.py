"""Metric collection for simulations.

A small registry of named counters and histograms, shared by the protocol
simulator and churn experiments.  Values are plain Python numbers so the
registry can be serialised (e.g. into benchmark JSON) without ceremony.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np

__all__ = ["MetricsRegistry"]


@dataclass
class _Histogram:
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        array = np.asarray(self.values)
        return {
            "count": int(array.size),
            "mean": float(array.mean()),
            "p50": float(np.median(array)),
            "p95": float(np.percentile(array, 95)),
            "max": float(array.max()),
        }


class MetricsRegistry:
    """Named counters and histograms.

    Examples
    --------
    >>> metrics = MetricsRegistry()
    >>> metrics.increment("joins")
    >>> metrics.observe("join_messages", 12)
    >>> metrics.counter("joins")
    1
    """

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """Copy of every counter."""
        return dict(self._counters)

    # ------------------------------------------------------------------
    # histograms
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self._histograms.setdefault(name, _Histogram()).add(value)

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        """Record a batch of observations into the named histogram."""
        histogram = self._histograms.setdefault(name, _Histogram())
        for value in values:
            histogram.add(value)

    def histogram_values(self, name: str) -> List[float]:
        """Raw observations of a histogram (empty when unknown)."""
        histogram = self._histograms.get(name)
        return list(histogram.values) if histogram else []

    def histogram_summary(self, name: str) -> Dict[str, float]:
        """Count/mean/median/p95/max of the named histogram."""
        histogram = self._histograms.get(name)
        return histogram.summary() if histogram else _Histogram().summary()

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict]:
        """Serialise the whole registry (counters + histogram summaries)."""
        return {
            "counters": self.counters(),
            "histograms": {name: hist.summary()
                           for name, hist in self._histograms.items()},
        }

    def reset(self) -> None:
        """Clear every counter and histogram."""
        self._counters.clear()
        self._histograms.clear()
