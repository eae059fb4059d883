"""In-memory span tracing around the public entry points of each layer.

A :class:`Tracer` records one span per call of a wrapped function: the
span's name, its start and end (``perf_counter_ns``) and the index of the
span that was open when it started (its parent).  Spans live in flat
``array`` columns, so a traced run of a few million calls stays a few tens
of megabytes; :meth:`Tracer.save` writes them out when the run ends.

Self time of a span is its duration minus the durations of its direct
children, which is exact because children nest inside their parent on a
single thread.  :meth:`Tracer.layer_table` sums calls, total time and self
time per span name.

Besides spans the tracer keeps plain call counters (``wrap_counted``),
used where a span per call would cost more than the call itself: the
geometric predicates run about a million times while a large overlay
builds.

:func:`install_layer_spans` patches the layer entry points the benchmark
measures, from the benchmark's own files (no file under ``src/`` knows about
the tracer); the returned callable restores every patched attribute.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["Tracer", "install_layer_spans"]


class Tracer:
    """Collects spans and counters while :attr:`active` is true."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.active = True

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_index: int) -> int:
        """Start a span; returns its index for :meth:`close`."""
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_index)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, self.name_index(name))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        name_index = self.name_index(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            index = self.open(name_index)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap_keyed(self, prefix: str, key: Callable, function: Callable) -> Callable:
        """Like :meth:`wrap`, naming each span ``prefix + key(*args)``."""
        name_index = self.name_index
        indices: Dict[str, int] = {}

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            label = key(*args)
            span_name = indices.get(label)
            if span_name is None:
                span_name = indices[label] = name_index(prefix + label)
            index = self.open(span_name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap_counted(self, name: str, function: Callable) -> Callable:
        """``function`` counting its calls under ``name``, without a span."""
        counters = self.counters

        @functools.wraps(function)
        def counted(*args):
            if self.active:
                counters[name] += 1
            return function(*args)

        return counted

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32))

    def self_times_ns(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        if self._stack:
            raise RuntimeError("self times need every span closed")
        _names, start, end, parent = self._columns()
        duration = end - start
        child_time = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return duration - child_time

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, total_s, self_s}}`` over every recorded span."""
        names, start, end, _parent = self._columns()
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=(end - start).astype(np.float64),
                            minlength=len(self.names))
        own = np.bincount(names, weights=self.self_times_ns().astype(np.float64),
                          minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                       "self_s": own[i] / 1e9}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span (name table plus the four columns) as ``.npz``."""
        names, start, end, parent = self._columns()
        np.savez(path, names=np.asarray(self.names, dtype=str), name_id=names,
                 start_ns=start, end_ns=end, parent=parent)


class _SpanContext:
    __slots__ = ("_tracer", "_name_index", "_index")

    def __init__(self, tracer: Tracer, name_index: int) -> None:
        self._tracer = tracer
        self._name_index = name_index
        self._index = -1

    def __enter__(self) -> None:
        if self._tracer.active:
            self._index = self._tracer.open(self._name_index)

    def __exit__(self, *exc) -> None:
        if self._index >= 0:
            self._tracer.close(self._index)
            self._index = -1


# ----------------------------------------------------------------------
# the measured seams
# ----------------------------------------------------------------------
def _message_kind(_node, message) -> str:
    return message.kind


def install_layer_spans(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's entry points; returns a function undoing it.

    Methods are patched on their classes before any object is built, so a
    bound method captured later (``Network.register(node_id, node.handle)``)
    is the traced one.  Functions imported by name into another module are
    patched in that module too.
    """
    from repro.core.overlay import VoroNet
    from repro.geometry import delaunay, predicates
    from repro.geometry.delaunay import DelaunayTriangulation
    from repro.geometry.locate_grid import LocateGrid
    from repro.serving.estimators import StreamingPercentiles
    from repro.serving.observability import LoadTracker
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.faults import (FaultPlane, HeartbeatDetector,
                                         RepairProtocol)
    from repro.simulation.network import Network
    from repro.simulation.protocol import ProtocolNode, ProtocolSimulator
    from repro.workloads import generators
    from repro.workloads.samplers import UniformTargets, ZipfTargets

    spans = [
        (DelaunayTriangulation, "bulk_insert", "geometry.kernel.bulk_insert"),
        (DelaunayTriangulation, "nearest_vertices",
         "geometry.kernel.nearest_vertices"),
        (DelaunayTriangulation, "insert", "geometry.kernel.insert"),
        (DelaunayTriangulation, "remove", "geometry.kernel.remove"),
        (DelaunayTriangulation, "rebuild", "geometry.kernel.rebuild"),
        (LocateGrid, "hint", "geometry.locate_grid.hint"),
        (VoroNet, "bulk_load", "core.overlay.bulk_load"),
        (VoroNet, "route", "core.overlay.route"),
        (VoroNet, "insert", "core.overlay.insert"),
        (VoroNet, "remove", "core.overlay.remove"),
        (SimulationEngine, "run", "simulation.engine.run"),
        (ProtocolSimulator, "send", "simulation.protocol.send"),
        (Network, "send", "simulation.network.send"),
        (ProtocolNode, "greedy_next_hop", "simulation.protocol.greedy_next_hop"),
        (FaultPlane, "decide", "simulation.faults.decide"),
        (ProtocolSimulator, "join", "simulation.protocol.join"),
        (ProtocolSimulator, "leave", "simulation.protocol.leave"),
        (ProtocolSimulator, "bulk_join", "simulation.protocol.bulk_join"),
        (HeartbeatDetector, "run_round", "simulation.faults.heartbeat_round"),
        (RepairProtocol, "repair", "simulation.faults.repair"),
        (StreamingPercentiles, "observe", "serving.estimators.observe"),
        (LoadTracker, "record_path", "serving.observability.load_record"),
        (generators, "generate_objects", "workloads.generate"),
        (UniformTargets, "sample", "workloads.sample"),
        (ZipfTargets, "sample", "workloads.sample"),
    ]
    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    for owner, attribute, name in spans:
        patch(owner, attribute, tracer.wrap(name, owner.__dict__[attribute]))
    patch(ProtocolNode, "handle",
          tracer.wrap_keyed("simulation.handler.", _message_kind,
                            ProtocolNode.__dict__["handle"]))
    for predicate in ("orient2d", "incircle"):
        counted = tracer.wrap_counted(f"geometry.predicates.{predicate}.calls",
                                      getattr(predicates, predicate))
        patch(delaunay, predicate, counted)

    def restore() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        saved.clear()

    return restore
