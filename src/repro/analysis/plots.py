"""ASCII rendering of histograms, series and tables.

The benchmark harness has no plotting dependency; results are printed as
text so the figures of the paper can be eyeballed straight from the bench
logs (`pytest benchmarks/ --benchmark-only -s`); ``benchmarks/README.md``
describes each benchmark and its committed record.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

__all__ = ["ascii_histogram", "ascii_series", "format_table"]


def ascii_histogram(histogram: Mapping[int, int], *, width: int = 50,
                    label: str = "value") -> str:
    """Render a ``value → count`` histogram as horizontal ASCII bars."""
    if not histogram:
        return "(empty histogram)"
    items = sorted((int(k), int(v)) for k, v in histogram.items())
    peak = max(v for _, v in items) or 1
    lines = [f"{label:>8} | count"]
    for value, count in items:
        bar = "#" * max(1, int(round(width * count / peak))) if count else ""
        lines.append(f"{value:>8} | {count:>8} {bar}")
    return "\n".join(lines)


def ascii_series(xs: Sequence[float], ys: Sequence[float], *,
                 height: int = 12, width: int = 60,
                 x_label: str = "x", y_label: str = "y") -> str:
    """Render a scatter/line series as a crude ASCII plot."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        return "(empty series)"
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int(round((x - x_min) / x_span * (width - 1)))
        row = int(round((y - y_min) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = [f"{y_label} ({y_min:.3g} .. {y_max:.3g})"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"  {x_label} ({x_min:.3g} .. {x_max:.3g})")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Iterable[Sequence], *,
                 float_format: str = "{:.2f}") -> str:
    """Format a small results table with aligned columns."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in rendered_rows)
    return "\n".join(lines)
