"""Figure/table exporters: CSV files and ASCII charts.

The benchmarks print their reproduced series; this module turns the same
data into artifacts — CSV for plotting elsewhere, and ASCII bar/line
charts for terminal-only environments (matplotlib is not a dependency).
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def series_to_csv(
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
) -> str:
    """Render ``{series name: values}`` over a shared x-axis as CSV text."""
    lengths = {len(values) for values in series.values()}
    if lengths and lengths != {len(x_values)}:
        raise ValueError("all series must match the x-axis length")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([x_label, *series.keys()])
    for index, x in enumerate(x_values):
        writer.writerow([x, *(values[index] for values in series.values())])
    return buffer.getvalue()


def table_to_csv(table: Mapping[str, Mapping[str, Number]], row_label: str = "row") -> str:
    """Render a nested ``{row: {column: value}}`` mapping as CSV text."""
    columns: List[str] = []
    for row in table.values():
        for column in row:
            if column not in columns:
                columns.append(column)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([row_label, *columns])
    for name, row in table.items():
        writer.writerow([name, *(row.get(column, "") for column in columns)])
    return buffer.getvalue()


def ascii_bars(
    values: Mapping[str, Number],
    width: int = 50,
    fill: str = "#",
    reference: Optional[Number] = None,
) -> str:
    """Horizontal ASCII bar chart (for normalized-performance figures).

    Args:
        values: Label -> value.
        width: Bar width of the maximum value.
        fill: Bar character.
        reference: Optional value drawn as a ``|`` marker on every bar
            (e.g. 1.0 for normalized performance).
    """
    if not values:
        return ""
    peak = max(max(values.values()), reference or 0)
    if peak <= 0:
        raise ValueError("bar chart needs a positive maximum")
    label_width = max(len(label) for label in values)
    lines = []
    for label, value in values.items():
        bar_length = int(round(width * value / peak))
        bar = fill * bar_length
        if reference is not None:
            marker = int(round(width * reference / peak))
            bar = bar.ljust(max(marker + 1, bar_length))
            if marker < len(bar):
                bar = bar[:marker] + "|" + bar[marker + 1:]
        lines.append(f"{label:<{label_width}s} {bar} {value:.4g}")
    return "\n".join(lines)


def ascii_line(
    x_values: Sequence[Number],
    y_values: Sequence[Number],
    height: int = 12,
    width: int = 60,
    log_y: bool = False,
) -> str:
    """A terminal scatter/line chart (for time-to-break curves).

    ``log_y`` plots ``log10(y)`` — the natural scale for Figures 1a, 6
    and 10, whose y-axes span twelve orders of magnitude.
    """
    if len(x_values) != len(y_values):
        raise ValueError("x and y must have equal length")
    points = [
        (x, y) for x, y in zip(x_values, y_values)
        if math.isfinite(y) and (not log_y or y > 0)
    ]
    if not points:
        return "(no finite points)"
    ys = [math.log10(y) if log_y else y for _, y in points]
    xs = [x for x, _ in points]
    y_low, y_high = min(ys), max(ys)
    x_low, x_high = min(xs), max(xs)
    y_span = (y_high - y_low) or 1.0
    x_span = (x_high - x_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        column = int((x - x_low) / x_span * (width - 1))
        row = int((y - y_low) / y_span * (height - 1))
        grid[height - 1 - row][column] = "*"
    top_label = f"{y_high:.3g}" + (" (log10)" if log_y else "")
    bottom_label = f"{y_low:.3g}"
    lines = [f"y max: {top_label}"]
    lines.extend("".join(row) for row in grid)
    lines.append(f"y min: {bottom_label}   x: {x_low:g} .. {x_high:g}")
    return "\n".join(lines)


def write_csv(path: str, content: str) -> str:
    """Write CSV text to ``path``; returns the path for chaining."""
    with open(path, "w", newline="") as handle:
        handle.write(content)
    return path
