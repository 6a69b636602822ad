"""Plain-text rendering helpers for tables and figure series.

Benchmark harnesses print the regenerated tables so a run's output can be
compared side by side with the paper; these helpers keep that formatting in
one place.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple fixed-width text table.

    >>> print(format_table(["a", "b"], [[1, 2]]))
    a | b
    --+--
    1 | 2
    """
    columns = len(headers)
    normalized_rows = [[_cell(value) for value in row] for row in rows]
    for row in normalized_rows:
        if len(row) != columns:
            raise ValueError("every row must have one cell per header")
    widths = [len(str(header)) for header in headers]
    for row in normalized_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in normalized_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def render_series(
    series: Mapping[object, object],
    label: str = "value",
    key_label: str = "key",
) -> str:
    """Render a one-dimensional series (for example a figure's data points)."""
    rows = [[key, value] for key, value in series.items()]
    return format_table([key_label, label], rows)
