"""Plain-text table rendering for experiment reports.

The paper runner prints the same rows the paper's tables report; this
module renders them as aligned ASCII/markdown tables without pulling in a
formatting dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError


def format_cell(value: object, precision: int = 2) -> str:
    """Render one cell: floats at fixed precision, everything else via str."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    precision: int = 2,
) -> str:
    """Render an aligned, pipe-separated table.

    >>> print(render_table(["k", "F1"], [[1, 0.5]]))
    | k | F1   |
    |---|------|
    | 1 | 0.50 |
    """
    str_rows = [[format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        padded = (cell.ljust(widths[i]) for i, cell in enumerate(cells))
        return "| " + " | ".join(padded) + " |"

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[object]],
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render figure-style data: one x column plus one column per series."""
    headers = [x_label, *series.keys()]
    columns = [x_values, *series.values()]
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ConfigurationError("all series must have the same length as x_values")
    rows = list(zip(*columns))
    return render_table(headers, rows, title=title, precision=precision)
