"""Plain-text table rendering used by the experiment harness.

The benchmark harness prints the same rows/series the paper reports; this
module keeps that formatting in one place so benches and examples agree.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "format_matrix"]


def _fmt(value: object, float_fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_fmt: str = ".3g",
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    str_rows = [[_fmt(cell, float_fmt) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_matrix(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Mapping[tuple[str, str], object],
    *,
    corner: str = "",
    float_fmt: str = ".3g",
    title: str | None = None,
) -> str:
    """Render a labelled matrix; missing cells render as '-'."""
    headers = [corner, *col_labels]
    rows = []
    for r in row_labels:
        rows.append([r, *(values.get((r, c), "-") for c in col_labels)])
    return format_table(headers, rows, float_fmt=float_fmt, title=title)
