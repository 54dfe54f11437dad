"""Turning experiment results into the text tables the benches print."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.evaluation.runner import EvaluationResult
from repro.util.tables import format_matrix, format_table

__all__ = [
    "format_comparative_results",
    "format_rows",
    "format_trend_table",
]


def format_rows(rows: Sequence[Mapping[str, object]], *, title: Optional[str] = None) -> str:
    """Render a list of uniform dict rows as a table (keys become headers)."""
    if not rows:
        return title or "(no rows)"
    headers = list(rows[0].keys())
    body = [[row[h] for h in headers] for row in rows]
    return format_table(headers, body, title=title)


def format_comparative_results(
    results: Sequence[EvaluationResult], *, title: Optional[str] = None
) -> str:
    """Render evaluation results with all four criteria."""
    headers = [
        "workload",
        "method",
        "threshold",
        "% file size",
        "matching",
        "approx dist (us)",
        "trends",
    ]
    rows = [r.as_row() for r in results]
    return format_table(headers, rows, title=title)


def format_trend_table(
    table: Mapping[str, Mapping[Optional[float], bool]], *, title: Optional[str] = None
) -> str:
    """Render a retention-of-trends table: methods × thresholds."""
    row_labels = list(table.keys())
    col_set: list[str] = []
    values: dict[tuple[str, str], object] = {}
    for method, cells in table.items():
        for threshold, retained in cells.items():
            col = "-" if threshold is None else f"{threshold:g}"
            if col not in col_set:
                col_set.append(col)
            values[(method, col)] = "yes" if retained else "NO"
    return format_matrix(row_labels, col_set, values, corner="method \\ threshold", title=title)
