"""Threshold study (Section 5.1, Figures 9–19).

For each method, the matching threshold is swept over the paper's values and
the file-size and approximation-distance criteria are recorded for every
workload — the data behind the per-method appendix figures.

The study runs as one shared-ingest sweep: per workload, every
threshold is evaluated in a **single pass** over the segments, with the
method's feature vectors computed once per segment for the whole grid.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.metrics import THRESHOLD_STUDY
from repro.evaluation.runner import EvaluationResult, evaluate_grid
from repro.experiments.config import (
    BENCHMARK_NAMES,
    ExperimentScale,
    get_scale,
    prepared_workload,
)
from repro.sweep.plan import SweepPlan

__all__ = ["threshold_study", "threshold_study_rows"]


def threshold_study(
    method: str,
    workloads: Optional[Sequence[str]] = None,
    thresholds: Optional[Sequence[float]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> dict[str, list[EvaluationResult]]:
    """Sweep a method's threshold over every workload.

    Returns ``{workload name: [result per threshold, in threshold order]}``.
    """
    if method == "iter_avg":
        raise ValueError("iter_avg takes no threshold and is not part of the threshold study")
    if method not in THRESHOLD_STUDY:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(THRESHOLD_STUDY)}"
        )
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    workloads = tuple(workloads) if workloads is not None else BENCHMARK_NAMES
    thresholds = tuple(thresholds) if thresholds is not None else THRESHOLD_STUDY[method]
    # The grid evaluates each distinct threshold once; repeated values in the
    # caller's sequence re-use the same row, preserving the documented
    # one-result-per-requested-threshold shape.
    plan = SweepPlan((method, float(t)) for t in dict.fromkeys(float(t) for t in thresholds))

    results: dict[str, list[EvaluationResult]] = {}
    for name in workloads:
        prepared = prepared_workload(name, scale)
        rows = evaluate_grid(prepared, plan, keep_comparison=False)
        by_key = {config.key: row for config, row in zip(plan.configs, rows)}
        results[name] = [by_key[(method, float(t))] for t in thresholds]
    return results


def threshold_study_rows(
    method: str,
    workloads: Optional[Sequence[str]] = None,
    thresholds: Optional[Sequence[float]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> list[dict]:
    """Flat rows (workload, threshold, % file size, approximation distance)."""
    rows = []
    for workload, results in threshold_study(
        method, workloads, thresholds, scale=scale
    ).items():
        for result in results:
            rows.append(
                {
                    "workload": workload,
                    "method": method,
                    "threshold": result.threshold,
                    "pct_file_size": result.pct_file_size,
                    "approx_distance_us": result.approx_distance_us,
                    "degree_of_matching": result.degree_of_matching,
                }
            )
    return rows
