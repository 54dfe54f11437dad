"""Comparative study at the paper's default thresholds (Figures 5–8).

Every method is run with the best threshold found by the threshold study
(Section 5.1): relDiff 0.8, absDiff 1000 µs, Manhattan 0.4, Euclidean 0.2,
Chebyshev 0.2, iter_k 10, avgWave 0.2, haarWave 0.2, plus iter_avg.

All methods of one workload are reduced in a **single shared pass** as one
sweep (one set of frames, feature vectors shared within each family — e.g.
the three Minkowski methods).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.cube import severity_chart
from repro.analysis.expert import analyze
from repro.analysis.patterns import EXECUTION_TIME, LATE_SENDER, WAIT_AT_NXN
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reconstruct import reconstruct
from repro.core.reducer import TraceReducer
from repro.evaluation.runner import EvaluationResult, evaluate_grid
from repro.experiments.config import (
    ALL_WORKLOAD_NAMES,
    ExperimentScale,
    get_scale,
    prepared_workload,
)

__all__ = [
    "comparative_study",
    "fig5_size_and_matching",
    "fig6_approximation_distance",
    "fig7_dyn_load_balance_trends",
    "fig8_interference_trends",
    "trend_chart_for_methods",
]


def comparative_study(
    workloads: Optional[Sequence[str]] = None,
    methods: Optional[Sequence[str]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> list[EvaluationResult]:
    """Evaluate every method at its default threshold on every workload."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    workloads = tuple(workloads) if workloads is not None else ALL_WORKLOAD_NAMES
    methods = tuple(methods) if methods is not None else METRIC_NAMES
    from repro.sweep.plan import SweepConfig, SweepPlan

    # One config per *distinct* method; repeated names in ``methods`` re-use
    # the same row, so the result keeps one entry per requested method.
    keys = [(method, create_metric(method).threshold) for method in methods]
    plan = SweepPlan(SweepConfig(m, t) for m, t in dict.fromkeys(keys))
    results = []
    for name in workloads:
        prepared = prepared_workload(name, scale)
        rows = evaluate_grid(prepared, plan, keep_comparison=True)
        by_key = {config.key: row for config, row in zip(plan.configs, rows)}
        results.extend(by_key[key] for key in keys)
    return results


def fig5_size_and_matching(
    workloads: Optional[Sequence[str]] = None,
    methods: Optional[Sequence[str]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> list[dict]:
    """Figure 5: percentage file sizes and degree of matching per workload/method."""
    rows = []
    for result in comparative_study(workloads, methods, scale=scale):
        rows.append(
            {
                "workload": result.workload,
                "method": result.method,
                "pct_file_size": result.pct_file_size,
                "degree_of_matching": result.degree_of_matching,
            }
        )
    return rows


def fig6_approximation_distance(
    workloads: Optional[Sequence[str]] = None,
    methods: Optional[Sequence[str]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> list[dict]:
    """Figure 6: approximation distance per workload/method at default thresholds."""
    rows = []
    for result in comparative_study(workloads, methods, scale=scale):
        rows.append(
            {
                "workload": result.workload,
                "method": result.method,
                "approx_distance_us": result.approx_distance_us,
                "trends_retained": result.trends_retained,
            }
        )
    return rows


def trend_chart_for_methods(
    workload_name: str,
    entries: Sequence[tuple[str, str]],
    methods: Optional[Iterable[str]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> dict[str, str]:
    """KOJAK-style severity charts for the full trace and every reduced trace.

    Returns a mapping ``{"full trace": chart, "<method>": chart, ...}`` where
    each chart shows the requested (metric, location) entries with one
    severity level per process — the textual equivalent of Figures 7 and 8.
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    methods = tuple(methods) if methods is not None else METRIC_NAMES
    prepared = prepared_workload(workload_name, scale)
    charts: dict[str, str] = {
        "full trace": severity_chart(prepared.full_report, entries, title="full trace")
    }
    for method in methods:
        metric = create_metric(method)
        reduced = TraceReducer(metric).reduce(prepared.segmented)
        reconstructed = reconstruct(reduced)
        report = analyze(reconstructed)
        charts[method] = severity_chart(report, entries, title=metric.describe())
    return charts


def fig7_dyn_load_balance_trends(
    methods: Optional[Iterable[str]] = None,
    *,
    scale: ExperimentScale | str | None = None,
) -> dict[str, str]:
    """Figure 7: performance trends for dyn_load_balance under every method.

    The paper shows the "Wait at N×N" severity in ``MPI_Alltoall`` and the
    execution-time disparity in ``do_work``.
    """
    entries = [
        (WAIT_AT_NXN, "MPI_Alltoall"),
        (EXECUTION_TIME, "do_work"),
    ]
    return trend_chart_for_methods("dyn_load_balance", entries, methods, scale=scale)


def fig8_interference_trends(
    methods: Optional[Iterable[str]] = None,
    *,
    scale: ExperimentScale | str | None = None,
    workload_name: str = "1to1r_1024",
) -> dict[str, str]:
    """Figure 8: performance trends for the 1to1r_1024 interference benchmark.

    The paper shows the point-to-point wait state plus the per-function times
    of the send/receive calls and ``do_work``.
    """
    entries = [
        (LATE_SENDER, "MPI_Recv"),
        (EXECUTION_TIME, "MPI_Recv"),
        (EXECUTION_TIME, "do_work"),
    ]
    return trend_chart_for_methods(workload_name, entries, methods, scale=scale)
