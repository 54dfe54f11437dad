"""Retention-of-trends tables (Tables 1–18 of the paper's appendix).

For one workload, every method is run at every threshold of the threshold
study (plus ``iter_avg``) and the cell records whether the reduced trace still
leads to the same performance diagnosis as the full trace.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.metrics import THRESHOLD_STUDY, create_metric
from repro.evaluation.runner import evaluate_method
from repro.experiments.config import (
    BENCHMARK_NAMES,
    SWEEP3D_NAMES,
    ExperimentScale,
    get_scale,
    prepared_workload,
)

__all__ = ["TREND_TABLE_INDEX", "trend_table"]

#: Paper table number -> workload, in the order the appendix lists them.
TREND_TABLE_INDEX: dict[int, str] = {
    1: "dyn_load_balance",
    2: "early_gather",
    3: "imbalance_at_mpi_barrier",
    4: "late_broadcast",
    5: "late_receiver",
    6: "late_sender",
    7: "Nto1_32",
    8: "NtoN_32",
    9: "1toN_32",
    10: "1to1r_32",
    11: "1to1s_32",
    12: "Nto1_1024",
    13: "NtoN_1024",
    14: "1toN_1024",
    15: "1to1r_1024",
    16: "1to1s_1024",
    17: "sweep3d_8p",
    18: "sweep3d_32p",
}

assert set(TREND_TABLE_INDEX.values()) == set(BENCHMARK_NAMES) | set(SWEEP3D_NAMES)


def trend_table(
    workload_name: str,
    methods: Optional[Sequence[str]] = None,
    *,
    thresholds_per_method: Optional[dict[str, Sequence[float]]] = None,
    scale: ExperimentScale | str | None = None,
) -> dict[str, dict[Optional[float], bool]]:
    """Retention of performance trends for one workload.

    Returns ``{method: {threshold: retained}}``; ``iter_avg`` uses the single
    key ``None``.
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    methods = tuple(methods) if methods is not None else (*THRESHOLD_STUDY, "iter_avg")
    prepared = prepared_workload(workload_name, scale)
    table: dict[str, dict[Optional[float], bool]] = {}
    for method in methods:
        if method == "iter_avg":
            result = evaluate_method(prepared, create_metric("iter_avg"), keep_comparison=False)
            table[method] = {None: result.trends_retained}
            continue
        thresholds: Sequence[float]
        if thresholds_per_method and method in thresholds_per_method:
            thresholds = thresholds_per_method[method]
        else:
            thresholds = THRESHOLD_STUDY[method]
        cells: dict[Optional[float], bool] = {}
        for threshold in thresholds:
            metric = create_metric(method, threshold)
            result = evaluate_method(prepared, metric, keep_comparison=False)
            cells[float(threshold)] = result.trends_retained
        table[method] = cells
    return table
