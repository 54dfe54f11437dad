"""Experiment definitions: every figure and table of the paper's evaluation.

* :mod:`repro.experiments.config` — workload registry and scaling profiles;
* :mod:`repro.experiments.comparative` — the comparative study at the paper's
  default thresholds (Figures 5–8);
* :mod:`repro.experiments.thresholds` — the threshold study (Figures 9–19);
* :mod:`repro.experiments.trend_tables` — retention-of-trends tables
  (Tables 1–18);
* :mod:`repro.experiments.formatting` — turning results into the text tables
  printed by the benchmark harness.

The names below import their module when first read, and
:mod:`~repro.experiments.config` names workloads and scales without
loading the simulator: a command that only parses a workload name pays
for no study.
"""

from repro._lazy import lazy_getattr

__all__ = [
    "ExperimentScale",
    "get_scale",
    "build_workload",
    "prepared_workload",
    "clear_workload_cache",
    "BENCHMARK_NAMES",
    "SWEEP3D_NAMES",
    "ALL_WORKLOAD_NAMES",
    "comparative_study",
    "fig5_size_and_matching",
    "fig6_approximation_distance",
    "fig7_dyn_load_balance_trends",
    "fig8_interference_trends",
    "trend_chart_for_methods",
    "threshold_study",
    "threshold_study_rows",
    "trend_table",
    "TREND_TABLE_INDEX",
]

__getattr__ = lazy_getattr(
    __name__,
    {
        ".config": (
            "ExperimentScale", "get_scale", "build_workload", "prepared_workload",
            "clear_workload_cache", "BENCHMARK_NAMES", "SWEEP3D_NAMES", "ALL_WORKLOAD_NAMES",
        ),
        ".comparative": (
            "comparative_study", "fig5_size_and_matching", "fig6_approximation_distance",
            "fig7_dyn_load_balance_trends", "fig8_interference_trends", "trend_chart_for_methods",
        ),
        ".thresholds": ("threshold_study", "threshold_study_rows"),
        ".trend_tables": ("trend_table", "TREND_TABLE_INDEX"),
    },
)
