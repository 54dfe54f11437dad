"""Evaluation criteria and study runner (Section 4.3 of the paper).

Four criteria are applied to every (workload, method, threshold) combination:

1. percentage of full trace file size (:mod:`repro.evaluation.filesize`);
2. degree of matching (:mod:`repro.evaluation.matching`);
3. approximation distance — the 90th-percentile absolute timestamp error of
   the reconstructed trace (:mod:`repro.evaluation.approximation`);
4. retention of correct performance trends (:mod:`repro.evaluation.trends`).

:mod:`repro.evaluation.runner` wires the full pipeline together:
simulate → segment → reduce → reconstruct → analyze → compare.

The names below import their module when first read: the file-size
criterion does not load the analysis the trend criterion needs.
"""

from repro._lazy import lazy_getattr

__all__ = [
    "percent_file_size",
    "degree_of_matching",
    "approximation_distance",
    "timestamp_errors",
    "retains_trends",
    "EvaluationResult",
    "evaluate_grid",
    "evaluate_method",
]

__getattr__ = lazy_getattr(
    __name__,
    {
        ".filesize": ("percent_file_size",),
        ".matching": ("degree_of_matching",),
        ".approximation": ("approximation_distance", "timestamp_errors"),
        ".trends": ("retains_trends",),
        ".runner": ("EvaluationResult", "evaluate_grid", "evaluate_method"),
    },
)
