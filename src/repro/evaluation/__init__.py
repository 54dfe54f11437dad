"""Evaluation criteria and study runner (Section 4.3 of the paper).

Four criteria are applied to every (workload, method, threshold) combination:

1. percentage of full trace file size (:mod:`repro.evaluation.filesize`);
2. degree of matching (:mod:`repro.evaluation.matching`);
3. approximation distance — the 90th-percentile absolute timestamp error of
   the reconstructed trace (:mod:`repro.evaluation.approximation`);
4. retention of correct performance trends (:mod:`repro.evaluation.trends`).

:mod:`repro.evaluation.runner` wires the full pipeline together:
simulate → segment → reduce → reconstruct → analyze → compare.
"""

from repro.evaluation.approximation import approximation_distance, timestamp_errors
from repro.evaluation.filesize import percent_file_size
from repro.evaluation.matching import degree_of_matching
from repro.evaluation.trends import retains_trends
from repro.evaluation.runner import (
    EvaluationResult,
    evaluate_grid,
    evaluate_method,
)

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
