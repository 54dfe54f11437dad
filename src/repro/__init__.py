"""repro — similarity-based trace reduction for scalable performance analysis.

A from-scratch reproduction of Mohror & Karavanic, *"Evaluating
Similarity-based Trace Reduction Techniques for Scalable Performance
Analysis"* (2009): event tracing of message-passing programs, segment-based
intra-process trace reduction under nine similarity metrics, reconstruction of
approximate full traces, and the paper's four evaluation criteria, together
with the benchmark programs (APART-style and Sweep3D) the paper evaluates on.

Quick start
-----------
>>> from repro import benchmarks_ats, create_metric, evaluate_method
>>> from repro.evaluation.runner import PreparedWorkload
>>> workload = benchmarks_ats.late_sender(nprocs=4, iterations=10)
>>> prepared = PreparedWorkload.from_workload(workload)
>>> [evaluate_method(prepared, create_metric(m)).method for m in ("avgWave", "iter_avg")]
['avgWave', 'iter_avg']

The public API is organised in subpackages:

* :mod:`repro.trace`          — events, segments, traces, serialization
* :mod:`repro.simulator`      — the MPI execution simulator (program model,
  machine model, noise, engine)
* :mod:`repro.benchmarks_ats` — benchmark programs with known behaviour
* :mod:`repro.sweep3d`        — the Sweep3D wavefront application model
* :mod:`repro.core`           — the trace reducer and the nine similarity
  metrics (the paper's contribution)
* :mod:`repro.analysis`       — EXPERT-style wait-state analysis and the
  trend-retention comparison
* :mod:`repro.evaluation`     — the four evaluation criteria and study runner
* :mod:`repro.experiments`    — every figure/table of the paper as a callable
"""

from repro import analysis, benchmarks_ats, core, evaluation, experiments, simulator, sweep3d, trace
from repro.core import DEFAULT_THRESHOLDS, METRIC_NAMES, create_metric, reduce_trace, reconstruct
from repro.core.reducer import TraceReducer
from repro.evaluation import evaluate_method

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "trace",
    "simulator",
    "benchmarks_ats",
    "sweep3d",
    "core",
    "analysis",
    "evaluation",
    "experiments",
    "METRIC_NAMES",
    "DEFAULT_THRESHOLDS",
    "create_metric",
    "TraceReducer",
    "reduce_trace",
    "reconstruct",
    "evaluate_method",
]
