"""Multi-configuration sweep engine: one-pass reduction across config grids.

The paper's evaluation is dominated by *grids* of reductions — every
similarity method swept over ~6 thresholds on every workload (Section 5.1,
Figures 9–19), and all nine methods at their best thresholds on every
workload (Section 5.2).  Running each (method, threshold) combination through
the serial :class:`~repro.core.reducer.TraceReducer` re-streams the segments
and recomputes the same per-segment feature vectors once per configuration.

This package evaluates an entire grid in a **single pass** over the trace:

* :mod:`repro.sweep.plan` — :class:`SweepPlan` expands method/threshold grids
  into :class:`SweepConfig`\\ s and groups them into *feature families*
  (configs whose metrics consume identical feature vectors, e.g. all
  euclidean thresholds);
* :mod:`repro.sweep.engine` — :class:`SweepEngine` feeds one shared segment
  stream to N independent reducer/store states, computing each family's
  feature vector once per segment and running the dense ``match_stats``
  kernel per metric kind against the member configs' own candidate buckets;
* :mod:`repro.sweep.results` — :class:`SweepResult`, a grid of per-config
  reduced traces plus sharing statistics, convertible to
  :class:`~repro.evaluation.runner.EvaluationResult` rows.

Every config's reduced trace is byte-identical to running that config alone
through the serial reducer — the sweep changes the schedule, never the
algorithm.
"""

from repro.sweep.plan import FeatureFamily, SweepConfig, SweepPlan
from repro.sweep.engine import SweepEngine, SweepStats, sweep_source
from repro.sweep.results import ConfigOutcome, SweepResult

__all__ = [
    "SweepConfig",
    "FeatureFamily",
    "SweepPlan",
    "SweepEngine",
    "SweepStats",
    "sweep_source",
    "ConfigOutcome",
    "SweepResult",
]
