"""Multi-configuration sweeps: one-pass reduction across config grids.

The paper's evaluation is dominated by *grids* of reductions — every
similarity method swept over ~6 thresholds on every workload (Section 5.1,
Figures 9–19), and all nine methods at their best thresholds on every
workload (Section 5.2).  Running each (method, threshold) combination through
the serial :class:`~repro.core.reducer.TraceReducer` re-streams the segments
and recomputes the same per-segment feature vectors once per configuration.

A sweep is the reduction pipeline run with one metric per config
(:func:`repro.pipeline.engine.sweep_pipeline`): one pass over each rank's
frame for the entire grid.  This package holds what is sweep-specific:

* :mod:`repro.sweep.plan` — :class:`SweepPlan` expands method/threshold grids
  into :class:`SweepConfig`\\ s and groups them into *feature families*
  (configs whose metrics consume identical feature vectors, e.g. all
  euclidean thresholds), whose vectors the pipeline's task builds once per
  rank and shares between the member configs' reduction states;
* :mod:`repro.sweep.results` — :class:`SweepResult`, a grid of per-config
  reduced traces plus :class:`SweepStats` (sharing statistics), convertible to
  :class:`~repro.evaluation.runner.EvaluationResult` rows.

Every config's reduced trace is byte-identical to running that config alone
through the serial reducer — the sweep changes the schedule, never the
algorithm.
"""

from repro.sweep.plan import FeatureFamily, SweepConfig, SweepPlan
from repro.sweep.results import ConfigOutcome, SweepResult, SweepStats

__all__ = [
    "SweepConfig",
    "FeatureFamily",
    "SweepPlan",
    "SweepStats",
    "ConfigOutcome",
    "SweepResult",
]
