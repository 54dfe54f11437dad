"""Trace reduction: the paper's primary contribution.

The pipeline is:

1. segment every rank's trace (done by :mod:`repro.trace`);
2. :class:`~repro.core.reducer.TraceReducer` walks the segments of each rank
   in execution order, keeps a list of *stored* representative segments and a
   list of *segment executions* ``(id, start time)``, and asks a
   :class:`~repro.core.metrics.base.SimilarityMetric` whether a new segment
   matches an already-stored one (Section 3.1 of the paper);
3. :func:`~repro.core.reconstruct.reconstruct` rebuilds an approximate full
   trace from the reduced representation so the evaluation criteria (error,
   retention of performance trends) can be applied.

The names below import their module when first read: reducing a trace file
does not load the reconstruction.
"""

# The trace package before any module of this one: its binary reader builds
# frames (``repro.core.frames``), which read its event types, so a first
# ``import repro.core.frames`` must find it loaded.
import repro.trace  # noqa: F401
from repro._lazy import lazy_getattr

__all__ = [
    "METRIC_NAMES",
    "DEFAULT_THRESHOLDS",
    "THRESHOLD_STUDY",
    "create_metric",
    "CandidateList",
    "MatchCounters",
    "StoredSegment",
    "ReducedRankTrace",
    "ReducedTrace",
    "TraceReducer",
    "reduce_trace",
    "reconstruct",
]

__getattr__ = lazy_getattr(
    __name__,
    {
        ".candidates": ("CandidateList", "MatchCounters"),
        ".metrics": ("DEFAULT_THRESHOLDS", "METRIC_NAMES", "THRESHOLD_STUDY", "create_metric"),
        ".reduced": ("ReducedRankTrace", "ReducedTrace", "StoredSegment"),
        ".reducer": ("TraceReducer", "reduce_trace"),
        ".reconstruct": ("reconstruct",),
    },
)
