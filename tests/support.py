"""Shared test helpers that are not fixtures."""

from __future__ import annotations

from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer


def reference_reduce(metric, trace, match_counters=None) -> ReducedTrace:
    """The scalar reference's reduction of ``trace`` — the independent oracle.

    ``TraceReducer.reduce`` steps the columnar core, so a test whose subject
    is the core (or anything built on it: pipeline, sweep, session, evaluation)
    must not take its expected value from there.  This runs the paper's
    segment-at-a-time ``metric.match`` scan over the trace's segment lists
    (a ``FrameTrace`` materializes them), sharing no loop or kernel with the
    subject.
    """
    return TraceReducer(metric).reduce_streams(
        trace.name,
        ((rank.rank, rank.segments) for rank in trace.ranks),
        match_counters=match_counters,
    )


#: The fields of an ``EvaluationResult`` two evaluation routes must agree on.
RESULT_FIELDS = (
    "method",
    "threshold",
    "pct_file_size",
    "degree_of_matching",
    "approx_distance_us",
    "trends_retained",
    "reduced_bytes",
    "n_segments",
    "n_stored",
)
