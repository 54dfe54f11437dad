"""Shared test helpers that are not fixtures."""

from __future__ import annotations

import dataclasses

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


def stretched(segment, factor):
    """``segment`` with every time after its start scaled by ``factor``: a stranger of its key."""
    start = segment.start

    def stretch(t):
        return start + (t - start) * factor

    events = [
        dataclasses.replace(e, start=stretch(e.start), end=stretch(e.end)) for e in segment.events
    ]
    return dataclasses.replace(segment, end=stretch(segment.end), events=events)


def led_by_a_stranger(segments):
    """``segments`` with a stranger of each key placed before the key's first segment.

    The stranger leads the key's first round and matches none of the rows
    behind it, so every key of more than three rows takes the resolve.
    """
    seen, out = set(), []
    for segment in segments:
        key = segment.relative_to_start().structure()
        if key not in seen:
            seen.add(key)
            out.append(stretched(segment, 1e6))
        out.append(segment)
    return out
