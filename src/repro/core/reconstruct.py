"""Reconstruction of an approximate full trace from a reduced trace.

Every entry of the ``segmentExecs`` list is replayed: the referenced stored
segment's (relative) events are shifted to the recorded start time.  The
result has exactly the same structure as the original trace (same segments,
same events, same MPI parameters) but approximated timestamps — which is what
the approximation-distance and trend-retention criteria quantify.

The replay is columnar.  A rank's stored representatives (tens of segments)
become one :class:`~repro.core.frames.RankFrame` — gathered from the frame
they are still rows of (:meth:`RankFrame.take`, after a dense reduction), else
adapted once from their objects; the execution
list (thousands of entries) becomes a row array into it, and the rebuilt
rank is a gather: name / MPI / context ids by one fancy index, timestamps as
``representative column[gather] + execution start`` — the same IEEE-754 add a
per-event ``start + offset`` performs, so every value is bit-identical to
shifting the representative's objects one execution at a time (the reference
the tests keep, ``tests/criteria_reference.py``).  No ``Segment`` or ``Event``
is built per execution; the returned
:class:`~repro.core.frametrace.FrameTrace` materializes ``.segments`` only
for a caller that asks.

For the ``iter_k`` method the paper (footnote 1) fills executions beyond the
k collected copies with the *last* collected segment; the mean of the k
collected copies is available as an alternative fill-in policy, whose mean
representatives join the frame as extra rows.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.frames import RankFrame, gather_events
from repro.core.frametrace import FrameRankTrace, FrameTrace
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.trace.segments import Segment

__all__ = ["reconstruct", "reconstruct_rank"]

IterKFill = Literal["last", "mean"]


def _mean_segment(group: list[StoredSegment]) -> Segment:
    """Build a synthetic segment holding the mean timestamps of ``group``."""
    template = group[-1].segment
    stacked = np.vstack([member.timestamps() for member in group])
    mean = stacked.mean(axis=0)
    events = []
    for i, event in enumerate(template.events):
        events.append(
            type(event)(
                name=event.name,
                start=float(min(mean[2 * i], mean[2 * i + 1])),
                end=float(mean[2 * i + 1]),
                rank=event.rank,
                mpi=event.mpi,
            )
        )
    return Segment(
        context=template.context,
        rank=template.rank,
        start=0.0,
        end=float(mean[-1]),
        events=events,
        index=template.index,
    )


def reconstruct_rank(
    reduced: ReducedRankTrace, *, iter_k_fill: IterKFill = "last"
) -> FrameRankTrace:
    """Reconstruct one rank's approximate trace as a frame-backed rank."""
    if iter_k_fill not in ("last", "mean"):
        raise ValueError(f"iter_k_fill must be 'last' or 'mean', got {iter_k_fill!r}")
    row_of_id = {stored.segment_id: row for row, stored in enumerate(reduced.stored)}
    try:
        rows = np.fromiter(
            (row_of_id[segment_id] for segment_id, _ in reduced.execs),
            dtype=np.int64,
            count=len(reduced.execs),
        )
    except KeyError as exc:
        raise KeyError(
            f"execution entry references unknown segment id {exc.args[0]} on rank {reduced.rank}"
        ) from None

    origins = [stored.origin for stored in reduced.stored]
    source = origins[0][0] if origins and origins[0] is not None else None
    if (
        iter_k_fill == "last"
        and source is not None
        and all(origin is not None and origin[0] is source for origin in origins)
    ):
        # Every representative is still a row of one frame: gather them.
        stored_frame = source.take(np.array([row for _, row in origins]))
    else:
        representatives = [stored.segment for stored in reduced.stored]
        if iter_k_fill == "mean":
            # One mean representative per structural group, as an extra row; a
            # matched execution of the group's last collected copy replays it.
            groups: dict[tuple, list[StoredSegment]] = {}
            for stored in reduced.stored:
                groups.setdefault(stored.segment.structure(), []).append(stored)
            fill_row = np.arange(len(representatives), dtype=np.int64)
            for group in groups.values():
                fill_row[row_of_id[group[-1].segment_id]] = len(representatives)
                representatives.append(_mean_segment(group))
            matched = np.asarray(reduced.exec_matched, dtype=bool)
            rows = np.where(matched, fill_row[rows], rows)
        stored_frame = RankFrame.from_segments(reduced.rank, representatives)

    starts = np.asarray([start for _, start in reduced.execs], dtype=np.float64)
    ev_offsets, gather = gather_events(stored_frame.ev_offsets, rows)
    ev_shift = np.repeat(starts, np.diff(ev_offsets))
    return FrameRankTrace(
        RankFrame(
            rank=reduced.rank,
            contexts=stored_frame.contexts[rows],
            starts=stored_frame.starts[rows] + starts,
            ends=stored_frame.ends[rows] + starts,
            ev_offsets=ev_offsets,
            ev_names=stored_frame.ev_names[gather],
            ev_starts=stored_frame.ev_starts[gather] + ev_shift,
            ev_ends=stored_frame.ev_ends[gather] + ev_shift,
            ev_mpi=stored_frame.ev_mpi[gather],
            strings=stored_frame.strings,
            mpi_table=stored_frame.mpi_table,
        )
    )


def reconstruct(reduced: ReducedTrace, *, iter_k_fill: IterKFill = "last") -> FrameTrace:
    """Reconstruct the approximate full trace for every rank."""
    return FrameTrace(
        reduced.name,
        (reconstruct_rank(rank, iter_k_fill=iter_k_fill) for rank in reduced.ranks),
    )
