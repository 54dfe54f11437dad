"""Reconstruction of an approximate full trace from a reduced trace.

Every entry of the ``segmentExecs`` list is replayed: the referenced stored
segment's (relative) events are shifted to the recorded start time.  The
result has exactly the same structure as the original trace (same segments,
same events, same MPI parameters) but approximated timestamps — which is what
the approximation-distance and trend-retention criteria quantify.

The replay is columnar.  A rank's stored representatives (tens of segments)
are one :class:`~repro.core.frames.RankFrame` — their chunks' rows taken and
laid end to end (:meth:`~repro.core.frames.RankFrame.concat`) — and the rebuilt rank
is one gather by the execution ids: name / MPI / context ids by one fancy
index, timestamps as ``representative column[gather] + execution start`` —
the same IEEE-754 add a per-event ``start + offset`` performs, so every
value is bit-identical to shifting the representative's objects one
execution at a time (the reference the tests keep,
``tests/criteria_reference.py``).  No ``Segment`` or ``Event`` is built per
execution or per representative; the returned
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
from repro.core.reduced import ReducedRankTrace, ReducedTrace

__all__ = ["reconstruct", "reconstruct_rank"]

IterKFill = Literal["last", "mean"]


def _with_means(stored: RankFrame) -> tuple[RankFrame, np.ndarray]:
    """``stored`` with one mean row per structural group appended, and each row's fill row.

    A group's mean row has its last member's structure and the mean of its
    members' timestamps (an event starts at the lesser of its mean start and
    end); it is the fill row of that last member, every other row its own.
    """
    groups: dict = {}
    for row, key in enumerate(stored.structural_keys()):
        groups.setdefault(key, []).append(row)
    vectors = stored.pairwise_vectors()
    lasts = np.array([rows[-1] for rows in groups.values()], dtype=np.int64)
    means = stored.take(lasts)
    for at, rows in enumerate(groups.values()):
        means.write_row(at, np.vstack([vectors[row] for row in rows]).mean(axis=0))
    np.copyto(means.ev_starts, means.ev_ends, where=means.ev_ends < means.ev_starts)
    fill_row = np.arange(stored.n_segments)
    fill_row[lasts] = stored.n_segments + np.arange(len(lasts))
    return RankFrame.concat(stored.rank, [stored, means]), fill_row


def reconstruct_rank(
    reduced: ReducedRankTrace, *, iter_k_fill: IterKFill = "last"
) -> FrameRankTrace:
    """Reconstruct one rank's approximate trace as a frame-backed rank."""
    if iter_k_fill not in ("last", "mean"):
        raise ValueError(f"iter_k_fill must be 'last' or 'mean', got {iter_k_fill!r}")
    rows, starts, matched = reduced.exec_columns()
    unknown = (rows < 0) | (rows >= reduced.n_stored)
    if unknown.any():
        raise KeyError(
            f"execution entry references unknown segment id {int(rows[unknown][0])} "
            f"on rank {reduced.rank}"
        )
    stored_frame = RankFrame.concat(
        reduced.rank, [frame.take(rows) for frame, rows in reduced.chunks]
    )
    if iter_k_fill == "mean" and reduced.n_stored:
        # A matched execution of a group's last collected copy replays the mean.
        stored_frame, fill_row = _with_means(stored_frame)
        rows = np.where(matched, fill_row[rows], rows)

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
