"""Reduced-trace containers: a rank's representatives and its execution list.

This is the in-memory form of the paper's ``storedSegments`` and
``segmentExecs`` lists (Section 3.1), per rank, plus the counters needed by
the evaluation criteria (degree of matching).

A reduced rank is columns (:class:`ReducedRankTrace`): no object stands for a
representative.  :class:`StoredSegment` is the scalar reference's
representative (:meth:`~repro.core.reducer.TraceReducer.reduce_segments` and
the metrics' ``match`` scan), and nothing else's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.trace.io import iter_reduced_rank_chunks
from repro.trace.segments import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frames import RankFrame

__all__ = ["StoredSegment", "ReducedRankTrace", "ReducedTrace"]


@dataclass(slots=True)
class StoredSegment:
    """One representative as the scalar reference stores it.

    The segment's timestamps are relative to its start (the reducer normalises
    every segment before storing or comparing it).  ``count`` is the number of
    executions this representative stands for; ``iter_avg`` additionally keeps
    the running mean of the timestamps in the representative itself.
    """

    segment_id: int
    segment: Segment
    count: int = 1

    def timestamps(self) -> np.ndarray:
        """Relative timestamp vector in the canonical segment layout."""
        return np.asarray(self.segment.timestamps(), dtype=float)

    def update_mean(self, new_timestamps: np.ndarray) -> None:
        """Fold one more execution into the running mean of the timestamps.

        Used by the ``iter_avg`` method: the stored representative always
        holds the average measurements of all executions it represents.
        """
        new_timestamps = np.asarray(new_timestamps, dtype=float)
        current = self.timestamps()
        if new_timestamps.shape != current.shape:
            raise ValueError(
                "cannot average segments with different numbers of timestamps "
                f"({new_timestamps.size} vs {current.size})"
            )
        self.count += 1
        updated = current + (new_timestamps - current) / self.count
        for i, event in enumerate(self.segment.events):
            event.start = float(updated[2 * i])
            event.end = float(updated[2 * i + 1])
        self.segment.end = float(updated[-1])


_EMPTY_EXECS = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool))


@dataclass(slots=True, eq=False)
class ReducedRankTrace:
    """Reduced trace of one rank, as columns.

    Attributes
    ----------
    rank:
        The rank this reduction belongs to.
    chunks:
        The representatives, in the order they were first seen, as one
        ``(frame, rows)`` per frame booked from: rows of that frame, or of a
        normalised frame of its own once owned (:meth:`own`).  A
        representative's id is its position across the chunks.
    counts:
        Executions each representative stands for (int64, one per id).
    exec_chunks:
        ``(ids, starts, matched)`` per booked frame, read concatenated
        (:meth:`exec_columns`): every execution's representative id and
        absolute start time, in execution order, and whether it matched an
        existing representative — bookkeeping for reconstruction, *not*
        serialized.
    n_segments, n_matches, n_possible_matches:
        Counters feeding the degree-of-matching criterion.
    owned:
        How many leading chunks are owned already.
    """

    rank: int
    chunks: list = field(default_factory=list)
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    exec_chunks: list = field(default_factory=list)
    n_segments: int = 0
    n_matches: int = 0
    n_possible_matches: int = 0
    owned: int = 0

    @property
    def n_stored(self) -> int:
        return len(self.counts)

    def exec_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, starts, matched)`` of every execution, the chunks concatenated once."""
        chunks = self.exec_chunks
        if len(chunks) != 1:
            chunks[:] = [tuple(map(np.concatenate, zip(*chunks))) if chunks else _EMPTY_EXECS]
        return chunks[0]

    @property
    def execs(self) -> list[tuple[int, float]]:
        """``(id, start)`` of every execution: a read-only view for oracles and tests."""
        ids, starts, _ = self.exec_columns()
        return list(zip(ids.tolist(), starts.tolist()))

    def own(self) -> None:
        """Give every chunk rows of its own, ``(frame.take(rows), arange)``, which
        releases the frame it was booked from: a session's flush and checkpoint,
        a pickled result and ``iter_avg``, which writes its means into the rows."""
        chunks = self.chunks
        for i in range(self.owned, len(chunks)):
            frame, rows = chunks[i]
            chunks[i] = (frame.take(rows), np.arange(len(rows)))
        self.owned = len(chunks)

    def pieces(self, ids=None) -> Iterator[tuple["RankFrame", np.ndarray, Sequence[int]]]:
        """Representatives ``ids`` (all, by default) in their order, as
        ``(frame, rows, ids)`` runs of one chunk each."""
        bounds = np.cumsum([0] + [len(rows) for _, rows in self.chunks])
        if ids is None:
            for (frame, rows), lo in zip(self.chunks, bounds.tolist()):
                yield frame, rows, range(lo, lo + len(rows))
            return
        ids = np.asarray(ids, dtype=np.int64)
        at = np.searchsorted(bounds, ids, side="right") - 1
        cuts = [0, *(np.flatnonzero(at[1:] != at[:-1]) + 1).tolist(), len(ids)]
        for lo, hi in zip(cuts, cuts[1:]) if len(ids) else ():
            frame, rows = self.chunks[at[lo]]
            yield frame, rows[ids[lo:hi] - bounds[at[lo]]], ids[lo:hi].tolist()

    def segments(self) -> list[Segment]:
        """Every representative as the :class:`Segment` the scalar reference
        stores: a view for oracles and tests, built on each call."""
        return [frame.segment(row) for frame, rows in self.chunks for row in rows.tolist()]

    def size_bytes(self) -> int:
        """Serialized size of this rank's reduced trace: the length of its chunks."""
        return sum(map(len, iter_reduced_rank_chunks(self)))

    def __getstate__(self):
        # A pickled rank ships its representatives' rows and one array per
        # execution column, not the frames it was booked from.
        self.own()
        self.exec_columns()
        return object.__getstate__(self)


@dataclass(slots=True)
class ReducedTrace:
    """Reduced application trace: one :class:`ReducedRankTrace` per rank."""

    name: str
    method: str
    threshold: Optional[float]
    ranks: list[ReducedRankTrace] = field(default_factory=list)

    @property
    def nprocs(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[ReducedRankTrace]:
        return iter(self.ranks)

    @property
    def n_segments(self) -> int:
        return sum(r.n_segments for r in self.ranks)

    @property
    def n_stored(self) -> int:
        return sum(r.n_stored for r in self.ranks)

    @property
    def n_matches(self) -> int:
        return sum(r.n_matches for r in self.ranks)

    @property
    def n_possible_matches(self) -> int:
        return sum(r.n_possible_matches for r in self.ranks)

    def degree_of_matching(self) -> float:
        """Matches / possible matches (Section 4.3.2); 1.0 when nothing could match."""
        possible = self.n_possible_matches
        if possible == 0:
            return 1.0
        return self.n_matches / possible

    def size_bytes(self) -> int:
        return sum(r.size_bytes() for r in self.ranks)
