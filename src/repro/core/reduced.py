"""Reduced-trace containers: stored segments and segment-execution lists.

This is the in-memory form of the paper's ``storedSegments`` and
``segmentExecs`` lists (Section 3.1), per rank, plus the counters needed by
the evaluation criteria (degree of matching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.trace.io import iter_reduced_rank_chunks
from repro.trace.segments import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frames import RankFrame

__all__ = ["StoredSegment", "ReducedRankTrace", "ReducedTrace"]


class StoredSegment:
    """One representative segment retained in the reduced trace.

    The segment's timestamps are relative to its start (the reducer normalises
    every segment before storing or comparing it).  ``count`` is the number of
    executions this representative stands for; ``iter_avg`` additionally keeps
    the running mean of the timestamps in the representative itself.

    A dense reduction books a representative as its ``origin`` — the
    ``(frame, row)`` it is — and the serializer and the reconstruction read
    the frame's columns.  :attr:`segment` builds the :class:`Segment` on first
    read and drops the origin: a reader gets the object the scalar reference
    stores, and the frame is pinned only until then.

    Its pickled state is the compact ``(id, segment, count)`` triple: pool
    workers ship every representative back to the parent, so the state must
    not grow with the class.
    """

    __slots__ = ("segment_id", "count", "origin", "_segment")

    def __init__(
        self,
        segment_id: int,
        segment: Optional[Segment] = None,
        count: int = 1,
        *,
        origin: Optional[tuple["RankFrame", int]] = None,
    ) -> None:
        self.segment_id = segment_id
        self.count = count
        #: ``(frame, row)`` while the representative is still a frame row, else None.
        self.origin = origin
        self._segment = segment

    @property
    def segment(self) -> Segment:
        segment = self._segment
        if segment is None:
            frame, row = self.origin
            segment = self._segment = frame.segment(row)
            self.origin = None
        return segment

    def __eq__(self, other) -> bool:
        if not isinstance(other, StoredSegment):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    __hash__ = None

    def __repr__(self) -> str:
        what = f"segment={self._segment!r}" if self.origin is None else f"row={self.origin[1]}"
        return f"StoredSegment(segment_id={self.segment_id}, {what}, count={self.count})"

    def timestamps(self) -> np.ndarray:
        """Relative timestamp vector in the canonical segment layout."""
        return np.asarray(self.segment.timestamps(), dtype=float)

    def __getstate__(self):
        return (self.segment_id, self.segment, self.count)

    def __setstate__(self, state):
        self.segment_id, self._segment, self.count = state
        self.origin = None

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
        self.write_timestamps(updated)

    def write_timestamps(self, values: np.ndarray) -> None:
        """Overwrite the representative's relative timestamps (canonical layout)."""
        events = self.segment.events
        expected = 2 * len(events) + 1
        if values.size != expected:
            raise ValueError(
                f"timestamp vector has {values.size} entries, expected {expected}"
            )
        for i, event in enumerate(events):
            event.start = float(values[2 * i])
            event.end = float(values[2 * i + 1])
        self.segment.end = float(values[-1])


@dataclass(slots=True)
class ReducedRankTrace:
    """Reduced trace of one rank.

    Attributes
    ----------
    rank:
        The rank this reduction belongs to.
    stored:
        Stored representative segments, in the order they were first seen.
    execs:
        ``(segment id, absolute start time)`` for every segment execution, in
        execution order — enough to re-create an approximate full trace.
    exec_matched:
        Parallel to ``execs``: True where the execution matched an existing
        stored segment (i.e. its own measurements were discarded).  This is
        bookkeeping for evaluation/reconstruction options and is *not* counted
        in the serialized size.
    n_segments, n_matches, n_possible_matches:
        Counters feeding the degree-of-matching criterion.
    """

    rank: int
    stored: list[StoredSegment] = field(default_factory=list)
    execs: list[tuple[int, float]] = field(default_factory=list)
    exec_matched: list[bool] = field(default_factory=list)
    n_segments: int = 0
    n_matches: int = 0
    n_possible_matches: int = 0

    def stored_by_id(self) -> dict[int, StoredSegment]:
        return {s.segment_id: s for s in self.stored}

    def size_bytes(self) -> int:
        """Serialized size of this rank's reduced trace: the length of its chunks."""
        return sum(map(len, iter_reduced_rank_chunks(self)))


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
        return sum(len(r.stored) for r in self.ranks)

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
