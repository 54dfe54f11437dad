"""Trace containers: per-rank and application-wide, raw and segmented."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.trace.records import TraceRecord
from repro.trace.segments import Segment, segment_rank_records

__all__ = ["RankTrace", "Trace", "SegmentedRankTrace", "SegmentedTrace"]


@dataclass(slots=True)
class RankTrace:
    """Raw record stream collected by one rank.

    ``records`` is a list, or the :class:`~repro.trace.records.RecordColumns`
    the simulator appends to.
    """

    rank: int
    records: Sequence[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def segmented(self) -> "SegmentedRankTrace":
        """Segment this rank's records (see :func:`segment_rank_records`)."""
        return SegmentedRankTrace(rank=self.rank, segments=segment_rank_records(self.records))


@dataclass(slots=True)
class Trace:
    """Raw application trace: one :class:`RankTrace` per rank.

    The per-rank traces are collected separately and only merged for analysis,
    exactly as the paper describes (intra-process reduction happens before any
    merge).
    """

    name: str
    ranks: list[RankTrace] = field(default_factory=list)

    @property
    def nprocs(self) -> int:
        return len(self.ranks)

    @property
    def num_records(self) -> int:
        return sum(len(r) for r in self.ranks)

    def rank(self, rank: int) -> RankTrace:
        if not 0 <= rank < len(self.ranks):
            raise IndexError(f"rank {rank} out of range for trace with {len(self.ranks)} ranks")
        return self.ranks[rank]

    def segmented(self) -> "SegmentedTrace":
        """Segment every rank's record stream."""
        return SegmentedTrace(name=self.name, ranks=[r.segmented() for r in self.ranks])


@dataclass(slots=True)
class SegmentedRankTrace:
    """One rank's trace after segmentation: an ordered list of segments."""

    rank: int
    segments: list[Segment] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.segments)

    def events(self) -> Iterator:
        """Iterate all events of this rank in execution order."""
        for segment in self.segments:
            yield from segment.events

    def timestamps(self) -> np.ndarray:
        """All event/segment timestamps of this rank as a flat array.

        The order is deterministic (segment order, then the per-segment layout
        of :meth:`Segment.timestamps` with the segment start prepended) so two
        structurally identical traces can be compared element-wise — this is
        what the approximation-distance criterion does.
        """
        values: list[float] = []
        for segment in self.segments:
            values.append(segment.start)
            values.extend(segment.timestamps())
        return np.asarray(values, dtype=float)

    @property
    def num_events(self) -> int:
        return sum(len(s.events) for s in self.segments)


@dataclass(slots=True)
class SegmentedTrace:
    """Application trace after segmentation."""

    name: str
    ranks: list[SegmentedRankTrace] = field(default_factory=list)

    @property
    def nprocs(self) -> int:
        return len(self.ranks)

    @property
    def num_segments(self) -> int:
        return sum(len(r.segments) for r in self.ranks)

    @property
    def num_events(self) -> int:
        return sum(r.num_events for r in self.ranks)

    def rank(self, rank: int) -> SegmentedRankTrace:
        if not 0 <= rank < len(self.ranks):
            raise IndexError(f"rank {rank} out of range for trace with {len(self.ranks)} ranks")
        return self.ranks[rank]

    def timestamps(self) -> np.ndarray:
        """Concatenated per-rank timestamp arrays (rank order)."""
        if not self.ranks:
            return np.asarray([], dtype=float)
        return np.concatenate([r.timestamps() for r in self.ranks])

    def duration(self) -> float:
        """Wall-clock span of the trace (max segment end over all ranks)."""
        ends = [s.end for r in self.ranks for s in r.segments]
        return max(ends) if ends else 0.0
