"""Frame-backed traces: the evaluation read protocol over columnar frames.

:class:`FrameTrace` exposes a set of :class:`~repro.core.frames.RankFrame`
columns through the same read surface as
:class:`~repro.trace.trace.SegmentedTrace`.  It is what a trace file or a raw
in-memory trace becomes, and what :func:`~repro.core.reconstruct.reconstruct`
returns — so the reducers and all the evaluation criteria work on columns and
never rebuild :class:`~repro.trace.segments.Segment` objects:

* the EXPERT analyzer (:mod:`repro.analysis.expert`) reads ``rank.frame``'s
  event columns directly;
* :meth:`FrameRankTrace.timestamps` fills the distance criterion's flat
  per-rank timestamp layout with three strided column assignments (pure
  copies of the float64 values, so the array is bitwise identical to the
  segment-walk form), once per rank;
* :meth:`FrameTrace.duration` is a column ``max``.

Two object views remain for the consumers that want objects.
:meth:`FrameRankTrace.events` yields absolute
:class:`~repro.trace.events.Event` objects straight from the flattened event
columns (event order inside a frame *is* execution order); its one caller in
``src/`` is :func:`repro.analysis.profile.flat_profile`.
:attr:`FrameRankTrace.segments` lazily materializes the *absolute* segments
for oracles, scan metrics, tests and examples — counted in
:attr:`RankFrame.materialized` like every other materialization, so the
evaluation tests can assert that no criterion comes through here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.frames import RankFrame
from repro.trace.events import Event
from repro.trace.segments import Segment

__all__ = ["FrameRankTrace", "FrameTrace"]


class FrameRankTrace:
    """One rank of a frame-backed trace, readable like ``SegmentedRankTrace``."""

    __slots__ = ("frame", "_segments", "_timestamps")

    def __init__(self, frame: RankFrame) -> None:
        self.frame = frame
        self._segments: Optional[list[Segment]] = None
        self._timestamps: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return self.frame.rank

    def __len__(self) -> int:
        return self.frame.n_segments

    @property
    def num_events(self) -> int:
        return self.frame.n_events

    def events(self) -> Iterator[Event]:
        """All events of the rank in execution order, with absolute timestamps.

        The flattened event columns are laid out segment by segment, so
        iterating them flat is exactly the segment-walk order of
        :meth:`~repro.trace.trace.SegmentedRankTrace.events` — no segment
        objects needed.
        """
        frame = self.frame
        strings = frame.strings
        mpi_table = frame.mpi_table
        rank = frame.rank
        names = frame.ev_names.tolist()
        starts = frame.ev_starts.tolist()
        ends = frame.ev_ends.tolist()
        mpi_ids = frame.ev_mpi.tolist()
        for j in range(len(names)):
            mpi_id = mpi_ids[j]
            yield Event(
                name=strings[names[j]],
                start=starts[j],
                end=ends[j],
                rank=rank,
                mpi=mpi_table[mpi_id] if mpi_id >= 0 else None,
            )

    def timestamps(self) -> np.ndarray:
        """The criterion's flat timestamp layout, filled by strided assignment.

        Per segment: its start, each event's (start, end), its end — the
        layout of :meth:`~repro.trace.trace.SegmentedRankTrace.timestamps`.
        Segment ``i``'s block begins at ``2*i + 2*ev_offsets[i]`` (two
        boundary values per preceding segment plus two values per preceding
        event), which turns the whole walk into three vectorized copies of
        the decoded columns — bitwise identical to the scalar walk because
        no arithmetic touches the values themselves.

        Built once per rank and returned read-only: the frame's columns never
        change, and a threshold study compares the same original trace
        against every config's reconstruction.
        """
        out = self._timestamps
        if out is None:
            out = self._timestamps = self._build_timestamps()
            out.flags.writeable = False
        return out

    def _build_timestamps(self) -> np.ndarray:
        frame = self.frame
        n = frame.n_segments
        out = np.empty(2 * n + 2 * frame.n_events, dtype=float)
        offsets = frame.ev_offsets
        seg_pos = 2 * np.arange(n, dtype=np.int64)
        out[seg_pos + 2 * offsets[:-1]] = frame.starts
        out[seg_pos + 2 * offsets[1:] + 1] = frame.ends
        if frame.n_events:
            counts = np.diff(offsets)
            seg_of_event = np.repeat(np.arange(n, dtype=np.int64), counts)
            ev_pos = 2 * seg_of_event + 1 + 2 * np.arange(frame.n_events, dtype=np.int64)
            out[ev_pos] = frame.ev_starts
            out[ev_pos + 1] = frame.ev_ends
        return out

    @property
    def segments(self) -> list[Segment]:
        """Absolute segment objects, materialized from the columns on demand.

        The compatibility fallback for oracles and scan consumers: values are
        the decoded columns verbatim (no renormalisation round-trip), so each
        segment is bit-identical to the one a segment decoder would have
        built.  Counted in :attr:`RankFrame.materialized` so tests can assert
        the hot paths never come through here.
        """
        segments = self._segments
        if segments is None:
            segments = self._segments = self._materialize_absolute()
        return segments

    def _materialize_absolute(self) -> list[Segment]:
        frame = self.frame
        strings = frame.strings
        mpi_table = frame.mpi_table
        rank = frame.rank
        contexts = frame.contexts.tolist()
        starts = frame.starts.tolist()
        ends = frame.ends.tolist()
        offsets = frame.ev_offsets.tolist()
        names = frame.ev_names.tolist()
        ev_starts = frame.ev_starts.tolist()
        ev_ends = frame.ev_ends.tolist()
        ev_mpi = frame.ev_mpi.tolist()
        indices = None if frame.indices is None else frame.indices.tolist()
        segments: list[Segment] = []
        for i in range(len(starts)):
            events = [
                Event(
                    name=strings[names[j]],
                    start=ev_starts[j],
                    end=ev_ends[j],
                    rank=rank,
                    mpi=mpi_table[ev_mpi[j]] if ev_mpi[j] >= 0 else None,
                )
                for j in range(offsets[i], offsets[i + 1])
            ]
            segments.append(
                Segment(
                    context=strings[contexts[i]],
                    rank=rank,
                    start=starts[i],
                    end=ends[i],
                    events=events,
                    index=i if indices is None else indices[i],
                )
            )
        frame.materialized += len(segments)
        return segments


class FrameTrace:
    """A whole trace held as columnar frames, readable like ``SegmentedTrace``.

    Built by :meth:`from_file` (``.rpb`` ranks decode straight to frames,
    text files through their records' columns), :meth:`from_segmented` or
    :meth:`from_frames` (a raw trace's, built by the ``.rpb`` decoder's code).
    The reducers
    and the pipeline/sweep ingestion recognise it and take their columnar
    paths; everything else reads it through the ``SegmentedTrace`` protocol.
    """

    __slots__ = ("name", "ranks")

    def __init__(self, name: str, ranks: Iterable[FrameRankTrace]) -> None:
        self.name = name
        self.ranks = list(ranks)

    @classmethod
    def from_frames(cls, name: str, frames: Iterable[RankFrame]) -> "FrameTrace":
        return cls(name, (FrameRankTrace(frame) for frame in frames))

    @classmethod
    def from_segmented(cls, trace) -> "FrameTrace":
        """Adapt an in-memory :class:`~repro.trace.trace.SegmentedTrace`, rank by rank."""
        return cls.from_frames(
            trace.name,
            (RankFrame.from_segments(rank.rank, rank.segments) for rank in trace.ranks),
        )

    @classmethod
    def from_file(cls, path, name: Optional[str] = None) -> "FrameTrace":
        """Decode a trace file (any registered format) into frames.

        Indexed formats decode their ranks' byte ranges, a run of ranks at a
        time, directly into columns; a text file is parsed a rank's run of
        lines at a time into record columns, which become frames the same way.
        """
        from repro.pipeline.stream import rank_frame_streams

        path = Path(path)
        return cls.from_frames(
            name or path.stem, (frame for _, frame in rank_frame_streams(path))
        )

    @property
    def nprocs(self) -> int:
        return len(self.ranks)

    @property
    def num_segments(self) -> int:
        return sum(rank.frame.n_segments for rank in self.ranks)

    @property
    def num_events(self) -> int:
        return sum(rank.frame.n_events for rank in self.ranks)

    @property
    def materialized(self) -> int:
        """Total segment materializations across all frames (lazy-path audit)."""
        return sum(rank.frame.materialized for rank in self.ranks)

    def rank(self, rank: int) -> FrameRankTrace:
        if not 0 <= rank < len(self.ranks):
            raise IndexError(f"rank {rank} out of range for trace with {len(self.ranks)} ranks")
        return self.ranks[rank]

    def timestamps(self) -> np.ndarray:
        """Concatenated per-rank timestamp arrays (rank order)."""
        if not self.ranks:
            return np.asarray([], dtype=float)
        return np.concatenate([rank.timestamps() for rank in self.ranks])

    def duration(self) -> float:
        """Wall-clock span of the trace (max segment end over all ranks)."""
        ends = [
            rank.frame.ends.max() for rank in self.ranks if rank.frame.n_segments
        ]
        return float(max(ends)) if ends else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FrameTrace {self.name!r} nprocs={self.nprocs} "
            f"segments={self.num_segments} materialized={self.materialized}>"
        )
