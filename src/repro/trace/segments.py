"""Segments and segmentation of raw record streams.

A segment (Section 3.1 of the paper) is the ordered list of events executed
between one SEGMENT_BEGIN and the matching SEGMENT_END marker: the ``init``
segment, one iteration of a marked loop, code between loops, or the ``final``
segment.  Segment contexts are hierarchical strings such as ``"main.2.1"``.

The reducer never compares raw records; it compares segments, so this module
is the bridge between the tracer output and the reduction algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.trace.events import Event, validate_name
from repro.trace.records import RecordKind, TraceRecord

__all__ = [
    "Segment",
    "SegmentationError",
    "RecordSegmenter",
    "segment_rank_records",
    "iter_segments",
    "structural_key",
]


class SegmentationError(RuntimeError):
    """Raised when a record stream cannot be segmented (unbalanced markers, or
    an EXIT or SEGMENT_END earlier than the record it closes)."""


@dataclass(slots=True)
class Segment:
    """One executed segment: context, boundaries, and the events inside it.

    In a full trace timestamps are absolute; after normalisation by the
    reducer (``relative_to_start``) they are relative to the segment start.
    """

    context: str
    rank: int
    start: float
    end: float
    events: list[Event] = field(default_factory=list)
    index: int = 0

    def __post_init__(self) -> None:
        validate_name(self.context, "segment context")
        if self.end < self.start:
            raise ValueError(
                f"segment {self.context!r} has end ({self.end}) before start ({self.start})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def num_events(self) -> int:
        return len(self.events)

    def structure(self) -> tuple:
        """Structural identity of the segment (context + event structures).

        Two segments are a *possible match* (Section 4.3.2) iff their
        structures are equal: same code location, same events in the same
        order, same message-passing calls and parameters.
        """
        return (self.context, tuple(e.structure() for e in self.events))

    def timestamps(self) -> list[float]:
        """All timestamps of the segment in a stable order.

        Layout: each event's (start, end) in event order, then the segment end.
        The segment start is excluded because after normalisation it is always
        zero; distance metrics that want it prepend it explicitly.
        """
        out: list[float] = []
        for event in self.events:
            out.append(event.start)
            out.append(event.end)
        out.append(self.end)
        return out

    def relative_to_start(self) -> "Segment":
        """Return a copy with all timestamps made relative to the segment start.

        This is the normalisation step at the top of the paper's matching
        algorithm (``E[i].start -= s.start`` etc.).
        """
        offset = -self.start
        return Segment(
            context=self.context,
            rank=self.rank,
            start=0.0,
            end=self.end + offset,
            events=[e.shifted(offset) for e in self.events],
            index=self.index,
        )

    def shifted(self, offset: float) -> "Segment":
        """Return a copy with all timestamps shifted by ``offset``."""
        return Segment(
            context=self.context,
            rank=self.rank,
            start=self.start + offset,
            end=self.end + offset,
            events=[e.shifted(offset) for e in self.events],
            index=self.index,
        )

    def with_rank(self, rank: int) -> "Segment":
        return Segment(
            context=self.context,
            rank=rank,
            start=self.start,
            end=self.end,
            events=[replace(e, rank=rank) for e in self.events],
            index=self.index,
        )


def structural_key(segment: Segment) -> tuple:
    """Convenience wrapper around :meth:`Segment.structure`."""
    return segment.structure()


def segment_rank_records(records: Sequence[TraceRecord]) -> list[Segment]:
    """Convert one rank's raw record stream into an ordered list of segments.

    Rules (mirroring the paper's Figure 1 marking scheme):

    * every function ENTER must be followed (eventually) by its EXIT, with no
      interleaving of *unrelated* functions inside the pair — the tracer in
      this library records flat (non-nested) function events, so ENTER/EXIT
      pairs are strictly alternating within a rank;
    * every event must fall inside exactly one SEGMENT_BEGIN/SEGMENT_END pair;
    * segments do not nest (the paper stops the current segment before a loop
      starts and resumes after it ends).

    Raises
    ------
    SegmentationError
        If markers are unbalanced, events appear outside segments, an
        ENTER/EXIT pair straddles a segment boundary, or an EXIT or
        SEGMENT_END is earlier than its ENTER or SEGMENT_BEGIN.
    """
    return list(iter_segments(records))


class RecordSegmenter:
    """Push-style incremental segmenter: one rank, one record at a time.

    The state-machine core of :func:`iter_segments`, exposed as an object so
    a record stream can arrive in arbitrary pieces (the online reduction
    service appends records as they are produced) and so the mid-stream
    state — the open segment, the open event, the running emission index —
    can be **pickled** inside a session checkpoint and resumed in another
    process.  Rules and errors are identical to :func:`iter_segments`, which
    delegates here.
    """

    __slots__ = ("rank", "_current", "_open_event", "_n_emitted")

    def __init__(self, rank: int | None = None) -> None:
        self.rank = rank
        self._current: Segment | None = None
        self._open_event: tuple[str, float, TraceRecord] | None = None
        self._n_emitted = 0

    @property
    def n_emitted(self) -> int:
        """Segments completed so far (the next segment's emission index)."""
        return self._n_emitted

    @property
    def mid_segment(self) -> bool:
        """True while a segment (or event) is open — finish() would raise."""
        return self._current is not None or self._open_event is not None

    def push(self, rec: TraceRecord) -> Segment | None:
        """Consume one record; returns the segment it completed, if any."""
        if self.rank is None:
            self.rank = rec.rank
        rank = self.rank
        if rec.rank != rank:
            raise SegmentationError(
                f"record stream mixes ranks {rank} and {rec.rank}; segment per rank first"
            )
        current = self._current
        open_event = self._open_event
        if rec.kind is RecordKind.SEGMENT_BEGIN:
            if current is not None:
                raise SegmentationError(
                    f"segment {rec.name!r} begins at t={rec.timestamp} while segment "
                    f"{current.context!r} is still open (segments must not nest)"
                )
            if open_event is not None:
                raise SegmentationError(
                    f"segment {rec.name!r} begins inside open event {open_event[0]!r}"
                )
            self._current = Segment(
                context=rec.name,
                rank=rank,
                start=rec.timestamp,
                end=rec.timestamp,
                events=[],
                index=self._n_emitted,
            )
        elif rec.kind is RecordKind.SEGMENT_END:
            if current is None:
                raise SegmentationError(
                    f"segment end for {rec.name!r} at t={rec.timestamp} without a begin"
                )
            if rec.name != current.context:
                raise SegmentationError(
                    f"segment end {rec.name!r} does not match open segment {current.context!r}"
                )
            if open_event is not None:
                raise SegmentationError(
                    f"segment {rec.name!r} ends inside open event {open_event[0]!r}"
                )
            if rec.timestamp < current.start:
                raise SegmentationError(
                    f"segment {rec.name!r} has end ({rec.timestamp}) before start ({current.start})"
                )
            current.end = rec.timestamp
            self._n_emitted += 1
            self._current = None
            return current
        elif rec.kind is RecordKind.ENTER:
            if current is None:
                raise SegmentationError(
                    f"function {rec.name!r} entered at t={rec.timestamp} outside any segment"
                )
            if open_event is not None:
                raise SegmentationError(
                    f"function {rec.name!r} entered while {open_event[0]!r} is still open; "
                    "the tracer records flat events only"
                )
            self._open_event = (rec.name, rec.timestamp, rec)
        elif rec.kind is RecordKind.EXIT:
            if open_event is None or current is None:
                raise SegmentationError(
                    f"function exit for {rec.name!r} at t={rec.timestamp} without an enter"
                )
            name, start, enter_rec = open_event
            if rec.name != name:
                raise SegmentationError(
                    f"function exit {rec.name!r} does not match open event {name!r}"
                )
            if rec.timestamp < start:
                raise SegmentationError(
                    f"event {name!r} has end ({rec.timestamp}) before start ({start})"
                )
            current.events.append(
                Event(name=name, start=start, end=rec.timestamp, rank=rank, mpi=enter_rec.mpi)
            )
            self._open_event = None
        else:  # pragma: no cover - defensive, RecordKind is exhaustive
            raise SegmentationError(f"unknown record kind {rec.kind!r}")
        return None

    def finish(self) -> None:
        """Assert the stream ended cleanly (no segment or event left open)."""
        if self._current is not None:
            raise SegmentationError(f"segment {self._current.context!r} was never closed")
        if self._open_event is not None:
            raise SegmentationError(f"event {self._open_event[0]!r} was never closed")


def iter_segments(records: Iterable[TraceRecord]):
    """Incrementally segment one rank's record stream.

    The streaming form of :func:`segment_rank_records`: each segment is
    yielded as soon as its SEGMENT_END record is consumed, so memory stays
    bounded by the largest single segment regardless of trace length.  The
    rules and errors are identical (both this and the batch function drive a
    :class:`RecordSegmenter`).
    """
    segmenter = RecordSegmenter()
    for rec in records:
        segment = segmenter.push(rec)
        if segment is not None:
            yield segment
    segmenter.finish()
