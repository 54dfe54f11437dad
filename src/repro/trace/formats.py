"""Trace format registry: extension-dispatched readers and writers.

Every trace file API in this package goes through one registry.  A
:class:`TraceFormat` bundles the operations a storage format must provide
(whole-trace read/write, an incremental per-rank writer, forward rank
record streams, the text-equivalent size) plus the random-access operations
that only indexed formats have (rank ids and block bytes from the index, runs
of ranks to decode together, a per-run frame decoder).

Two formats are registered:

``text``
    The paper-faithful line format of :mod:`repro.trace.io`.  Forward-only:
    rank streams must be consumed in order.  Default for any extension that
    no other format claims.
``rpb``
    The columnar binary format of :mod:`repro.trace.binio` (``.rpb``).
    Indexed: any rank can be decoded independently, which is what lets the
    pipeline ship ``(path, ranks)`` shard batches — cut by the index's block
    lengths — to workers instead of pickled rank payloads.

:func:`convert_trace` streams one format into the other rank by rank, so
conversion memory is bounded by the largest single rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Protocol, Tuple

from repro.trace import binio

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frames import RankFrame
from repro.trace import io as textio
from repro.trace.records import TraceRecord
from repro.trace.segments import RecordSegmenter
from repro.trace.trace import Trace

__all__ = [
    "TraceFormat",
    "TraceWriter",
    "ConversionReport",
    "register_format",
    "trace_format",
    "format_names",
    "format_for_path",
    "resolve_format",
    "convert_trace",
]


class TraceWriter(Protocol):
    """Incremental trace writer: one rank block/run at a time."""

    def write_rank(self, rank: int, records: Iterable[TraceRecord]) -> int: ...

    def close(self) -> None: ...

    def __enter__(self) -> "TraceWriter": ...

    def __exit__(self, exc_type, exc, tb) -> None: ...


@dataclass(frozen=True, slots=True)
class TraceFormat:
    """One registered trace storage format.

    The random-access operations (``rank_ids`` … ``rank_frames``) are all
    ``None`` for a forward-only format and all set for an indexed one
    (``is_indexed``).
    """

    name: str
    suffixes: Tuple[str, ...]
    write: Callable[[Trace, Path], None]
    read: Callable[..., Trace]
    open_writer: Callable[[Path], TraceWriter]
    rank_streams: Callable[[Path], Iterator[Tuple[int, Iterator[TraceRecord]]]]
    #: Bytes the file's records occupy in the text format (§4.3.1's denominator).
    text_bytes: Callable[[Path], int]
    rank_ids: Optional[Callable[[Path], list[int]]] = None
    #: Bytes each rank's block occupies in the file, in ``rank_ids`` order,
    #: from the index alone — what the pipeline balances pooled work by.
    rank_bytes: Optional[Callable[[Path], list[int]]] = None
    #: Cut ranks into the runs to decode at a time: ``(ranks, block bytes)`` pairs.
    rank_runs: Optional[Callable[[Path, Iterable[int]], list[Tuple[Tuple[int, ...], int]]]] = None
    #: Decode one run of ranks straight into columnar ``RankFrame``s (no
    #: Segment objects): what a ``(path, ranks)`` batch's worker runs.
    rank_frames: Optional[Callable[[Path, Iterable[int]], list["RankFrame"]]] = None

    @property
    def is_indexed(self) -> bool:
        """True when any rank can be decoded independently (random access)."""
        return self.rank_ids is not None


_FORMATS: dict[str, TraceFormat] = {}
_DEFAULT_FORMAT = "text"


def register_format(fmt: TraceFormat) -> None:
    """Register a format under its name (suffix claims must not collide)."""
    for other in _FORMATS.values():
        overlap = set(other.suffixes) & set(fmt.suffixes)
        if other.name != fmt.name and overlap:
            raise ValueError(
                f"format {fmt.name!r} claims suffixes {sorted(overlap)} already "
                f"registered to {other.name!r}"
            )
    _FORMATS[fmt.name] = fmt


def trace_format(name: str) -> TraceFormat:
    """Look a format up by name."""
    try:
        return _FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace format {name!r}; registered: {format_names()}"
        ) from None


def format_names() -> list[str]:
    """Names of all registered formats."""
    return sorted(_FORMATS)


def format_for_path(path: str | Path) -> TraceFormat:
    """Format implied by a path's extension (text when no format claims it)."""
    suffix = Path(path).suffix.lower()
    for fmt in _FORMATS.values():
        if suffix in fmt.suffixes:
            return fmt
    return _FORMATS[_DEFAULT_FORMAT]


def resolve_format(path: str | Path, format: Optional[str] = None) -> TraceFormat:
    """Explicit format name if given, else dispatch on the path's extension."""
    if format is not None:
        return trace_format(format)
    return format_for_path(path)


@dataclass(frozen=True, slots=True)
class ConversionReport:
    """What :func:`convert_trace` did."""

    source: str
    dest: str
    source_format: str
    dest_format: str
    n_ranks: int
    n_records: int
    source_bytes: int
    dest_bytes: int


def convert_trace(
    source: str | Path,
    dest: str | Path,
    *,
    from_format: Optional[str] = None,
    to_format: Optional[str] = None,
) -> ConversionReport:
    """Convert a trace file between formats, streaming rank by rank.

    Formats default to extension dispatch and may be forced by name.  Values
    survive exactly as stored: converting text→rpb preserves the text file's
    (two-decimal) timestamps bit-for-bit, and rpb→rpb or rpb→text re-encodes
    the binary ``float64`` timestamps (text output quantizes, as always).
    ``dest`` appears whole when the last rank is written (both writers are
    atomic outputs), so it may be ``source`` itself, and a conversion that
    fails leaves what ``dest`` held.  A source whose records do not segment
    (:class:`~repro.trace.segments.SegmentationError`, e.g. an EXIT before
    its ENTER) fails the conversion: it would write a file every reader
    refuses.
    """
    source, dest = Path(source), Path(dest)
    src_fmt = resolve_format(source, from_format)
    dst_fmt = resolve_format(dest, to_format)
    n_ranks = 0
    n_records = 0
    source_bytes = source.stat().st_size  # before the writer closes: dest may be source
    with dst_fmt.open_writer(dest) as writer:
        for rank, records in src_fmt.rank_streams(source):
            n_records += writer.write_rank(rank, _segmentable(records))
            n_ranks += 1
    return ConversionReport(
        source=str(source),
        dest=str(dest),
        source_format=src_fmt.name,
        dest_format=dst_fmt.name,
        n_ranks=n_ranks,
        n_records=n_records,
        source_bytes=source_bytes,
        dest_bytes=dest.stat().st_size,
    )


def _segmentable(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """``records`` as they come, checked against the segmentation rules."""
    segmenter = RecordSegmenter()
    for record in records:
        segmenter.push(record)
        yield record
    segmenter.finish()


register_format(
    TraceFormat(
        name="text",
        suffixes=(".txt", ".trace"),
        write=textio.write_trace_text,
        read=textio.read_trace_text,
        open_writer=textio.TextTraceWriter,
        rank_streams=textio.iter_rank_record_streams_text,
        text_bytes=textio.text_trace_bytes,
    )
)

register_format(
    TraceFormat(
        name="rpb",
        suffixes=(binio.RPB_SUFFIX,),
        write=binio.write_trace_rpb,
        read=binio.read_trace_rpb,
        open_writer=binio.RpbTraceWriter,
        rank_streams=binio.iter_rank_record_streams_rpb,
        text_bytes=binio.text_bytes,
        rank_ids=binio.rank_ids,
        rank_bytes=binio.rank_bytes,
        rank_runs=binio.rank_runs,
        rank_frames=binio.rank_frames,
    )
)
