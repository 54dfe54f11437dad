"""Trace serialization and file-size accounting.

The paper's first evaluation criterion is the reduced trace file size as a
percentage of the full trace file size.  To make that comparison meaningful we
serialize both representations with the same record format:

* a **full trace** is one line per raw record
  (``ENTER <rank> <t> <name> [mpi params]``);
* a **reduced trace** is one line per stored-segment header, one line per
  stored event (with segment-relative timestamps), and one line per segment
  execution entry (``EXEC <segment id> <start time>``) — exactly the
  ``storedSegments`` + ``segmentExecs`` representation of Section 3.1.

Timestamps are written with microsecond precision (two decimals), so the byte
cost of a timestamp is comparable in both representations.  Note that this
quantization makes a text write→read round trip lossy below 0.01
microseconds; the columnar binary format (:mod:`repro.trace.binio`) round-trips
``float64`` timestamps exactly.

This module owns the **text** format.  The public :func:`write_trace` and
:func:`read_trace` dispatch on the file extension through the format registry
(:mod:`repro.trace.formats`), so ``.rpb`` paths transparently use the binary
format; the ``*_text`` variants are the text implementations the registry
binds.
"""

from __future__ import annotations

import io as _io
import itertools
import math
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro.trace.events import Event, MpiCallInfo, validate_name
from repro.trace.records import RecordColumns, RecordKind, TraceRecord, check_record
from repro.trace.segments import RecordSegmenter, Segment

if TYPE_CHECKING:  # avoid a runtime cycle: core.reduced imports this module
    from repro.core.frames import RankFrame
    from repro.core.reduced import ReducedRankTrace, ReducedTrace
    from repro.service.session import ReductionDelta

from repro.trace.trace import RankTrace, SegmentedTrace, Trace

__all__ = [
    "TextFormatError",
    "format_record",
    "parse_record",
    "ColumnTextSizer",
    "serialize_records",
    "serialize_segment",
    "serialize_exec_entry",
    "segmented_trace_size_bytes",
    "write_trace",
    "write_trace_text",
    "text_trace_bytes",
    "TextTraceWriter",
    "read_trace",
    "read_trace_text",
    "iter_trace_records",
    "iter_rank_record_streams_text",
    "iter_rank_columns_text",
    "iter_reduced_rank_chunks",
    "serialize_reduced_trace",
    "ReducedSizer",
    "atomic_output",
    "write_reduced_trace",
    "iter_delta_chunks",
    "serialize_delta",
    "DeltaWriter",
]



class TextFormatError(ValueError):
    """Raised when a file is not a valid text trace (a line that is no record)."""


_TS_FMT = "{:.2f}"
#: Labels of the optional integer MPI attributes, in the order they are written.
_MPI_LABELS = ("root", "peer", "src", "tag")
_DEFAULT_COMM = "world"  # not written


def _format_mpi(mpi: MpiCallInfo | None) -> str:
    if mpi is None:
        return ""
    parts = [mpi.op]
    for label, value in zip(_MPI_LABELS, (mpi.root, mpi.peer, mpi.source, mpi.tag)):
        if value is not None:
            parts.append(f"{label}={value}")
    if mpi.nbytes:
        parts.append(f"bytes={mpi.nbytes}")
    if mpi.comm != _DEFAULT_COMM:
        parts.append(f"comm={mpi.comm}")
    return " " + " ".join(parts)


def _parse_mpi(tokens: Sequence[str]) -> MpiCallInfo:
    op = tokens[0]
    kwargs: dict = {}
    for token in tokens[1:]:
        key, _, value = token.partition("=")
        if key == "root":
            kwargs["root"] = int(value)
        elif key == "peer":
            kwargs["peer"] = int(value)
        elif key == "src":
            kwargs["source"] = int(value)
        elif key == "tag":
            kwargs["tag"] = int(value)
        elif key == "bytes":
            kwargs["nbytes"] = int(value)
        elif key == "comm":
            kwargs["comm"] = value
        else:
            raise ValueError(f"unknown MPI attribute {token!r}")
    return MpiCallInfo(op=op, **kwargs)


def format_record(record: TraceRecord) -> str:
    """Format one record as a single trace-file line (no newline)."""
    ts = _TS_FMT.format(record.timestamp)
    return f"{record.kind.name} {record.rank} {ts} {record.name}{_format_mpi(record.mpi)}"


def _timestamp_digit_gains() -> np.ndarray:
    """The doubles at which ``_TS_FMT`` output gains an integer digit.

    Entry ``k - 1`` is the smallest double that formats with ``k + 1`` integer
    digits — the first at or above ``10**k - 0.005``, settled by asking the
    format itself — for ``k`` = 1 … 15 (the last is ``1e15``, where doubles are
    0.125 apart).
    """
    gains = []
    for k in range(1, 16):
        gain = 10.0**k - 0.005
        while len(_TS_FMT.format(gain)) < k + 4:
            gain = math.nextafter(gain, math.inf)
        while len(_TS_FMT.format(math.nextafter(gain, 0.0))) == k + 4:
            gain = math.nextafter(gain, 0.0)
        gains.append(gain)
    return np.array(gains)


_TS_DIGIT_GAINS = _timestamp_digit_gains()
_KIND_NAME_BYTES = np.array([len(kind.name) for kind in RecordKind])  # by kind value
_MPI_LABEL_BYTES = np.array([len(f" {label}=") for label in _MPI_LABELS])
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def _timestamps_text_bytes(times: np.ndarray) -> np.ndarray:
    """``len(_TS_FMT.format(t))`` of each timestamp."""
    # One integer digit per gain passed, plus the first and ".dd".
    sizes = np.searchsorted(_TS_DIGIT_GAINS, times, side="right") + 4
    # Negative, -0.0, NaN, infinite and >= 1e15: ask the format itself.
    odd = ~(times >= 0.0) | (times >= _TS_DIGIT_GAINS[-1]) | np.signbit(times)
    if odd.any():
        sizes[odd] = [len(_TS_FMT.format(t)) for t in times[odd].tolist()]
    return sizes


def _int_text_bytes(values: np.ndarray) -> np.ndarray:
    """``len(str(v))`` of each ``int64`` value."""
    # abs(INT64_MIN) wraps to itself, which as uint64 is the right magnitude.
    magnitude = np.abs(values).astype(np.uint64)
    return np.searchsorted(_POWERS_OF_TEN, magnitude, side="right") + 1 + (values < 0)


def _range_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` for every ``i`` (0 for an empty range)."""
    return np.diff(np.concatenate(([0], np.cumsum(values)))[bounds])


class ColumnTextSizer:
    """Byte cost of records in the text format, computed from record columns.

    The length rules of :func:`format_record` and :func:`_format_mpi`, applied
    to whole columns: what ``len((format_record(r) + "\\n").encode("utf-8"))``
    sums to over the records the columns describe, without building one.
    The columns may hold several ranks end to end: ``bounds`` is the prefix
    array that cuts them (rank ``i``'s rows are ``bounds[i]:bounds[i + 1]``)
    and each answer has one sum per rank.  ``strings`` is the table the name,
    op and communicator id columns index.
    """

    def __init__(self, strings: Sequence[str]) -> None:
        self._string_bytes = np.array([len(s.encode("utf-8")) for s in strings], dtype=np.int64)
        self._comm_written = np.array([s != _DEFAULT_COMM for s in strings], dtype=bool)

    def records(
        self,
        ranks: Sequence[int],
        bounds: np.ndarray,
        kinds: np.ndarray,
        times: np.ndarray,
        names: np.ndarray,
    ) -> np.ndarray:
        """Bytes of ``KIND rank timestamp name\\n`` over each rank's records."""
        per_record = (
            _KIND_NAME_BYTES[kinds] + _timestamps_text_bytes(times) + self._string_bytes[names]
        )
        # The rank, three separators and the newline.
        per_rank = np.array([len(str(rank)) + len("   \n") for rank in ranks])
        return _range_sums(per_record, bounds) + np.diff(bounds) * per_rank

    def mpi(
        self,
        bounds: np.ndarray,
        ops: np.ndarray,
        present: np.ndarray,
        values: np.ndarray,
        nbytes: np.ndarray,
        comms: np.ndarray,
    ) -> np.ndarray:
        """Bytes of the MPI suffixes of each rank's records that carry MPI parameters.

        ``present`` and ``values`` have one column per label of
        ``_MPI_LABELS``: whether the attribute is set, and its value.
        """
        comm_written = self._comm_written[comms]
        per_row = (
            1
            + self._string_bytes[ops]
            # A row sum; ``sum(axis=1)`` is five times slower over four columns.
            + np.einsum("ij->i", present * (_MPI_LABEL_BYTES + _int_text_bytes(values)))
            + (nbytes != 0) * (len(" bytes=") + _int_text_bytes(nbytes))
            + comm_written * (len(" comm=") + self._string_bytes[comms])
        )
        return _range_sums(per_row, bounds)


def parse_record(line: str) -> TraceRecord:
    """Parse a line produced by :func:`format_record`.

    Raises :class:`TextFormatError` for a line that is no valid record.
    """
    tokens = line.split()
    if len(tokens) < 4:
        raise TextFormatError(f"malformed trace record line: {line!r}")
    try:
        kind = RecordKind[tokens[0]]
        rank = int(tokens[1])
        timestamp = float(tokens[2])
        name = tokens[3]
        mpi = _parse_mpi(tokens[4:]) if len(tokens) > 4 else None
        return TraceRecord(kind=kind, rank=rank, timestamp=timestamp, name=name, mpi=mpi)
    except KeyError as error:
        raise TextFormatError(f"unknown record kind in line {line!r}") from error
    except ValueError as error:
        raise TextFormatError(f"{error} (line {line!r})") from error


def serialize_records(records: Iterable[TraceRecord]) -> bytes:
    """Serialize a record stream to bytes (one line per record)."""
    buf = _io.StringIO()
    for record in records:
        buf.write(format_record(record))
        buf.write("\n")
    return buf.getvalue().encode("utf-8")


def serialize_segment(segment: Segment, segment_id: int | None = None) -> bytes:
    """Serialize one stored segment (header + one line per event).

    Timestamps are expected to be segment-relative (the reducer normalises
    them); absolute segments serialize fine too, the size is what matters.
    """
    sid = segment.index if segment_id is None else segment_id
    return _segment_text(segment, sid).encode("utf-8")


def _segment_text(segment: Segment, sid: int) -> str:
    lines = [
        f"SEG {sid} {segment.context} {_TS_FMT.format(segment.end - segment.start)}"
    ]
    for event in segment.events:
        lines.append(
            f"EV {event.name} {_TS_FMT.format(event.start)} {_TS_FMT.format(event.end)}"
            f"{_format_mpi(event.mpi)}"
        )
    return "\n".join(lines) + "\n"


def serialize_exec_entry(segment_id: int, start: float) -> bytes:
    """Serialize one segment-execution entry of the ``segmentExecs`` list."""
    return f"EXEC {segment_id} {_TS_FMT.format(start)}\n".encode("utf-8")


def segmented_trace_size_bytes(trace: SegmentedTrace) -> int:
    """Size in bytes of a segmented full trace, serialized as records.

    A segmented trace serializes to the same information as the raw trace it
    came from (segment markers + event enter/exit), so this is the "full
    trace" baseline when only the segmented form is available (e.g. for a
    reconstructed trace).
    """
    total = 0
    for rank_trace in trace.ranks:
        for segment in rank_trace.segments:
            total += len(serialize_segment_as_records(segment))
    return total


def serialize_segment_as_records(segment: Segment) -> bytes:
    """Serialize one segment in the full-trace (record per line) format."""
    lines = [
        f"{RecordKind.SEGMENT_BEGIN.name} {segment.rank} "
        f"{_TS_FMT.format(segment.start)} {segment.context}"
    ]
    for event in segment.events:
        lines.append(
            f"{RecordKind.ENTER.name} {segment.rank} {_TS_FMT.format(event.start)} "
            f"{event.name}{_format_mpi(event.mpi)}"
        )
        lines.append(
            f"{RecordKind.EXIT.name} {segment.rank} {_TS_FMT.format(event.end)} {event.name}"
        )
    lines.append(
        f"{RecordKind.SEGMENT_END.name} {segment.rank} "
        f"{_TS_FMT.format(segment.end)} {segment.context}"
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_trace(trace: Trace, path: str | Path, format: str | None = None) -> None:
    """Write a raw trace to ``path`` in the format implied by its extension.

    ``format`` forces a registered format by name (``"text"`` or ``"rpb"``)
    regardless of extension; see :mod:`repro.trace.formats`.
    """
    from repro.trace.formats import resolve_format  # deferred: formats imports us

    resolve_format(path, format).write(trace, Path(path))


def text_trace_bytes(path: str | Path) -> int:
    """Text size of a text trace: the file is its own text serialization."""
    return Path(path).stat().st_size


def write_trace_text(trace: Trace, path: str | Path) -> None:
    """Write a raw trace as text (one file, ranks concatenated in order)."""
    with atomic_output(path) as handle:
        for rank_trace in trace.ranks:
            handle.write(serialize_records(rank_trace.records))


class TextTraceWriter:
    """Incremental text-trace writer: one rank's record run at a time.

    The text format has no index, so runs appear in write order and each rank
    may be written only once (matching what the forward-pass reader accepts).
    The file is an :func:`atomic_output`: it appears under ``path`` on a clean
    :meth:`close`, so ``path`` may be the file the records are being read
    from, and a writer that fails leaves what ``path`` held.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._output = ExitStack()
        self._handle = self._output.enter_context(atomic_output(self._path))
        self._seen: set[int] = set()

    def write_rank(self, rank: int, records: Iterable[TraceRecord]) -> int:
        """Append one rank's records; returns the record count."""
        if self._handle is None:
            raise ValueError("writer is closed")
        if rank in self._seen:
            raise ValueError(f"rank {rank} was already written to {self._path}")
        self._seen.add(rank)
        count = 0
        for record in records:
            if record.rank != rank:
                raise ValueError(
                    f"record for rank {record.rank} in rank-{rank} run of {self._path}"
                )
            self._handle.write((format_record(record) + "\n").encode("utf-8"))
            count += 1
        return count

    def close(self) -> None:
        self.__exit__(None, None, None)

    def __enter__(self) -> "TextTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._handle = None
        self._output.__exit__(exc_type, exc, tb)


def iter_trace_records(path: str | Path) -> Iterator[TraceRecord]:
    """Lazily parse a trace file record by record.

    The streaming counterpart of :func:`read_trace`: the file is read line by
    line, so memory stays bounded no matter how large the trace is.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            yield parse_record(line)


def iter_rank_record_streams_text(
    path: str | Path,
) -> Iterator[tuple[int, Iterator[TraceRecord]]]:
    """Text-format rank streams (one forward pass over the file).

    :func:`write_trace_text` concatenates ranks, so each rank's records form
    one contiguous run; this reader exposes each run as its own iterator
    without materializing it.  Like :func:`itertools.groupby`, each rank's
    iterator must be consumed before advancing to the next pair.  A rank
    appearing in two separate runs means the file was not produced by
    :func:`write_trace_text` and is rejected.
    """
    seen: set[int] = set()
    for rank, records in itertools.groupby(iter_trace_records(path), key=lambda r: r.rank):
        if rank in seen:
            raise _interleaved(rank)
        seen.add(rank)
        yield rank, records


def _interleaved(rank: int) -> TextFormatError:
    return TextFormatError(
        f"interleaves rank {rank}; per-rank records must be contiguous for streaming ingestion"
    )


_KIND_BY_NAME = {kind.name: kind for kind in RecordKind}


def iter_rank_columns_text(path: str | Path) -> Iterator[tuple[int, RecordColumns]]:
    """Text-format ranks as record columns, one rank's run of lines at a time.

    The columnar twin of :func:`iter_rank_record_streams_text`, as forward and
    bounded by one rank: names are interned, each distinct MPI suffix is
    parsed once, and every row is checked as a :class:`TraceRecord` is.  A
    line it does not take goes to :func:`parse_record` once the rank's
    earlier records went through the segmenter, so every error is the record
    route's, in its order.
    """
    interned: dict[str, str] = {}
    suffixes: dict[str, MpiCallInfo] = {}
    seen: set[int] = set()
    columns = rank_text = None
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            tokens = line.split(None, 4)
            if not tokens:
                continue
            try:
                kind = _KIND_BY_NAME[tokens[0]]
                if tokens[1] != rank_text:
                    rank, rank_text = int(tokens[1]), tokens[1]
                timestamp, name, mpi = float(tokens[2]), tokens[3], None
                if len(tokens) > 4 and (mpi := suffixes.get(tokens[4])) is None:
                    mpi = suffixes[tokens[4]] = _parse_mpi(tokens[4].split())
                check_record(kind, timestamp, name, mpi)
            except (IndexError, KeyError, ValueError):
                segmenter = RecordSegmenter()  # the record route segments as it parses
                for record in columns or ():
                    segmenter.push(record)
                parse_record(line.strip())  # raises: it refuses what the columns refuse
                raise
            if columns is None or rank != columns.rank:
                if columns is not None:
                    yield columns.rank, columns
                if rank in seen:
                    raise _interleaved(rank)
                seen.add(rank)
                columns = RecordColumns(rank)
            if mpi is not None:
                columns.mpi[len(columns.kinds)] = mpi
            columns.kinds.append(kind)
            columns.times.append(timestamp)
            columns.names.append(interned.setdefault(name, name))
    if columns is not None:
        yield columns.rank, columns


#: ``str.format`` templates of stored segments by structural key: all of
#: :func:`serialize_segment`'s text but the id and the timestamps, so a name
#: is validated and an MPI suffix formatted once per structure, not once per
#: event.  A pure memo shared by the ranks, configs and runs of a process;
#: cleared when full, so a long-lived service cannot grow it.
_SEGMENT_TEMPLATES: dict = {}
_SEGMENT_TEMPLATES_CAP = 1 << 12
_LITERAL_BRACES = str.maketrans({"{": "{{", "}": "}}"})


def _segment_template(key) -> str:
    """The template of the segments whose ``structure()`` is ``key.value``."""
    template = _SEGMENT_TEMPLATES.get(key)
    if template is None:
        context, events = key.value
        validate_name(context, "segment context")
        lines = [f"SEG {{}} {context.translate(_LITERAL_BRACES)} {{:.2f}}\n"]
        for name, mpi in events:
            validate_name(name, "event name")
            suffix = _format_mpi(None if mpi is None else MpiCallInfo(*mpi))
            name, suffix = name.translate(_LITERAL_BRACES), suffix.translate(_LITERAL_BRACES)
            lines.append(f"EV {name} {{:.2f}} {{:.2f}}{suffix}\n")
        if len(_SEGMENT_TEMPLATES) >= _SEGMENT_TEMPLATES_CAP:
            _SEGMENT_TEMPLATES.clear()
        template = _SEGMENT_TEMPLATES[key] = "".join(lines)
    return template


def _text_columns(frame: "RankFrame"):
    """What writes ``frame``'s rows as ``SEG`` blocks with no object built.

    ``(keys, pairs, ends, bounds)``: the structural keys and, as Python
    scalars for ``format``, the interleaved relative event timestamps, the
    relative ends and each row's bounds in ``pairs``.  Row ``row`` under the
    id ``sid`` is one template per structure (:func:`_segment_template`) and
    one ``format`` call over a slice::

        template.format(sid, ends[row], *pairs[bounds[row] : bounds[row + 1]])

    Transient: nothing is kept on the frame.
    """
    rel_ev_starts, rel_ev_ends, rel_ends = frame.relative_columns()
    pairs = np.empty(2 * len(rel_ev_starts))
    pairs[0::2], pairs[1::2] = rel_ev_starts, rel_ev_ends
    bounds = (2 * frame.ev_offsets).tolist()
    return frame.structural_keys(), pairs.tolist(), rel_ends.tolist(), bounds


def _stored_texts(pieces) -> Iterator[str]:
    """The ``SEG`` block of each representative: :func:`serialize_segment`'s text.

    ``pieces`` are :meth:`~repro.core.reduced.ReducedRankTrace.pieces`'
    ``(frame, rows, ids)`` runs; each is written from its frame's columns
    (:func:`_text_columns`).
    """
    for frame, rows, ids in pieces:
        keys, pairs, ends, bounds = _text_columns(frame)
        for row, sid in zip(rows.tolist(), ids):
            timestamps = pairs[bounds[row] : bounds[row + 1]]
            yield _segment_template(keys[row]).format(sid, ends[row], *timestamps)


#: Powers of ten from 10 up: ``searchsorted`` of a non-negative id in them is
#: its decimal digits less one.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _digits(ids) -> int:
    """Decimal digits of the non-negative integers ``ids``, summed."""
    ids = np.asarray(ids, dtype=np.int64)
    return len(ids) + int(np.searchsorted(_POWERS_OF_TEN, ids, side="right").sum())


class ReducedSizer:
    """:meth:`~repro.core.reduced.ReducedTrace.size_bytes` of reduced traces
    of one input, each shared text measured once.

    For a grid of reductions of one input (a sweep's configs) the same texts
    recur from trace to trace: what differs is only which rows are
    representatives and which ids they take.  So a sizer keeps what it has
    measured, and each trace it sizes adds only its ids:

    * each distinct sequence of a rank's exec start times (every config of
      a sweep has the same one) is formatted once;
    * each representative's ``SEG`` block is measured once per source
      ``(frame, row)`` of its chunk, with an empty id — the configs of a
      sweep book rows of the same frames;
    * each trace's ids add their decimal digits, counted in bulk.

    The sum is the length of :func:`iter_reduced_rank_chunks`' bytes, which
    stay the definition (and :meth:`size_bytes` the reference).  A sizer
    keeps one length per row of each frame it met, and the frame.
    """

    __slots__ = ("_start_bytes", "_row_bytes")

    def __init__(self) -> None:
        self._start_bytes: dict = {}  # a rank's start times -> bytes of their texts
        # frame id -> (frame, each row's SEG bytes with an empty id, or -1)
        self._row_bytes: dict = {}

    def size(self, trace: "ReducedTrace") -> int:
        """The serialized size of ``trace``, in bytes."""
        return sum(self._stored_bytes(rank) + self._exec_bytes(rank) for rank in trace.ranks)

    def _stored_bytes(self, rank: "ReducedRankTrace") -> int:
        size = 0
        for frame, rows in rank.chunks:
            if id(frame) not in self._row_bytes:
                self._row_bytes[id(frame)] = (frame, np.full(frame.n_segments, -1, dtype=np.int64))
            lengths = self._row_bytes[id(frame)][1]
            missing = rows[lengths[rows] < 0].tolist()
            if missing:
                # Built for the rows to measure, and dropped: a frame's text
                # columns as Python floats outweigh its lengths many times.
                keys, pairs, ends, bounds = _text_columns(frame)
                lengths[missing] = [
                    len(
                        _segment_template(keys[row])
                        .format("", ends[row], *pairs[bounds[row] : bounds[row + 1]])
                        .encode("utf-8")
                    )
                    for row in missing
                ]
            size += int(lengths[rows].sum())
        return size + _digits(np.arange(rank.n_stored))

    def _exec_bytes(self, rank: "ReducedRankTrace") -> int:
        ids, starts, _ = rank.exec_columns()
        if not len(ids):
            return 0
        key = starts.tobytes()
        measured = self._start_bytes.get(key)
        if measured is None:
            measured = self._start_bytes[key] = sum(map(len, map(_TS_FMT.format, starts.tolist())))
        # "EXEC ", the id, " ", the start, "\n"
        return 7 * len(ids) + _digits(ids) + measured


def iter_reduced_rank_chunks(reduced_rank: "ReducedRankTrace") -> Iterator[bytes]:
    """Serialize one reduced rank: its stored segments, then its execution entries.

    The single definition of a reduced rank's bytes — what
    :func:`serialize_segment` gives each representative (:func:`_stored_texts`,
    from the rows of its chunk) and :func:`serialize_exec_entry` each
    execution, in order.  Two chunks at most, so a writer holds one rank's
    text; their lengths are :meth:`ReducedRankTrace.size_bytes`.
    """
    if reduced_rank.n_stored:
        yield "".join(_stored_texts(reduced_rank.pieces())).encode("utf-8")
    ids, starts, _ = reduced_rank.exec_columns()
    if len(ids):
        lines = map("EXEC {} {:.2f}\n".format, ids.tolist(), starts.tolist())
        yield "".join(lines).encode("utf-8")


def serialize_reduced_trace(reduced: "ReducedTrace") -> bytes:
    """Canonical serialization of a whole reduced trace (ranks in order).

    Used by the pipeline's equivalence checks: two reductions are considered
    identical iff these bytes are identical.
    """
    return b"".join(
        chunk for rank in reduced.ranks for chunk in iter_reduced_rank_chunks(rank)
    )


@contextmanager
def atomic_output(path: str | Path) -> Iterator[BinaryIO]:
    """Open a binary file that appears under ``path`` whole or not at all.

    The handle writes to a temporary file beside ``path`` that is renamed
    over it when the block ends; if the block raises, the temporary file is
    removed and whatever ``path`` held before is untouched.  A target that
    exists and is no regular file (a device, a pipe) has nothing to keep
    intact and must not be replaced, so it is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with path.open("wb") as handle:
            yield handle
        return
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_reduced_trace(reduced: "ReducedTrace", path: str | Path) -> int:
    """Write a reduced trace to ``path`` incrementally; returns bytes written.

    The streaming counterpart of building :func:`serialize_reduced_trace` in
    memory: chunks go straight to the file handle, a rank's stored segments
    or its execution entries at a time.  The file is an :func:`atomic_output`.
    """
    from repro import obs

    written = 0
    with obs.span("reduced.write", path=str(path)):
        with atomic_output(path) as handle:
            for rank in reduced.ranks:
                for chunk in iter_reduced_rank_chunks(rank):
                    handle.write(chunk)
                    written += len(chunk)
    return written


def iter_delta_chunks(delta: "ReductionDelta") -> Iterator[bytes]:
    """Serialize one reduced-trace delta as a stream of small byte chunks.

    The delta log is the text reduced-trace format plus framing: a ``DELTA``
    header per flush, a ``RANK`` header per changed rank, then the rank's new
    representatives as ``SEG`` blocks, updated representatives as ``UPD``
    lines (carrying the advanced execution count) each followed by the
    representative's current ``SEG`` block — under ``iter_avg`` the stored
    timestamps move on every match, so consumers must replace the whole
    segment — and finally the window's ``EXEC`` entries.  Concatenating the
    ``SEG``/``EXEC`` payloads of all deltas of a session, dropping
    superseded ``UPD`` segment states, reconstructs the batch reduced trace.
    Each ``SEG`` block is written as the reduced trace writes it
    (:func:`_stored_texts`), from the rows of the session's reduced rank.
    """
    threshold = "-" if delta.threshold is None else _TS_FMT.format(delta.threshold)
    yield (
        f"DELTA {delta.seq} {delta.name} {delta.method} {threshold} "
        f"{len(delta.ranks)}\n"
    ).encode("utf-8")
    for rank_delta in delta.ranks:
        reduced, updated = rank_delta.reduced, rank_delta.updated
        yield (
            f"RANK {rank_delta.rank} new={len(rank_delta.new)} "
            f"updated={len(updated)} execs={len(rank_delta.exec_ids)}\n"
        ).encode("utf-8")
        for text in _stored_texts(reduced.pieces(rank_delta.new)):
            yield text.encode("utf-8")
        texts = _stored_texts(reduced.pieces(updated))
        for sid, count, text in zip(updated.tolist(), rank_delta.counts.tolist(), texts):
            yield f"UPD {sid} count={count}\n{text}".encode("utf-8")
        for segment_id, start in zip(rank_delta.exec_ids.tolist(), rank_delta.exec_starts.tolist()):
            yield serialize_exec_entry(segment_id, start)


def serialize_delta(delta: "ReductionDelta") -> bytes:
    """Serialize one delta to bytes (the concatenation of its chunks)."""
    return b"".join(iter_delta_chunks(delta))


class DeltaWriter:
    """Appendable reduced-trace delta log.

    One writer per session output file; each :meth:`write` appends one
    flush's delta.  Empty deltas are skipped (a flush with no changes writes
    nothing), so the log is exactly the session's non-empty flush history.
    Usable as a context manager.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("wb")
        self.deltas_written = 0
        self.bytes_written = 0

    def write(self, delta: "ReductionDelta") -> int:
        """Append one delta; returns bytes written (0 for an empty delta)."""
        if delta.empty:
            return 0
        written = 0
        for chunk in iter_delta_chunks(delta):
            self._handle.write(chunk)
            written += len(chunk)
        self.deltas_written += 1
        self.bytes_written += written
        return written

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "DeltaWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str | Path, name: str | None = None, format: str | None = None) -> Trace:
    """Read a trace file in the format implied by its extension.

    ``format`` forces a registered format by name; see
    :mod:`repro.trace.formats`.
    """
    from repro import obs
    from repro.trace.formats import resolve_format  # deferred: formats imports us

    with obs.span("trace.read", path=str(path)):
        return resolve_format(path, format).read(Path(path), name)


def read_trace_text(path: str | Path, name: str | None = None) -> Trace:
    """Read a text trace written by :func:`write_trace_text`.

    Ranks are reconstructed from the per-record rank field; ranks must be a
    contiguous range starting at zero.
    """
    path = Path(path)
    per_rank: dict[int, list[TraceRecord]] = {}
    for record in iter_trace_records(path):
        per_rank.setdefault(record.rank, []).append(record)
    nprocs = max(per_rank, default=-1) + 1
    missing = [r for r in range(nprocs) if r not in per_rank]
    if missing:
        raise TextFormatError(f"trace file {path} is missing ranks {missing}")
    ranks = [RankTrace(rank=r, records=per_rank[r]) for r in range(nprocs)]
    return Trace(name=name or path.stem, ranks=ranks)
