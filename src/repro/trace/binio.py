"""Columnar binary trace format (``.rpb``) with a per-rank byte-range index.

The text format in :mod:`repro.trace.io` is the compatibility baseline: one
whitespace-delimited line per record, parsed in Python, strictly forward.  At
scale that parse dominates file-backed reduction runs, so this module stores
the same records as NumPy column arrays:

* one **rank block** per rank, containing the record columns
  (kind ``uint8``, timestamp ``float64``, name id ``uint32``) plus the packed
  MPI columns (positions, op ids, field-presence mask, root/peer/source/tag
  values, byte counts, communicator ids) — only records that carry MPI info
  occupy MPI rows;
* one global **string table** (record names, MPI ops, communicator names),
  so names are stored once and records reference them by id;
* a **footer index** mapping each rank to the byte range of its block, so a
  reader can decode any single rank without touching the rest of the file.

File layout::

    [magic "RPB1"] [rank block 0] ... [rank block N-1] [footer JSON]
    [footer offset: uint64 LE] [tail magic "RPBX"]

Each rank block is a fixed sequence of nine ``.npy`` arrays (what
:func:`numpy.save` writes, no pickling), so the format is self-describing at
the array level.  Readers fetch a **run** of blocks (ranks end to end in the
file, :data:`RUN_BYTES` of them: a long rank alone, short ranks together) with
one ``read`` and walk each block's ``.npy`` members in place
(:func:`_block_arrays`); whatever is wrong with a block —
bad member magic, unsupported ``.npy`` version, unparsable or object-dtype
header, a shape that claims more bytes than the block holds, trailing bytes,
a column of the wrong type or length, a string id or kind code out of range —
surfaces as :class:`RpbFormatError` naming the rank: a run that does not
decode whole is decoded again rank by rank (:func:`_whole_or_by_rank`).  The
decoded columns of a run of one are read-only views of the block's bytes.

Timestamps are ``float64`` end to end: unlike the text format, which
quantizes to two decimals on write, a binary write→read round-trip is exact.

Two decoders are provided: per rank, :func:`iter_rank_records` materializes
:class:`~repro.trace.records.TraceRecord` objects (exactness, conversion, and
the byte-identity oracle's input, :func:`iter_rank_segments`); per run,
:func:`rank_frames` — the pipeline's path — builds no record or segment object
at all, and pays what costs a fixed amount per call (the ``read``, the marker
split, the MPI table, the keys and vectors of the frame) once for all the
ranks of the run.  :func:`trace_frames` takes the records of a raw in-memory
trace or a text file the same way, without the bytes: the writer's encoder
lays each rank out as the arrays of its block, and the frame decoder turns
those into the frame the written file decodes to.
"""

from __future__ import annotations

import io
import json
import math
import struct
import tokenize
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.frames import RankFrame
from repro.trace.events import MpiCallInfo
from repro.trace.io import ColumnTextSizer, atomic_output
from repro.trace.records import RecordColumns, RecordKind, TraceRecord
from repro.trace.segments import Segment, iter_segments, segment_rank_records
from repro.trace.trace import RankTrace, Trace
from repro.util.cut import cut_by_bytes

__all__ = [
    "RPB_SUFFIX",
    "RpbFormatError",
    "RpbRankEntry",
    "RpbIndex",
    "RpbTraceWriter",
    "read_index",
    "rank_ids",
    "rank_bytes",
    "RUN_BYTES",
    "rank_runs",
    "rank_frames",
    "rank_frame",
    "trace_frames",
    "iter_rank_records",
    "iter_rank_segments",
    "iter_rank_record_streams_rpb",
    "read_trace_rpb",
    "write_trace_rpb",
    "text_bytes",
]

RPB_SUFFIX = ".rpb"

_MAGIC = b"RPB1"
_TAIL_MAGIC = b"RPBX"
_TAIL = struct.Struct("<Q4s")  # footer offset + tail magic
_VERSION = 1

#: Bit assignments of the MPI field-presence mask; the value columns of
#: ``mpi_vals`` are in the same order.
_HAS_ROOT, _HAS_PEER, _HAS_SOURCE, _HAS_TAG = 1, 2, 4, 8
_FIELD_BITS = np.array([_HAS_ROOT, _HAS_PEER, _HAS_SOURCE, _HAS_TAG], dtype=np.uint8)

#: RecordKind by integer value (values are 0..3 in definition order).
_KIND_BY_VALUE = tuple(RecordKind)

_KIND_SEGMENT_BEGIN = int(RecordKind.SEGMENT_BEGIN)
_KIND_SEGMENT_END = int(RecordKind.SEGMENT_END)
_KIND_ENTER = int(RecordKind.ENTER)
_KIND_EXIT = int(RecordKind.EXIT)


class RpbFormatError(ValueError):
    """Raised when a file is not a valid ``.rpb`` trace.

    The message says what is wrong (``rank 3 block holds an invalid trace:
    …``), not which file: as with the text reader's
    :class:`~repro.trace.io.TextFormatError`, the caller that opened the file
    names it (``repro-trace`` prints ``FILE: message``).
    """


@dataclass(frozen=True, slots=True)
class RpbRankEntry:
    """One rank's entry in the footer index."""

    rank: int
    offset: int
    length: int
    n_records: int


@dataclass(frozen=True)  # no slots: entry_for caches its lookup table in __dict__
class RpbIndex:
    """Decoded footer: per-rank byte ranges plus the string table."""

    version: int
    entries: tuple[RpbRankEntry, ...]
    strings: tuple[str, ...]

    @property
    def ranks(self) -> list[int]:
        return [entry.rank for entry in self.entries]

    @property
    def n_records(self) -> int:
        return sum(entry.n_records for entry in self.entries)

    @cached_property
    def _entries_by_rank(self) -> dict[int, RpbRankEntry]:
        return {entry.rank: entry for entry in self.entries}

    @cached_property
    def sizer(self) -> ColumnTextSizer:
        """Text-format byte costs over this file's string table."""
        return ColumnTextSizer(self.strings)

    def entry_for(self, rank: int) -> RpbRankEntry:
        try:
            return self._entries_by_rank[rank]
        except KeyError:
            raise KeyError(
                f"rank {rank} not present in trace index (ranks: {self.ranks})"
            ) from None


class _StringTable:
    """Intern strings to dense ids while writing."""

    def __init__(self) -> None:
        self.strings: list[str] = []
        self.ids: dict[str, int] = {}

    def add_in_record_order(self, names: list[str], at: list[int], mpi: list[MpiCallInfo]) -> None:
        """Intern the strings of one rank's columns that the table lacks.

        They get their ids in the order a record-by-record walk meets them (a
        record's name, then its MPI op, then its communicator), so the table,
        and the file, do not depend on how the columns are walked.
        """
        first: dict[str, tuple[int, int]] = {}
        for slot, values, positions in (
            (0, names, range(len(names))),
            (1, [info.op for info in mpi], at),
            (2, [info.comm for info in mpi], at),
        ):
            new = set(values).difference(self.ids)
            if not new:
                continue
            # value -> its first row: of the pairs zipped last to first, the first row's wins
            first_row = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
            for value in new:
                row = first_row[value]
                met = (positions[row], slot)
                first[value] = min(first.get(value, met), met)
        for value in sorted(first, key=first.__getitem__):
            self.ids[value] = len(self.strings)
            self.strings.append(value)


def _as_columns(
    rank: int, records: Iterable[TraceRecord]
) -> tuple[RecordColumns, Optional[int]]:
    """``records`` as columns, and the rank of the first of them not of ``rank`` (or ``None``).

    A :class:`~repro.trace.records.RecordColumns` is taken as it is; any
    other iterable is appended into one.
    """
    if isinstance(records, RecordColumns):
        return records, None if records.rank == rank else records.rank
    columns, stray = RecordColumns(rank), None
    for record in records:
        if stray is None and record.rank != rank:
            stray = record.rank
        columns.append(record.kind, record.timestamp, record.name, record.mpi)
    return columns, stray


def _encode(columns: RecordColumns, strings: _StringTable) -> list[np.ndarray]:
    """One rank's records as the nine arrays of a rank block (:data:`_MEMBERS`).

    The strings the rank's records name are interned into ``strings``, the
    trace's one table, first.
    """
    at = list(columns.mpi)
    mpi = list(columns.mpi.values())
    strings.add_in_record_order(columns.names, at, mpi)
    string_ids = strings.ids
    rows_by_info: dict[int, tuple[int, ...]] = {}  # id() is safe: ``mpi`` holds each info
    rows = []
    for info in mpi:
        row = rows_by_info.get(id(info))
        if row is None:
            row = rows_by_info[id(info)] = _mpi_row(info, string_ids)
        rows.append(row)
    table = np.array(rows, dtype=np.int64).reshape(len(rows), 8)
    values = (
        np.fromiter(columns.kinds, dtype=np.uint8, count=len(columns)),
        columns.times,
        [string_ids[name] for name in columns.names],
        at,
        table[:, 0],
        table[:, 1],
        np.ascontiguousarray(table[:, 2:6]),
        table[:, 6],
        table[:, 7],
    )
    return [np.asarray(column, dtype=dtype) for column, (_, dtype, _) in zip(values, _MEMBERS)]


def _mpi_row(info: MpiCallInfo, string_ids: dict[str, int]) -> tuple[int, ...]:
    """One MPI row: op id, field mask, root/peer/source/tag values, bytes, communicator id."""
    fields = (info.root, info.peer, info.source, info.tag)
    bits = (_HAS_ROOT, _HAS_PEER, _HAS_SOURCE, _HAS_TAG)
    mask = sum(bit for bit, value in zip(bits, fields) if value is not None)
    values = tuple(value or 0 for value in fields)
    return (string_ids[info.op], mask, *values, info.nbytes, string_ids[info.comm])


class RpbTraceWriter:
    """Incremental ``.rpb`` writer: one rank block at a time, footer on close.

    Ranks may be written in any order but each rank only once; memory is
    bounded by the largest single rank (its columns, and its block, which is
    assembled in memory and written with one ``write``).  The file is an
    :func:`~repro.trace.io.atomic_output`: it appears under ``path`` once the
    footer is written, so ``path`` may be the file the records are being read
    from, and a writer that fails leaves what ``path`` held.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._output = ExitStack()
        self._handle: Optional[BinaryIO] = self._output.enter_context(
            atomic_output(self._path)
        )
        self._handle.write(_MAGIC)
        self._entries: list[RpbRankEntry] = []
        self._ranks: set[int] = set()
        self._strings = _StringTable()

    def write_rank(self, rank: int, records: Iterable[TraceRecord]) -> int:
        """Encode one rank's records as a column block; returns the record count.

        A :class:`~repro.trace.records.RecordColumns` is encoded whole; any
        other iterable is appended into one first.
        """
        if self._handle is None:
            raise ValueError("writer is closed")
        if rank in self._ranks:
            raise ValueError(f"rank {rank} was already written to {self._path}")
        columns, stray = _as_columns(rank, records)
        if stray is not None:
            raise ValueError(f"record for rank {stray} in rank-{rank} block of {self._path}")
        block = []
        for array in _encode(columns, self._strings):
            block += (_npy_header_bytes(array.dtype, array.shape), array.tobytes())
        offset = self._handle.tell()
        self._handle.write(b"".join(block))
        n_records = len(columns)
        self._entries.append(
            RpbRankEntry(
                rank=rank, offset=offset, length=self._handle.tell() - offset, n_records=n_records
            )
        )
        self._ranks.add(rank)
        return n_records

    def close(self) -> None:
        """Write the footer index and seal the file."""
        if self._handle is None:
            return
        footer_offset = self._handle.tell()
        footer = {
            "version": _VERSION,
            "ranks": [
                [entry.rank, entry.offset, entry.length, entry.n_records]
                for entry in self._entries
            ],
            "strings": self._strings.strings,
        }
        handle, self._handle = self._handle, None
        with self._output:
            handle.write(json.dumps(footer, separators=(",", ":")).encode("utf-8"))
            handle.write(_TAIL.pack(footer_offset, _TAIL_MAGIC))

    def __enter__(self) -> "RpbTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._handle = None
            self._output.__exit__(exc_type, exc, tb)


def write_trace_rpb(trace: Trace, path: str | Path) -> None:
    """Write a raw trace to ``path`` in the columnar binary format."""
    with RpbTraceWriter(path) as writer:
        for rank_trace in trace.ranks:
            writer.write_rank(rank_trace.rank, rank_trace.records)


def read_index(path: str | Path) -> RpbIndex:
    """Read only the footer index of an ``.rpb`` file (magic, ranges, strings).

    Parsed footers are cached per stat identity: random-access decoders hit
    the index once per rank, and re-parsing the footer JSON (which holds the
    whole string table) would otherwise rival the column decode it indexes.
    The cache key is ``(path, mtime_ns, ctime_ns, size, inode)`` — mtime at
    nanosecond resolution alone cannot be trusted (a same-second rewrite on a
    coarse-timestamp filesystem, or a deliberate ``os.utime``, reproduces
    it), so the key also pins the inode (an atomic ``os.replace`` swaps in a
    new one) and the change time (an in-place rewrite bumps it and user code
    cannot forge it back).  Any rewrite therefore misses the cache instead of
    serving a stale index.
    """
    path = Path(path)
    stat = path.stat()
    return _read_index_cached(
        str(path), stat.st_mtime_ns, stat.st_ctime_ns, stat.st_size, stat.st_ino
    )


@lru_cache(maxsize=64)
def _read_index_cached(
    path_str: str, mtime_ns: int, ctime_ns: int, size: int, inode: int
) -> RpbIndex:
    return _read_index(Path(path_str))


def _read_index(path: Path) -> RpbIndex:
    with path.open("rb") as handle:
        if handle.read(len(_MAGIC)) != _MAGIC:
            raise RpbFormatError("not an .rpb trace (bad magic)")
        handle.seek(0, 2)
        size = handle.tell()
        if size < len(_MAGIC) + _TAIL.size:
            raise RpbFormatError("truncated (no footer)")
        handle.seek(size - _TAIL.size)
        footer_offset, tail_magic = _TAIL.unpack(handle.read(_TAIL.size))
        if tail_magic != _TAIL_MAGIC:
            raise RpbFormatError("truncated or corrupt (bad tail magic)")
        if not len(_MAGIC) <= footer_offset <= size - _TAIL.size:
            raise RpbFormatError("out-of-range footer offset")
        handle.seek(footer_offset)
        try:
            footer = json.loads(handle.read(size - _TAIL.size - footer_offset))
        except ValueError as error:
            raise RpbFormatError(f"corrupt footer: {error}") from error
    try:
        return _index_from_footer(footer)
    except RpbFormatError as error:
        raise RpbFormatError(f"corrupt footer: {error}") from error


def _index_from_footer(footer) -> RpbIndex:
    """Check the parsed footer's shape: damaged JSON is often still JSON."""
    if not isinstance(footer, dict) or set(footer) != {"version", "ranks", "strings"}:
        raise RpbFormatError("not an object with exactly version, ranks and strings")
    version, ranks, strings = footer["version"], footer["ranks"], footer["strings"]
    if version != _VERSION:
        raise RpbFormatError(f"unsupported format version {version!r}")
    if not isinstance(ranks, list) or not all(
        isinstance(row, list) and len(row) == 4 and all(type(v) is int for v in row)
        for row in ranks
    ):
        raise RpbFormatError("ranks is not a list of [rank, offset, length, n_records] integers")
    if len({row[0] for row in ranks}) != len(ranks):
        raise RpbFormatError("a rank is listed twice")
    if not isinstance(strings, list) or not all(isinstance(value, str) for value in strings):
        raise RpbFormatError("strings is not a list of strings")
    entries = tuple(RpbRankEntry(rank=r, offset=o, length=l, n_records=n) for r, o, l, n in ranks)
    return RpbIndex(version=version, entries=entries, strings=tuple(strings))


def rank_ids(path: str | Path) -> list[int]:
    """Ranks present in the file, in block (write) order."""
    return read_index(path).ranks


def rank_bytes(path: str | Path) -> list[int]:
    """Byte length of each rank's block, in :func:`rank_ids` order (footer only)."""
    return [entry.length for entry in read_index(path).entries]


@dataclass(slots=True)
class _RankColumns:
    """The columns of a run of ranks' blocks, each column the ranks' rows end to end.

    ``record_bounds`` and ``mpi_bounds`` are the prefix arrays that cut the
    record and MPI columns by rank; ``mpi_pos`` counts from the run's start.
    """

    ranks: Sequence[int]
    record_bounds: np.ndarray
    mpi_bounds: np.ndarray
    kind: np.ndarray
    time: np.ndarray
    name: np.ndarray
    mpi_pos: np.ndarray
    mpi_op: np.ndarray
    mpi_mask: np.ndarray
    mpi_vals: np.ndarray
    mpi_nbytes: np.ndarray
    mpi_comm: np.ndarray
    strings: tuple[str, ...]

    @property
    def rank(self) -> int:
        return self.ranks[0]

    def mpi_tables(self) -> tuple[tuple[MpiCallInfo, ...], np.ndarray]:
        """Deduplicated MPI table plus each MPI row's id into it.

        Distinct parameter combinations are constructed once and shared
        (``MpiCallInfo`` is frozen, so sharing is safe): real traces repeat a
        handful of call shapes millions of times, and the dataclass
        construction, not the array decode, is the expensive part.  Row ``i``
        is the MPI info of record ``mpi_pos[i]``.
        """
        strings = self.strings
        cache: dict[tuple, int] = {}
        table: list[MpiCallInfo] = []
        ops = self.mpi_op.tolist()
        masks = self.mpi_mask.tolist()
        vals = self.mpi_vals.tolist()
        nbytes = self.mpi_nbytes.tolist()
        comms = self.mpi_comm.tolist()
        row_ids = np.empty(len(ops), dtype=np.int64)
        for row in range(len(ops)):
            root, peer, source, tag = vals[row]
            key = (ops[row], masks[row], root, peer, source, tag, nbytes[row], comms[row])
            ident = cache.get(key)
            if ident is None:
                mask = masks[row]
                ident = cache[key] = len(table)
                table.append(
                    MpiCallInfo(
                        op=strings[ops[row]],
                        root=root if mask & _HAS_ROOT else None,
                        peer=peer if mask & _HAS_PEER else None,
                        source=source if mask & _HAS_SOURCE else None,
                        tag=tag if mask & _HAS_TAG else None,
                        nbytes=nbytes[row],
                        comm=strings[comms[row]],
                    )
                )
            row_ids[row] = ident
        return tuple(table), row_ids


_NPY_MAGIC = b"\x93NUMPY"
#: ``.npy`` format version -> (byte width of the header-length field, NumPy's header parser).
_NPY_VERSIONS = {
    (1, 0): (2, np.lib.format.read_array_header_1_0),
    (2, 0): (4, np.lib.format.read_array_header_2_0),
}

#: The nine members of a rank block, in file order: field, dtype, dimensions.
_MEMBERS = (
    ("kind", np.dtype(np.uint8), 1),
    ("time", np.dtype(np.float64), 1),
    ("name", np.dtype(np.uint32), 1),
    ("mpi_pos", np.dtype(np.int64), 1),
    ("mpi_op", np.dtype(np.uint32), 1),
    ("mpi_mask", np.dtype(np.uint8), 1),
    ("mpi_vals", np.dtype(np.int64), 2),
    ("mpi_nbytes", np.dtype(np.int64), 1),
    ("mpi_comm", np.dtype(np.uint32), 1),
)


@lru_cache(maxsize=256)
def _npy_header_bytes(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    """:func:`numpy.save`'s header for a C-ordered array, made by NumPy's own writer."""
    header, fields = io.BytesIO(), {"descr": dtype.str, "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(header, fields)
    return header.getvalue()


@lru_cache(maxsize=256)
def _npy_header(version: tuple[int, int], header: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """Parse one ``.npy`` header (length field included) with NumPy's own parser.

    A file holds a handful of distinct headers (one per column type and
    length) but nine per rank, so the parse is cached on the header bytes.
    """
    return _NPY_VERSIONS[version][1](io.BytesIO(header))


def _block_arrays(block: bytes | memoryview, n_members: int) -> list[np.ndarray]:
    """Walk the ``.npy`` members of one rank block, returning views of ``block``.

    What :func:`numpy.load` with ``allow_pickle=False`` would return for each
    member, without a file seek, header ``literal_eval`` and copy per array.
    """
    arrays = []
    pos, size, magic_size = 0, len(block), len(_NPY_MAGIC)
    for member in range(n_members):
        prefix_end = pos + magic_size + 2
        if block[pos : pos + magic_size] != _NPY_MAGIC or prefix_end > size:
            raise RpbFormatError(f"array {member} does not start with the .npy magic")
        version = (block[prefix_end - 2], block[prefix_end - 1])
        if version not in _NPY_VERSIONS:
            raise RpbFormatError(f"array {member} has unsupported .npy version {version}")
        length_end = prefix_end + _NPY_VERSIONS[version][0]
        data_start = length_end + int.from_bytes(block[prefix_end:length_end], "little")
        if data_start > size:
            raise RpbFormatError(f"array {member} header runs past the end of the block")
        try:
            shape, fortran_order, dtype = _npy_header(version, bytes(block[prefix_end:data_start]))
        except (ValueError, tokenize.TokenError) as error:  # both escape NumPy's parser
            raise RpbFormatError(f"array {member} has a corrupt .npy header: {error}") from error
        if dtype.hasobject:
            raise RpbFormatError(f"array {member} has an object dtype")
        count = math.prod(shape)
        if min(shape, default=0) < 0 or count * dtype.itemsize > size - data_start:
            raise RpbFormatError(
                f"array {member} claims shape {shape} of {dtype}, more than the block holds"
            )
        try:
            array = np.frombuffer(block, dtype=dtype, count=count, offset=data_start)
            # Inside the try: a sub-array dtype yields more items than ``shape`` holds.
            arrays.append(array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape))
        except ValueError as error:
            raise RpbFormatError(f"array {member} cannot be decoded: {error}") from error
        pos = data_start + array.nbytes
    if pos != size:
        raise RpbFormatError(f"{size - pos} trailing bytes after array {n_members - 1}")
    return arrays


def _run_attrs(entries: Sequence[RpbRankEntry]) -> dict:
    """What the spans of a run's decode say of it."""
    return dict(
        first_rank=entries[0].rank, ranks=len(entries), bytes=sum(e.length for e in entries)
    )


def _load_columns(
    handle: BinaryIO, entries: Sequence[RpbRankEntry], strings: tuple[str, ...]
) -> _RankColumns:
    """Read a run of rank blocks (end to end in the file) with one ``read`` and validate them.

    Each block's members are walked and checked where they lie, the ranks'
    columns laid end to end (a run of one keeps the views of its block) and
    the value checks run once.  Every defect is an :class:`RpbFormatError`
    naming the rank being checked — the rank, for a run of one.
    """
    entry = entries[0]
    try:
        with obs.span("rpb.decode_columns", **_run_attrs(entries)):
            start = end = entry.offset
            for entry in entries:
                if entry.offset != end or end < len(_MAGIC) or entry.length < 0:
                    raise RpbFormatError(
                        f"byte range {entry.offset}+{entry.length} is out of range"
                    )
                end += entry.length
            handle.seek(start)
            block = handle.read(end - start)
            if len(block) != end - start:
                raise RpbFormatError(f"block is cut short ({len(block)} of {end - start} bytes)")
            members = []
            n_before = at = 0
            for entry in entries:
                arrays = _block_arrays(memoryview(block)[at : at + entry.length], len(_MEMBERS))
                at += entry.length
                for array, (field, dtype, ndim) in zip(arrays, _MEMBERS):
                    found = (array.dtype.kind, array.dtype.itemsize, array.ndim)
                    if found != (dtype.kind, dtype.itemsize, ndim):
                        raise RpbFormatError(
                            f"column {field} is {array.ndim}-d {array.dtype}, "
                            f"expected {ndim}-d {dtype}"
                        )
                kind, time, name, mpi_pos, mpi_op, mpi_mask, mpi_vals, mpi_nbytes, mpi_comm = arrays
                n_records, n_mpi = len(kind), len(mpi_pos)
                if n_records != entry.n_records:
                    raise RpbFormatError(
                        f"block holds {n_records} records, index says {entry.n_records}"
                    )
                if len(time) != n_records or len(name) != n_records:
                    raise RpbFormatError("record columns differ in length")
                if mpi_vals.shape != (n_mpi, len(_FIELD_BITS)) or any(
                    len(column) != n_mpi for column in (mpi_op, mpi_mask, mpi_nbytes, mpi_comm)
                ):
                    raise RpbFormatError("MPI columns differ in length")
                if n_before:
                    arrays[3] = mpi_pos + n_before
                n_before += n_records
                members.append(arrays)
            columns = _RankColumns(
                [entry.rank for entry in entries],
                np.cumsum([0] + [len(arrays[0]) for arrays in members]),
                np.cumsum([0] + [len(arrays[3]) for arrays in members]),
                *(
                    column[0] if len(column) == 1 else np.concatenate(column)
                    for column in zip(*members)
                ),
                strings,
            )
            if n_before and int(columns.kind.max()) > _KIND_SEGMENT_END:
                raise RpbFormatError(f"unknown record kind code {int(columns.kind.max())}")
            for ids in (columns.name, columns.mpi_op, columns.mpi_comm):
                if len(ids) and int(ids.max()) >= len(strings):
                    raise RpbFormatError(
                        f"string id {int(ids.max())} outside the {len(strings)}-entry string table"
                    )
            # TraceRecord's check, once over the run: NaN fails both comparisons.
            time = columns.time
            if n_before and not (0 <= time.min() and time.max() < math.inf):
                bad = time[~((time >= 0) & (time < math.inf))][0]
                raise RpbFormatError(f"record timestamp must be a finite number >= 0, got {bad}")
    except RpbFormatError as error:
        raise RpbFormatError(f"rank {entry.rank} block: {error}") from error
    return columns


def _whole_or_by_rank(entries: Sequence[RpbRankEntry], decode: Callable) -> list:
    """``decode(entries)``'s list — or, for a run it cannot take whole, each rank's in turn.

    ``decode`` declines a run (``None`` or :class:`RpbFormatError`) whose
    blocks are damaged or not end to end in the file, or whose ranks only
    balance across a rank boundary.  Decoded as runs of one, the first rank
    at fault raises the error it raises alone; any other gives its frame.
    """
    try:
        decoded = decode(entries)
    except RpbFormatError:
        if len(entries) == 1:
            raise
        decoded = None
    if decoded is None:
        decoded = [item for entry in entries for item in decode([entry])]
    return decoded


def _invalid(rank: int, message: object) -> "RpbFormatError":
    return RpbFormatError(f"rank {rank} block holds an invalid trace: {message}")


@contextmanager
def _block_values(rank: int) -> Iterator[None]:
    """Report the value checks of objects built from a rank block as format errors.

    The format has no checksum, so a damaged byte can pass every shape check
    of :func:`_load_columns` and only be caught when the block's values are
    put into :class:`MpiCallInfo`, :class:`TraceRecord` or :class:`Event`
    (a string-table byte that spells no MPI operation, an MPI row pointing at
    an EXIT record).  A stream that decodes but breaks the segmentation rules
    still raises :class:`~repro.trace.segments.SegmentationError`, as it
    would from any other source.
    """
    try:
        yield
    except RpbFormatError:
        raise
    except ValueError as error:
        raise _invalid(rank, error) from error


def _records_from_columns(columns: _RankColumns) -> Iterator[TraceRecord]:
    strings = columns.strings
    table, row_ids = columns.mpi_tables()
    mpi = dict(zip(columns.mpi_pos.tolist(), [table[ident] for ident in row_ids.tolist()]))
    rank = columns.rank
    kinds = columns.kind.tolist()
    times = columns.time.tolist()
    names = columns.name.tolist()
    for position in range(len(kinds)):
        yield TraceRecord(
            kind=_KIND_BY_VALUE[kinds[position]],
            rank=rank,
            timestamp=times[position],
            name=strings[names[position]],
            mpi=mpi.get(position),
        )


def iter_rank_records(path: str | Path, rank: int) -> Iterator[TraceRecord]:
    """Decode one rank's records via the footer index (random access)."""
    index = read_index(path)
    with Path(path).open("rb") as handle:
        columns = _load_columns(handle, [index.entry_for(rank)], index.strings)
    with _block_values(rank):
        yield from _records_from_columns(columns)


def _columns_well_formed(
    names: np.ndarray,
    begin_pos: np.ndarray,
    end_pos: np.ndarray,
    enter_pos: np.ndarray,
    exit_pos: np.ndarray,
    event_seg: np.ndarray,
) -> bool:
    """Vectorized segmentation-validity check (the rules of ``iter_segments``).

    True iff segment markers pair up without nesting, ENTER/EXIT strictly
    alternate with matching names, and every event lies strictly inside one
    segment.  On False the caller re-runs the record-by-record state machine,
    which raises the precise :class:`SegmentationError`.
    """
    if len(begin_pos) != len(end_pos) or len(enter_pos) != len(exit_pos):
        return False
    if len(begin_pos):
        if not (
            np.all(begin_pos < end_pos)
            and np.all(end_pos[:-1] < begin_pos[1:])
            and np.array_equal(names[begin_pos], names[end_pos])
        ):
            return False
    if len(enter_pos):
        if not len(begin_pos):
            return False
        if not (
            np.all(enter_pos < exit_pos)
            and np.all(exit_pos[:-1] < enter_pos[1:])
            and np.array_equal(names[enter_pos], names[exit_pos])
        ):
            return False
        if int(event_seg.min()) < 0 or not np.all(exit_pos < end_pos[event_seg]):
            return False
    return True


def _marker_split(columns: _RankColumns) -> Optional[tuple[np.ndarray, ...]]:
    """Split a run's records by kind; ``None`` if a rank of it is malformed.

    Returns the positions of the BEGIN, END, ENTER and EXIT records and, per
    ENTER, the index of the segment it falls in — validated wholesale
    (:func:`_columns_well_formed`).  Laid end to end, rank A ending in an
    unclosed BEGIN and rank B opening with an END balance; so segments must
    also close inside their own rank: as many ENDs as BEGINs before every
    rank boundary.  (Events then do too: each lies inside one segment.)
    """
    kinds = columns.kind
    begin_pos = np.flatnonzero(kinds == _KIND_SEGMENT_BEGIN)
    end_pos = np.flatnonzero(kinds == _KIND_SEGMENT_END)
    enter_pos = np.flatnonzero(kinds == _KIND_ENTER)
    exit_pos = np.flatnonzero(kinds == _KIND_EXIT)
    if len(enter_pos) and len(begin_pos):
        event_seg = np.searchsorted(begin_pos, enter_pos, side="right") - 1
    else:
        event_seg = np.empty(0, dtype=np.int64)
    if not _columns_well_formed(
        columns.name, begin_pos, end_pos, enter_pos, exit_pos, event_seg
    ):
        return None
    boundaries = columns.record_bounds[1:-1]
    if len(boundaries) and not np.array_equal(
        np.searchsorted(begin_pos, boundaries), np.searchsorted(end_pos, boundaries)
    ):
        return None
    return begin_pos, end_pos, enter_pos, exit_pos, event_seg


def iter_rank_segments(path: str | Path, rank: int) -> Iterator[Segment]:
    """One rank's segments: its records through the record state machine."""
    return iter_segments(iter_rank_records(path, rank))


def _text_sizes(columns: _RankColumns, sizer: ColumnTextSizer) -> np.ndarray:
    """Bytes each rank of a run occupies in the text format."""
    return sizer.records(
        columns.ranks, columns.record_bounds, columns.kind, columns.time, columns.name
    ) + sizer.mpi(
        columns.mpi_bounds,
        columns.mpi_op,
        (columns.mpi_mask[:, None] & _FIELD_BITS) != 0,
        columns.mpi_vals,
        columns.mpi_nbytes,
        columns.mpi_comm,
    )


def _frames_from_columns(
    columns: _RankColumns, sizer: ColumnTextSizer
) -> Optional[list[RankFrame]]:
    """Turn a run's columns into one columnar :class:`RankFrame` per rank.

    Pure array slicing: one marker/event split and wholesale validation
    (:func:`_marker_split`), once over the run, the timestamp
    and name-id arrays handed to one frame as they are (no ``Event``/``Segment``
    built) and each rank a row-range view of it (:meth:`RankFrame.rows_view`),
    sized for the text format while its columns are at hand.  ``None`` for a
    run of several ranks that does not split rank by rank; a malformed run of
    one falls back through the record-by-record state machine (raising the
    precise error) and the segments→frame adapter.  Called by
    :func:`rank_frames` and :func:`trace_frames`.
    """
    ranks = columns.ranks
    split = _marker_split(columns)
    if split is None:
        if len(ranks) > 1:
            return None
        segments = iter_segments(_records_from_columns(columns))  # raises the precise error
        frames = [RankFrame.from_segments(columns.rank, segments)]
    else:
        begin_pos, end_pos, enter_pos, exit_pos, event_seg = split
        mpi_pos = columns.mpi_pos
        ev_mpi = np.full(len(enter_pos), -1, dtype=np.int64)
        mpi_table: tuple[MpiCallInfo, ...] = ()
        if len(mpi_pos) and len(enter_pos):
            # MPI rows are keyed by record position (sorted by construction);
            # events carry the MPI info of their ENTER record, if any.  A
            # search of the whole run finds what a search of the rank finds
            # only if every rank's rows are in order and name its own records.
            if len(ranks) > 1 and not (
                np.all(mpi_pos[:-1] <= mpi_pos[1:])
                and np.array_equal(
                    np.searchsorted(mpi_pos, columns.record_bounds), columns.mpi_bounds
                )
            ):
                return None
            mpi_table, row_ids = columns.mpi_tables()
            loc = np.minimum(np.searchsorted(mpi_pos, enter_pos), len(mpi_pos) - 1)
            hit = mpi_pos[loc] == enter_pos
            ev_mpi[hit] = row_ids[loc[hit]]
        counts = np.bincount(event_seg, minlength=len(begin_pos))
        ev_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        run = RankFrame(
            rank=columns.rank,
            contexts=columns.name[begin_pos].astype(np.int64),
            starts=columns.time[begin_pos],
            ends=columns.time[end_pos],
            ev_offsets=ev_offsets,
            ev_names=columns.name[enter_pos].astype(np.int64),
            ev_starts=columns.time[enter_pos],
            ev_ends=columns.time[exit_pos],
            ev_mpi=ev_mpi,
            strings=columns.strings,
            mpi_table=mpi_table,
        )
        cuts = np.searchsorted(begin_pos, columns.record_bounds).tolist()
        frames = [run.rows_view(rank, lo, hi) for rank, lo, hi in zip(ranks, cuts, cuts[1:])]
    for frame, size in zip(frames, _text_sizes(columns, sizer).tolist()):
        frame.text_bytes = size
    return frames


#: Block bytes :func:`rank_runs` puts in one run.  Measured on the 1024-rank
#: ATS file (4 KB blocks, 131 072 records), serial file -> file and peak RSS:
#: rank by rank 0.66 s / 39.1 MB; runs of 16 KB 0.41 s / 39.1 MB; 64 KB
#: 0.33 s / 39.5 MB; 128 KB 0.33 s / 39.8 MB; 256 KB 0.32 s / 40.8 MB; 512 KB
#: 0.32 s / 42.5 MB; 1 MB 46.8 MB; the whole file 0.31 s / 57.5 MB.  Time is
#: flat from 16 ranks a run up, memory is not (``peak_rss_mb``'s bound is 5%).
RUN_BYTES = 128 * 1024


def _cut_runs(entries: Sequence[RpbRankEntry]) -> list[Sequence[RpbRankEntry]]:
    """``entries`` cut in order into runs of about :data:`RUN_BYTES` block bytes each.

    A rank bigger than that is a run of one, or ends a run of short ranks.
    """
    lengths = [entry.length for entry in entries]
    n_runs = max(1, -(-sum(lengths) // RUN_BYTES))
    return [entries[run.start : run.stop] for run in cut_by_bytes(lengths, n_runs)]


def rank_runs(path: str | Path, ranks: Iterable[int]) -> list[tuple[tuple[int, ...], int]]:
    """Cut ``ranks``, in the order given, into runs: ``(ranks, block bytes)`` pairs.

    A run is what to hand :func:`rank_frames` at a time; the budget is bytes,
    not ranks, because what a run costs to hold is its columns.  From the
    footer index alone.
    """
    index = read_index(path)
    return [
        (tuple(entry.rank for entry in run), sum(entry.length for entry in run))
        for run in _cut_runs([index.entry_for(rank) for rank in ranks])
    ]


def rank_frames(path: str | Path, ranks: Iterable[int]) -> list[RankFrame]:
    """Decode ``ranks`` of an ``.rpb`` file, as one run, straight into columnar frames.

    The columnar hot path's entry point: one ``read``, one marker split, one
    MPI table and one frame for the run, each rank's frame a row-range view
    of it (so their structural keys and feature vectors are computed once for
    all of them), and not a single ``Segment`` built.  A run that cannot be
    taken whole is decoded rank by rank (:func:`_whole_or_by_rank`): the
    frames, and the errors, are those of runs of one.  The byte-identity
    oracle reads the file's records instead (:func:`iter_rank_segments`).
    """
    path = Path(path)
    index = read_index(path)

    def decode(entries: Sequence[RpbRankEntry]) -> Optional[list[RankFrame]]:
        span = obs.span("columnar.decode", source="rpb", **_run_attrs(entries))
        with span, _block_values(entries[0].rank):
            columns = _load_columns(handle, entries, index.strings)
            frames = _frames_from_columns(columns, index.sizer)
        for frame in frames or ():
            # The time-order check runs where the frame is reduced; it reports
            # as the value checks of :func:`_block_values` do.
            frame.invalid = partial(_invalid, frame.rank)
        return frames

    with path.open("rb") as handle:
        return _whole_or_by_rank([index.entry_for(rank) for rank in ranks], decode)


def rank_frame(path: str | Path, rank: int) -> RankFrame:
    """One rank's frame: the run of one of :func:`rank_frames`."""
    (frame,) = rank_frames(path, (rank,))
    return frame


def trace_frames(ranks: Iterable[tuple[int, Iterable[TraceRecord]]]) -> Iterator[RankFrame]:
    """Each ``(rank, records)`` pair as the frame its ``.rpb`` block decodes to.

    How a raw in-memory trace's ranks and a text file's
    (:func:`repro.trace.io.iter_rank_columns_text`) reach the reducers: a rank
    at a time, the writer's encoder interns its strings into one growing table
    and lays it out as the arrays of its block, then the frame decoder and its
    sizer make its frame — no byte written, no record, event or segment built.
    Each frame holds the table as grown so far, so the ranks' string ids agree.
    The frames carry no ``.rpb`` error hook: a rank the record state machine
    refuses is refused by it, with its error.
    """
    strings = _StringTable()
    table: tuple[str, ...] = ()
    sizer = ColumnTextSizer(table)
    for rank, records in ranks:
        with obs.span("columnar.decode", source="records", rank=rank):
            columns, stray = _as_columns(rank, records)
            if stray is not None:  # raises if the records mix ranks; one other rank is no error
                segment_rank_records(records)
            arrays = _encode(columns, strings)
            if len(strings.strings) != len(table):
                table = tuple(strings.strings)
                sizer = ColumnTextSizer(table)
            bounds = [np.array([0, len(arrays[0])]), np.array([0, len(arrays[3])])]
            (frame,) = _frames_from_columns(_RankColumns([rank], *bounds, *arrays, table), sizer)
            if np.any(frame.ev_ends < frame.ev_starts) or np.any(frame.ends < frame.starts):
                segment_rank_records(records)  # raises: an EXIT or END too early
        yield frame


def text_bytes(path: str | Path) -> int:
    """Bytes the file's records occupy in the text format, from its columns.

    A run of rank blocks at a time (memory is bounded by the larger of a run
    and the largest rank); no record objects are built.  Equals the size of
    the file's text twin.
    """
    path = Path(path)
    index = read_index(path)

    def sizes(entries: Sequence[RpbRankEntry]) -> list[int]:
        return _text_sizes(_load_columns(handle, entries, index.strings), index.sizer).tolist()

    with path.open("rb") as handle:
        return sum(sum(_whole_or_by_rank(run, sizes)) for run in _cut_runs(index.entries))


def iter_rank_record_streams_rpb(
    path: str | Path,
) -> Iterator[tuple[int, Iterator[TraceRecord]]]:
    """Yield ``(rank, record iterator)`` pairs via the index.

    Unlike the text reader, the streams are independent random-access
    decoders: they may be consumed in any order, or not at all.
    """
    for rank in rank_ids(path):
        yield rank, iter_rank_records(path, rank)


def read_trace_rpb(path: str | Path, name: str | None = None) -> Trace:
    """Read a whole ``.rpb`` trace; ranks must form a contiguous range from 0."""
    path = Path(path)
    with obs.span("rpb.read_trace", path=str(path)):
        by_rank = {
            rank: RankTrace(rank=rank, records=list(records))
            for rank, records in iter_rank_record_streams_rpb(path)
        }
    nprocs = max(by_rank, default=-1) + 1
    missing = [r for r in range(nprocs) if r not in by_rank]
    if missing:
        raise RpbFormatError(f"trace file {path} is missing ranks {missing}")
    return Trace(name=name or path.stem, ranks=[by_rank[r] for r in range(nprocs)])
