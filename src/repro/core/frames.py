"""Columnar rank frames: the decode→match hot path without per-segment objects.

A :class:`RankFrame` holds one rank's segments as NumPy column arrays —
per-segment context ids and boundary timestamps plus flattened per-event
columns sliced by an offset array — instead of a list of
:class:`~repro.trace.segments.Segment` objects.  Everything the matching
algorithm derives per segment is then computed **in bulk** over the columns:

* normalisation (timestamps relative to each segment's start) is one
  vectorized subtraction instead of a ``relative_to_start()`` copy per
  segment — and because IEEE-754 defines ``a - b`` as ``a + (-b)``, the bulk
  result is bitwise identical to the scalar path;
* structural keys are computed from per-event ``(name id, MPI id)`` codes and
  hash-interned once per distinct structure (:class:`InternedKey`, shared
  by every config of a sweep), so store probes stay pointer-identity fast;
* each metric family's feature vectors (pairwise / Minkowski / transformed
  wavelet layouts) are built as row groups of equal width, so a whole rank
  vectorizes in a handful of NumPy calls.

``Segment`` objects are only *materialized* — built back from the columns —
for an oracle or a test that asks (:meth:`RankFrame.segment`): a reduction
probes with the frame's rows, books its representatives as ``(frame, rows)``
(``iter_avg`` writes its means into rows of their own, :meth:`RankFrame.take`)
and writes, sizes and reconstructs them from the columns, so
:attr:`RankFrame.materialized` stays 0 through it, and the time-order check
construction made on the way is :meth:`RankFrame.check_time_order`.
``.rpb`` files decode straight into frames (:func:`repro.trace.binio.rank_frames`:
a run of short ranks becomes one frame, each rank a :meth:`RankFrame.rows_view`
of it, so the bulk passes above run once per run), and so do a raw
in-memory trace and a text file, through the same code from their records'
columns (:func:`repro.trace.binio.trace_frames`); only in-memory segmented
traces adapt through :meth:`RankFrame.from_segments`, so every engine runs
one code path.  The segment-at-a-time
:class:`~repro.core.reducer.TraceReducer` remains the byte-identity oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro import obs
from repro.trace.events import Event, MpiCallInfo
from repro.trace.segments import Segment

__all__ = ["InternedKey", "RankFrame", "gather_events", "pyramid_rows"]


class InternedKey:
    """A structural key wrapper with a cached hash, interned per rank.

    Every store is keyed by the segment's structural key — a large nested
    tuple whose hash would otherwise be recomputed on every dict operation.
    Each distinct structure is hashed once per rank and all consumers get the
    same wrapper object: its hash is a cached int and, because the wrapper is
    interned, dict probes succeed on pointer identity without ever
    re-comparing the underlying tuple.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, InternedKey):
            return self.value == other.value
        return NotImplemented

    def __getstate__(self):
        # Only the value crosses the pickle boundary: string hashing is
        # salted per process (PYTHONHASHSEED), so a cached hash restored in
        # another process would disagree with freshly built keys and every
        # store probe would miss.  Dict reconstruction re-inserts keys after
        # __setstate__ has run, so restored stores rehash correctly.
        return self.value

    def __setstate__(self, value):
        self.value = value
        self._hash = hash(value)


def pyramid_rows(matrix: np.ndarray, scale: float) -> np.ndarray:
    """Row-batched multi-level DWT (the bulk form of ``wavelet._pyramid``).

    Applies the trends/fluctuations pyramid to every row of a power-of-two
    width matrix.  All operations are elementwise with the same operand order
    as the scalar transform, so each output row is bitwise identical to
    ``_pyramid(matrix[i], scale)``.
    """
    n_rows, width = matrix.shape
    if width & (width - 1):
        raise ValueError(f"wavelet transform requires a power-of-two width, got {width}")
    details: list[np.ndarray] = []
    current = matrix
    while current.shape[1] > 1:
        pairs = current.reshape(n_rows, -1, 2)
        trends = (pairs[:, :, 0] + pairs[:, :, 1]) * scale
        fluctuations = (pairs[:, :, 1] - pairs[:, :, 0]) * scale
        details.append(fluctuations)
        current = trends
    return np.concatenate([current] + details[::-1], axis=1)


def gather_events(ev_offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments ``rows`` laid end to end: their prefix array, and each event's source row.

    Event ``j`` of gathered segment ``i`` is source event
    ``ev_offsets[rows[i]] + (j - offsets[i])``.
    """
    counts = np.diff(ev_offsets)[rows]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    gather = np.repeat(ev_offsets[:-1][rows] - offsets[:-1], counts)
    gather += np.arange(len(gather), dtype=np.int64)
    return offsets, gather


def _next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class RankFrame:
    """One rank's segments in columnar form.

    Columns (all absolute timestamps, exactly as decoded):

    ``contexts`` / ``starts`` / ``ends``
        Per-segment context string id and boundary timestamps.
    ``ev_offsets``
        Length ``n_segments + 1`` prefix array: segment ``i``'s events are
        the flattened event rows ``ev_offsets[i]:ev_offsets[i + 1]``.
    ``ev_names`` / ``ev_starts`` / ``ev_ends`` / ``ev_mpi``
        Per-event name id, timestamps, and MPI-table id (``-1`` = no MPI).
    ``strings`` / ``mpi_table``
        The id-indexed string table and deduplicated
        :class:`~repro.trace.events.MpiCallInfo` table.
    ``indices``
        Each segment's emission index (``Segment.index``); ``None`` means
        ``0..n-1`` (the value :func:`~repro.trace.segments.iter_segments`
        assigns).
    """

    __slots__ = (
        "rank",
        "contexts",
        "starts",
        "ends",
        "ev_offsets",
        "ev_names",
        "ev_starts",
        "ev_ends",
        "ev_mpi",
        "strings",
        "mpi_table",
        "indices",
        "materialized",
        "invalid",
        "text_bytes",
        "_run",
        "_keys",
        "_rel",
        "_rows",
        "_lists",
        "__weakref__",
    )

    def __init__(
        self,
        *,
        rank: int,
        contexts: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        ev_offsets: np.ndarray,
        ev_names: np.ndarray,
        ev_starts: np.ndarray,
        ev_ends: np.ndarray,
        ev_mpi: np.ndarray,
        strings: Sequence[str],
        mpi_table: Sequence[Optional[MpiCallInfo]],
        indices: Optional[np.ndarray] = None,
    ) -> None:
        self.rank = rank
        self.contexts = contexts
        self.starts = starts
        self.ends = ends
        self.ev_offsets = ev_offsets
        self.ev_names = ev_names
        self.ev_starts = ev_starts
        self.ev_ends = ev_ends
        self.ev_mpi = ev_mpi
        self.strings = tuple(strings)
        self.mpi_table = tuple(mpi_table)
        self.indices = indices
        #: Segment objects built back from the columns so far (0 through a
        #: dense reduction, ``n_segments`` through an iteration method).
        self.materialized = 0
        #: Builds the error :meth:`check_time_order` raises from its message;
        #: a decoder that knows where the frame came from says so here.
        self.invalid = ValueError
        #: Bytes the rank's records occupy in the text format, where the
        #: decoder had the record columns to size them (a rank of a trace
        #: file or of a raw in-memory trace).
        self.text_bytes = 0
        #: ``(frame, rows, events)`` when this frame is a row slice of a longer
        #: one (:meth:`rows_view`): what is derived from the columns is sliced
        #: from that frame's, which computes it once for all its views.
        self._run: Optional[tuple] = None
        self._keys: Optional[list[InternedKey]] = None
        self._rel = None
        self._rows: dict = {}
        self._lists = None

    # -- basic shape -----------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.starts)

    @property
    def n_events(self) -> int:
        return len(self.ev_starts)

    def __len__(self) -> int:
        return len(self.starts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RankFrame rank={self.rank} segments={self.n_segments} "
            f"events={self.n_events} materialized={self.materialized}>"
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_segments(cls, rank: int, segments: Iterable[Segment]) -> "RankFrame":
        """Adapter: build a frame from already-built :class:`Segment` objects.

        This is how segments join the columnar path (an in-memory segmented
        trace's ranks, the scalar reference's representatives, the service's
        record appends) — the segments are consumed (a stream works), their strings
        and MPI infos interned, and their timestamps laid out as columns.  The reverse of
        :meth:`segment`: ``frame.segment(i)`` rebuilds ``segments[i]``'s
        normalised form bit for bit.
        """
        with obs.span("columnar.decode", rank=rank, source="segments"):
            return cls._from_segments(rank, segments)

    @classmethod
    def _from_segments(cls, rank: int, segments: Iterable[Segment]) -> "RankFrame":
        strings: list[str] = []
        string_ids: dict[str, int] = {}

        def intern_string(value: str) -> int:
            ident = string_ids.get(value)
            if ident is None:
                ident = string_ids[value] = len(strings)
                strings.append(value)
            return ident

        mpi_table: list[MpiCallInfo] = []
        # The by-object fast path must pin the object it memoizes: lazy
        # streams drop segments as they are consumed, and a freshly
        # allocated MpiCallInfo can reuse a dead one's id().
        mpi_by_obj: dict[int, tuple[MpiCallInfo, int]] = {}
        mpi_by_key: dict[tuple, int] = {}

        def intern_mpi(info: Optional[MpiCallInfo]) -> int:
            if info is None:
                return -1
            entry = mpi_by_obj.get(id(info))
            if entry is not None and entry[0] is info:
                return entry[1]
            key = info.key()
            ident = mpi_by_key.get(key)
            if ident is None:
                ident = mpi_by_key[key] = len(mpi_table)
                mpi_table.append(info)
            mpi_by_obj[id(info)] = (info, ident)
            return ident

        contexts: list[int] = []
        starts: list[float] = []
        ends: list[float] = []
        offsets: list[int] = [0]
        ev_names: list[int] = []
        ev_starts: list[float] = []
        ev_ends: list[float] = []
        ev_mpi: list[int] = []
        indices: list[int] = []
        identity = True
        for position, segment in enumerate(segments):
            contexts.append(intern_string(segment.context))
            starts.append(segment.start)
            ends.append(segment.end)
            indices.append(segment.index)
            identity = identity and segment.index == position
            for event in segment.events:
                ev_names.append(intern_string(event.name))
                ev_starts.append(event.start)
                ev_ends.append(event.end)
                ev_mpi.append(intern_mpi(event.mpi))
            offsets.append(len(ev_names))
        return cls(
            rank=rank,
            contexts=np.asarray(contexts, dtype=np.int64),
            starts=np.asarray(starts, dtype=np.float64),
            ends=np.asarray(ends, dtype=np.float64),
            ev_offsets=np.asarray(offsets, dtype=np.int64),
            ev_names=np.asarray(ev_names, dtype=np.int64),
            ev_starts=np.asarray(ev_starts, dtype=np.float64),
            ev_ends=np.asarray(ev_ends, dtype=np.float64),
            ev_mpi=np.asarray(ev_mpi, dtype=np.int64),
            strings=strings,
            mpi_table=mpi_table,
            indices=None if identity else np.asarray(indices, dtype=np.int64),
        )

    # -- bulk normalisation ----------------------------------------------------

    def relative_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Relative (normalised) event starts, event ends and segment ends, in bulk.

        ``a - b`` is IEEE-defined as ``a + (-b)``, so these equal the scalar
        ``relative_to_start()`` results (``e.start + offset`` with
        ``offset = -start``) bit for bit.
        """
        rel = self._rel
        if rel is None:
            if self._run is not None:
                run, rows, events = self._run
                rel_ev_starts, rel_ev_ends, rel_ends = run.relative_columns()
                rel = (rel_ev_starts[events], rel_ev_ends[events], rel_ends[rows])
            else:
                counts = np.diff(self.ev_offsets)
                seg_starts = np.repeat(self.starts, counts)
                rel = (
                    self.ev_starts - seg_starts,
                    self.ev_ends - seg_starts,
                    self.ends - self.starts,
                )
            self._rel = rel
        return rel

    def check_finite(self) -> None:
        """Reject a NaN or infinite segment or event time.

        ``Segment`` and ``Event`` construction take any float, so a hand-built
        segment can carry one; the reducer refuses it with :attr:`invalid`
        before it steps a row, while the analysis still reads such a frame.
        Finiteness only: a hand-built segment may hold negative times.
        """
        for column in (self.starts, self.ends, self.ev_starts, self.ev_ends):
            finite = np.isfinite(column)
            if not finite.all():
                raise self.invalid(
                    f"segment timestamp must be a finite number, got {column[~finite][0]}"
                )

    def check_time_order(self) -> None:
        """Reject an event that exits before it enters, a segment that ends before it begins.

        The checks ``Event`` and ``Segment`` construction make when a row is
        materialized, for every row at once: whether a reduction accepts a
        frame must not depend on which rows it happens to build.  Raises
        :attr:`invalid` with the constructor's text for the first offending
        row; NaN compares false here as it does there.
        """
        rel_ev_starts, rel_ev_ends, rel_ends = self.relative_columns()
        bad_event, bad_segment = rel_ev_ends < rel_ev_starts, rel_ends < 0.0
        if bad_event.any():
            event = int(bad_event.argmax())
            row = int(np.searchsorted(self.ev_offsets, event, side="right")) - 1
            if not bad_segment[:row].any():  # the row's events are built before the row
                raise self.invalid(
                    f"event {self.strings[self.ev_names[event]]!r} has end "
                    f"({float(rel_ev_ends[event])}) before start ({float(rel_ev_starts[event])})"
                )
        if bad_segment.any():
            row = int(bad_segment.argmax())
            raise self.invalid(
                f"segment {self.strings[self.contexts[row]]!r} has end "
                f"({float(rel_ends[row])}) before start (0.0)"
            )

    def take(self, rows: np.ndarray) -> "RankFrame":
        """Segments ``rows`` in their normalised form, as a frame of their own.

        Row ``i`` holds what :meth:`from_segments` makes of
        ``self.segment(rows[i])``, bit for bit, gathered from the columns with
        no object built; the string and MPI tables, and keys already built,
        are shared.
        """
        rel_ev_starts, rel_ev_ends, rel_ends = self.relative_columns()
        ev_offsets, gather = gather_events(self.ev_offsets, rows)
        taken = RankFrame(
            rank=self.rank,
            contexts=self.contexts[rows],
            starts=np.zeros(len(rows)),
            ends=rel_ends[rows],
            ev_offsets=ev_offsets,
            ev_names=self.ev_names[gather],
            ev_starts=rel_ev_starts[gather],
            ev_ends=rel_ev_ends[gather],
            ev_mpi=self.ev_mpi[gather],
            strings=self.strings,
            mpi_table=self.mpi_table,
            indices=rows if self.indices is None else self.indices[rows],
        )
        if self._keys is not None:
            taken._keys = [self._keys[row] for row in rows.tolist()]
        return taken

    @classmethod
    def concat(cls, rank: int, frames: Sequence["RankFrame"]) -> "RankFrame":
        """The rows of ``frames`` end to end, as one frame (emission indices
        ``0..n-1``): their strings and MPI infos interned into one table, by value."""
        if len(frames) == 1 and frames[0].rank == rank:
            return frames[0]
        strings: dict = {}
        mpi: dict = {}
        contexts, names, ev_mpi = [], [], []
        for f in frames:
            to_string = np.array([strings.setdefault(s, len(strings)) for s in f.strings], np.int64)
            to_mpi = [mpi.setdefault(info.key(), (len(mpi), info))[0] for info in f.mpi_table]
            contexts.append(to_string[f.contexts])
            names.append(to_string[f.ev_names])
            ev_mpi.append(np.array(to_mpi + [-1])[f.ev_mpi])  # entry -1 stays -1: no MPI
        shift = np.cumsum([0] + [f.n_events for f in frames])

        def joined(parts, dtype=np.float64) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype), *parts])

        return cls(
            rank=rank,
            contexts=joined(contexts, np.int64),
            starts=joined(f.starts for f in frames),
            ends=joined(f.ends for f in frames),
            ev_offsets=joined(
                [*(f.ev_offsets[:-1] + at for f, at in zip(frames, shift)), shift[-1:]], np.int64
            ),
            ev_names=joined(names, np.int64),
            ev_starts=joined(f.ev_starts for f in frames),
            ev_ends=joined(f.ev_ends for f in frames),
            ev_mpi=joined(ev_mpi, np.int64),
            strings=list(strings),
            mpi_table=[info for _, info in mpi.values()],
        )

    def write_row(self, row: int, vector: np.ndarray) -> None:
        """Give row ``row`` of a normalised frame of its own (a :meth:`take`) the
        timestamps ``vector``, in :meth:`pairwise_vectors`' layout."""
        lo, hi = self.ev_offsets[row], self.ev_offsets[row + 1]
        self.ev_starts[lo:hi], self.ev_ends[lo:hi] = vector[0:-1:2], vector[1:-1:2]
        self.ends[row] = vector[-1]
        self._rel, self._rows, self._lists = None, {}, None

    def rows_view(self, rank: int, lo: int, hi: int) -> "RankFrame":
        """Segments ``lo:hi`` as the frame of ``rank``: slices, nothing copied but the offsets.

        How a decoder that lays several short ranks end to end in one frame
        hands each to the reducer: the view's keys, relative columns and
        feature rows are slices of this frame's, built once for all the ranks.
        """
        rows = slice(lo, hi)
        events = slice(int(self.ev_offsets[lo]), int(self.ev_offsets[hi]))
        view = RankFrame(
            rank=rank,
            contexts=self.contexts[rows],
            starts=self.starts[rows],
            ends=self.ends[rows],
            ev_offsets=self.ev_offsets[lo : hi + 1] - events.start,
            ev_names=self.ev_names[events],
            ev_starts=self.ev_starts[events],
            ev_ends=self.ev_ends[events],
            ev_mpi=self.ev_mpi[events],
            strings=self.strings,
            mpi_table=self.mpi_table,
        )
        view._run = (self, rows, events)
        return view

    def chunks(self, size: int) -> Iterator["RankFrame"]:
        """This rank's rows ``size`` at a time, as row views (at least one, if empty).

        How a rank is appended to a session in pieces.  Unlike a rank of a
        run (:meth:`rows_view`), a piece keeps each row's ``Segment.index``:
        row ``i`` of the piece at ``lo`` is the rank's segment ``lo + i``, and
        a piece the reducer refuses raises the rank's :attr:`invalid`.
        """
        for lo in range(0, max(self.n_segments, 1), size):
            hi = min(lo + size, self.n_segments)
            view = self.rows_view(self.rank, lo, hi)
            view.indices = np.arange(lo, hi) if self.indices is None else self.indices[lo:hi]
            view.invalid = self.invalid
            yield view

    # -- vectorized structural keying ------------------------------------------

    def structural_keys(self) -> list[InternedKey]:
        """Per-segment structural keys, interned: one object per structure.

        Equality/hash semantics match ``segment.structure()`` exactly (the
        wrapped value *is* that tuple); the interning means every repeated
        structure in the rank maps to the same :class:`InternedKey` object.
        """
        keys = self._keys
        if keys is None:
            if self._run is not None:
                keys = self._run[0].structural_keys()[self._run[1]]
            else:
                with obs.span("columnar.vectorize", rank=self.rank, stage="keys"):
                    keys = self._structural_keys()
            self._keys = keys
        return keys

    def _structural_keys(self) -> list[InternedKey]:
        # One int64 code per event: (name id, MPI id) packed so a segment's
        # event-structure signature is a plain bytes slice.
        width = len(self.mpi_table) + 1
        codes = self.ev_names * width + (self.ev_mpi + 1)
        code_bytes = codes.tobytes()
        itemsize = codes.dtype.itemsize
        offsets = self.ev_offsets.tolist()
        contexts = self.contexts.tolist()
        strings = self.strings
        mpi_table = self.mpi_table
        codes_list = codes.tolist()

        struct_by_code: dict[int, tuple] = {}

        def event_struct(code: int) -> tuple:
            struct = struct_by_code.get(code)
            if struct is None:
                name_id, mpi_id = divmod(code, width)
                struct = struct_by_code[code] = (
                    strings[name_id],
                    mpi_table[mpi_id - 1].key() if mpi_id else None,
                )
            return struct

        interned: dict[tuple[int, bytes], InternedKey] = {}
        keys: list[InternedKey] = []
        for i in range(len(contexts)):
            lo, hi = offsets[i], offsets[i + 1]
            signature = (contexts[i], code_bytes[lo * itemsize : hi * itemsize])
            key = interned.get(signature)
            if key is None:
                structure = (
                    strings[contexts[i]],
                    tuple(event_struct(codes_list[j]) for j in range(lo, hi)),
                )
                key = interned[signature] = InternedKey(structure)
            keys.append(key)
        return keys

    # -- bulk feature vectors --------------------------------------------------

    def pairwise_vectors(self) -> list[np.ndarray]:
        """Canonical pairwise rows: event (start, end) pairs then segment end."""
        return self._vector_rows("pairwise")

    def minkowski_vectors(self) -> list[np.ndarray]:
        """Minkowski rows: segment duration first, then event pairs."""
        return self._vector_rows("minkowski")

    def wavelet_vectors(self, *, scale: float, pad: bool = True) -> list[np.ndarray]:
        """Transformed wavelet rows for the pyramid with scale ``scale``."""
        return self._vector_rows(("wavelet", scale, pad))

    def _vector_rows(self, layout) -> list[np.ndarray]:
        rows = self._rows.get(layout)
        if rows is None:
            if self._run is not None:
                rows = self._run[0]._vector_rows(layout)[self._run[1]]
            else:
                with obs.span("columnar.vectorize", rank=self.rank, stage=str(layout)):
                    rows = self._build_rows(layout)
            self._rows[layout] = rows
        return rows

    def _build_rows(self, layout) -> list[np.ndarray]:
        """Build every segment's feature vector, grouped by event count.

        Segments with ``k`` events share a vector width, so each group is one
        2-D allocation filled by strided assignment; the returned list holds
        row views in segment order.  Values are bitwise identical to the
        per-segment builders in :mod:`repro.core.metrics.vectors` because the
        relative timestamps already are (see :meth:`relative_columns`) and layout
        assembly only moves them.
        """
        rel_ev_starts, rel_ev_ends, rel_ends = self.relative_columns()
        counts = np.diff(self.ev_offsets)
        rows: list[Optional[np.ndarray]] = [None] * self.n_segments
        for k in np.unique(counts).tolist():
            idx = np.flatnonzero(counts == k)
            m = idx.size
            if k:
                ev_idx = (self.ev_offsets[idx][:, None] + np.arange(k)).reshape(-1)
                starts_grid = rel_ev_starts[ev_idx].reshape(m, k)
                ends_grid = rel_ev_ends[ev_idx].reshape(m, k)
            if layout == "pairwise":
                group = np.empty((m, 2 * k + 1), dtype=np.float64)
                if k:
                    group[:, 0 : 2 * k : 2] = starts_grid
                    group[:, 1 : 2 * k : 2] = ends_grid
                group[:, 2 * k] = rel_ends[idx]
            elif layout == "minkowski":
                group = np.empty((m, 2 * k + 1), dtype=np.float64)
                # Leading element is the duration: on a normalised segment
                # that is ``rel_end - 0.0 == rel_end`` bit for bit.
                group[:, 0] = rel_ends[idx]
                if k:
                    group[:, 1 : 2 * k + 1 : 2] = starts_grid
                    group[:, 2 : 2 * k + 2 : 2] = ends_grid
            else:  # ("wavelet", scale, pad)
                _, scale, pad = layout
                base = 2 * k + 2
                target = _next_power_of_two(base) if pad else base
                group = np.zeros((m, target), dtype=np.float64)
                if k:
                    group[:, 1 : 2 * k + 1 : 2] = starts_grid
                    group[:, 2 : 2 * k + 2 : 2] = ends_grid
                group[:, 2 * k + 1] = rel_ends[idx]
                if not pad:
                    # Ablation variant: truncate to a power of two instead.
                    usable = 1 << max(0, base.bit_length() - 1)
                    if usable != base:
                        group = group[:, :usable]
                group = pyramid_rows(group, scale)
            for row_index, i in enumerate(idx.tolist()):
                rows[i] = group[row_index]
        return rows

    # -- lazy materialization --------------------------------------------------

    def _materialize_lists(self):
        """Python-scalar mirrors of the columns, built once on first use.

        Materialization hands plain floats/ints to ``Segment``/``Event`` so a
        rebuilt segment is indistinguishable from one built by
        ``relative_to_start()`` (down to ``repr``).
        """
        lists = self._lists
        if lists is None:
            rel_ev_starts, rel_ev_ends, rel_ends = self.relative_columns()
            lists = self._lists = (
                self.contexts.tolist(),
                rel_ends.tolist(),
                self.ev_offsets.tolist(),
                self.ev_names.tolist(),
                rel_ev_starts.tolist(),
                rel_ev_ends.tolist(),
                self.ev_mpi.tolist(),
                None if self.indices is None else self.indices.tolist(),
            )
        return lists

    def segment(self, i: int) -> Segment:
        """Materialize segment ``i`` in its *normalised* (relative) form.

        Returns a fresh object each call.  Bitwise identical to
        ``decoded_segments[i].relative_to_start()``.  Deliberately unspanned:
        telemetry stays at rank/stage granularity (the
        ``segments_materialized`` counters carry the per-segment tally;
        :meth:`segments` spans its bulk pass).
        """
        contexts, rel_ends, offsets, names, ev_starts, ev_ends, ev_mpi, indices = (
            self._materialize_lists()
        )
        strings = self.strings
        mpi_table = self.mpi_table
        rank = self.rank
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
        self.materialized += 1
        return Segment(
            context=strings[contexts[i]],
            rank=rank,
            start=0.0,
            end=rel_ends[i],
            events=events,
            index=i if indices is None else indices[i],
        )

    def segments(self) -> list[Segment]:
        """Materialize every segment (test/oracle convenience, not the hot path)."""
        with obs.span("columnar.materialize", rank=self.rank, n=self.n_segments):
            return [self.segment(i) for i in range(self.n_segments)]

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        # Derived caches (vectors, scalar mirrors) are cheaper to rebuild than
        # to ship; keys already built travel (a pooled result's rows need them
        # to be written), and the text size is not derived.
        return {
            "keys": self._keys,
            "rank": self.rank,
            "contexts": self.contexts,
            "starts": self.starts,
            "ends": self.ends,
            "ev_offsets": self.ev_offsets,
            "ev_names": self.ev_names,
            "ev_starts": self.ev_starts,
            "ev_ends": self.ev_ends,
            "ev_mpi": self.ev_mpi,
            "strings": self.strings,
            "mpi_table": self.mpi_table,
            "indices": self.indices,
            "text_bytes": self.text_bytes,
        }

    def __setstate__(self, state):
        text_bytes, keys = state.pop("text_bytes"), state.pop("keys")
        self.__init__(**state)
        self.text_bytes, self._keys = text_bytes, keys
