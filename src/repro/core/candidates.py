"""Where representatives are stored: the per-key buckets and the one store.

The matching algorithm compares every incoming segment against all stored
representatives that share its structural key, in insertion order, returning
the first match (Section 3.1 of the paper).  The candidates of each key are
kept in a :class:`CandidateList`: an ordered sequence of representative ids
(the scalar reference's :class:`~repro.core.reduced.StoredSegment` objects)
that, for a dense reduction, also holds a contiguous 2-D matrix with one
feature-vector row per representative, which the batch step's kernel calls
compare against in one NumPy broadcast.

A representative is stored once: the batch step hands
:meth:`RepresentativeStore.extend` a key's new representatives' ids together
with a distance metric's feature rows (and the metric's ``row_scale`` of
each, which the leader rounds already hold), and the bucket writes them at
that moment.  Nothing is built later, so a bucket holds no metric, and a row
per entry or no rows at all (a method that decides on counts compares no
rows, and the scalar reference fills its buckets through
:meth:`RepresentativeStore.add`).

Because every candidate under one structural key has the same structure, all
rows have the same width; the matrix grows geometrically so appending a
representative is amortised O(row).

:class:`RepresentativeStore` is the only store: the per-key dictionary of
buckets.  It keeps every representative, as the paper's reduction does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Optional, Sequence

import numpy as np

from repro.obs.metrics import AdditiveCounts

__all__ = [
    "CandidateList",
    "MatchCounters",
    "RepresentativeStore",
    "StoreCounters",
]


@dataclass(slots=True)
class MatchCounters(AdditiveCounts):
    """Instrumentation of the match-kernel stage of one reduction.

    ``calls`` counts kernel invocations, ``rows_compared`` the probe ×
    representative pairs those invocations evaluated, and ``seconds`` their
    accumulated wall time.  The batch step makes, for a distance metric, one
    invocation per block of a key's probes against a non-empty bucket, one
    per leader round, and one per block of an all-pairs resolve, which
    compares every pair of the key's rows left; any other metric decides on
    its rows' occurrence counts and makes none.  Every round reads its
    leader's row from the key's :class:`~repro.core.reducer.LeaderRows`.  A
    single config's row meets its open rows only; when the configs of one
    kernel share the key's rows, a row is computed once — one call, counted
    on the config that needed it first, over the row against every later row
    of its key — and the other configs read it without a call.
    """

    calls: int = 0
    rows_compared: int = 0
    seconds: float = 0.0
    #: Inert (always 0): the benchmark contract (``bench/layers.py``) reads it.
    rows_pruned: int = 0

    @property
    def rows_per_call(self) -> float:
        """Mean pairs evaluated per kernel invocation."""
        return self.rows_compared / self.calls if self.calls else 0.0


@dataclass(slots=True)
class StoreCounters(AdditiveCounts):
    """Lookup counters of one representative store."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / lookups; 1.0 when nothing was looked up."""
        return self.hits / self.lookups if self.lookups else 1.0


class CandidateList:
    """Ordered stored-representative bucket with a contiguous row matrix.

    Behaves as a sequence of its entries: ids, or the scalar reference's
    :class:`~repro.core.reduced.StoredSegment` objects.  When its
    representatives are appended with their feature rows, row ``i`` of the
    matrix is the row of entry ``i``, written at append time.
    """

    __slots__ = ("_entries", "_matrix", "_scales")

    #: Minimum row capacity allocated for a new matrix.
    MIN_CAPACITY = 4

    def __init__(self) -> None:
        self._entries: list = []
        self._matrix: Optional[np.ndarray] = None  # first len(_entries) rows are live
        self._scales: Optional[np.ndarray] = None  # per-row scale, when the metric has one

    # -- sequence protocol (what the scan sees) --------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = "no" if self._matrix is None else "with"
        return f"<CandidateList {len(self._entries)} entries, {rows} rows>"

    # -- mutation --------------------------------------------------------------

    def extend(self, entries: Sequence, rows=None, scales=None) -> None:
        """Register new representatives in order, each with its row of ``rows``
        (and of ``scales``) when they have rows.

        A row is the probe vector that just failed to match — it *is* the
        representative's matrix row — and its scale the metric's
        ``row_scale`` of it (no ``scales`` for a metric without the hook).
        The buffers are allocated on the first rows and double as they fill.
        A bucket holds a row per entry or none: mixing the two would leave the
        kernel comparing against a row that was never written.
        """
        index, matrix, old_scales = len(self._entries), self._matrix, self._scales
        if index and (rows is None) != (matrix is None):
            raise ValueError("a bucket's representatives all carry a feature row, or none does")
        if rows is not None:
            end = index + len(entries)
            capacity = self.MIN_CAPACITY if matrix is None else len(matrix)
            while capacity < end:
                capacity *= 2
            if matrix is None or capacity > len(matrix):
                self._matrix = np.zeros((capacity, rows[0].size), dtype=float)
                self._scales = None if scales is None else np.zeros(capacity, dtype=float)
                if index:
                    self._matrix[:index] = matrix[:index]
                    if scales is not None:
                        self._scales[:index] = old_scales[:index]
            self._matrix[index:end] = rows
            if self._scales is not None:
                self._scales[index:end] = scales
        self._entries.extend(entries)

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        """Checkpointable state: entries plus their matrix and scale rows.

        The columns are trimmed to their live rows (spare growth capacity is
        not worth shipping) and kept **intact** through the round trip, so a
        restored bucket probes exactly as the original would.
        """
        n, matrix, scales = len(self._entries), self._matrix, self._scales
        return {
            "entries": self._entries,
            "matrix": None if matrix is None else matrix[:n].copy(),
            "scales": None if scales is None else scales[:n].copy(),
        }

    def __setstate__(self, state):
        self._entries = state["entries"]
        self._matrix = state["matrix"]
        self._scales = state["scales"]

    # -- the matrix ------------------------------------------------------------

    def matrix_and_scales(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The feature rows of this bucket's entries and their cached scales.

        Metrics whose match limit scales with each candidate's largest
        measurement magnitude (Minkowski, wavelet) declare a ``row_scale``
        hook; its value is stored next to the row, so the kernel doesn't
        recompute ``abs(matrix).max(axis=1)`` on every incoming segment.
        Metrics without the hook get None.
        """
        n, scales = len(self._entries), self._scales
        return self._matrix[:n], None if scales is None else scales[:n]


_EMPTY: tuple = ()


class RepresentativeStore:
    """The per-key candidate buckets behind the reducer — the one store.

    ``candidates(key)`` returns the representatives that share the key's
    structure (possibly empty) and counts the lookup; ``add(key, stored)``
    registers a new representative under the key.  Each key's bucket stays in
    insertion order — the paper's algorithm matches against representatives
    in the order they were first stored — and nothing leaves it.
    """

    def __init__(self) -> None:
        self.counters = StoreCounters()
        self._by_key: dict[Hashable, CandidateList] = {}
        self._size = 0

    def candidates(self, key: Hashable) -> Sequence:
        counters = self.counters
        counters.lookups += 1
        found = self._by_key.get(key)
        if found:
            counters.hits += 1
            return found
        counters.misses += 1
        return _EMPTY

    def add(
        self,
        key: Hashable,
        stored,
        row: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> None:
        """Store a representative under ``key`` (see :meth:`CandidateList.extend`)."""
        rows, scales = None if row is None else [row], None if scale is None else [scale]
        self.extend(key, [stored], rows, scales)

    def extend(
        self, key: Hashable, entries: Sequence, rows=None, scales=None
    ) -> None:
        """Store ``entries`` under ``key`` in order (see :meth:`CandidateList.extend`)."""
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.extend(entries, rows, scales)
        self._size += len(entries)

    def bucket(self, key: Hashable) -> Optional[CandidateList]:
        """The key's bucket without counting a lookup (the batch step's probe)."""
        return self._by_key.get(key)

    def count_lookups(self, hits: int, misses: int) -> None:
        """Book the lookups the batch step resolved in bulk."""
        counters = self.counters
        counters.lookups += hits + misses
        counters.hits += hits
        counters.misses += misses

    def __len__(self) -> int:
        """Number of representatives stored."""
        return self._size

    def __getstate__(self):
        """Explicit checkpoint state: buckets and counters.

        Spelled out (rather than relying on the default protocol) so
        the session checkpoint format is stable against refactors of the
        class layout; bucket keys are rehashed on restore by dict
        reconstruction, which is what makes checkpoints portable across
        processes with different string-hash salts.
        """
        return {"by_key": self._by_key, "size": self._size, "counters": self.counters}

    def __setstate__(self, state):
        self.counters = state["counters"]
        self._by_key = state["by_key"]
        self._size = state["size"]
