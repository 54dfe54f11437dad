"""Where representatives are looked up: the per-key buckets and the one store.

The matching algorithm compares every incoming segment against all stored
representatives that share its structural key, in insertion order, returning
the first match (Section 3.1 of the paper).  The candidates of each key are
kept in a :class:`CandidateList`: an ordered sequence of representative ids
(the scalar reference's :class:`~repro.core.reduced.StoredSegment` objects)
that, for a distance metric, also holds a contiguous 2-D matrix with one
feature-vector row per representative, which the batch step's kernel calls
compare against in one NumPy broadcast.

A bucket is an index of the reduced rank, not a second home of its
representatives: their rows live in the rank's
:class:`~repro.core.reduced.ReducedRankTrace`, and the one writer,
:func:`repro.core.reducer.keep`, enters each representative's id (and a
distance metric's feature row of it) once the frame that stored it is booked.
Only a rank that continues (an online session, a restored checkpoint) is
kept; a rank reduced in one frame leaves its store empty.  A bucket holds no
metric and no per-row scale (the kernel's caller derives the scales from the
matrix), and a row per entry or no rows at all (a method that decides on
counts compares no rows, and the scalar reference fills its buckets through
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

    __slots__ = ("_entries", "_matrix")

    #: Minimum row capacity allocated for a new matrix.
    MIN_CAPACITY = 4

    def __init__(self) -> None:
        self._entries: list = []
        self._matrix: Optional[np.ndarray] = None  # first len(_entries) rows are live

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

    def extend(self, entries: Sequence, rows=None) -> None:
        """Register new representatives in order, each with its row of ``rows``
        when they have rows.

        A row is the representative's feature vector, as the metric's
        ``frame_vectors`` gives it.  The matrix is allocated on the first rows
        and doubles as it fills.  A bucket holds a row per entry or none:
        mixing the two would leave the kernel comparing against a row that
        was never written.
        """
        index, matrix = len(self._entries), self._matrix
        if index and (rows is None) != (matrix is None):
            raise ValueError("a bucket's representatives all carry a feature row, or none does")
        if rows is not None:
            end = index + len(entries)
            capacity = self.MIN_CAPACITY if matrix is None else len(matrix)
            while capacity < end:
                capacity *= 2
            if matrix is None or capacity > len(matrix):
                self._matrix = np.zeros((capacity, rows[0].size), dtype=float)
                if index:
                    self._matrix[:index] = matrix[:index]
            self._matrix[index:end] = rows
        self._entries.extend(entries)

    def matrix(self) -> np.ndarray:
        """The feature rows of this bucket's entries, row ``i`` entry ``i``'s."""
        return self._matrix[: len(self._entries)]


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

    def add(self, key: Hashable, stored) -> None:
        """Store one representative under ``key``, with no row (the scalar reference)."""
        self.extend(key, [stored])

    def extend(self, key: Hashable, entries: Sequence, rows=None) -> None:
        """Store ``entries`` under ``key`` in order (see :meth:`CandidateList.extend`)."""
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.extend(entries, rows)
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
