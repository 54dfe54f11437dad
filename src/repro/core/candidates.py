"""Where representatives are stored: the per-key buckets and the one store.

The matching algorithm compares every incoming segment against all stored
representatives that share its structural key, in insertion order, returning
the first match (Section 3.1 of the paper).  That scan is the reduction's
inner loop, so the candidates of each key are kept in a
:class:`CandidateList`: an ordered sequence of
:class:`~repro.core.reduced.StoredSegment` that, for a dense reduction, also
holds a contiguous 2-D matrix with one feature-vector row per representative.
A metric's dense probe (``match_row``) and the batch step evaluate all
candidates in one NumPy broadcast and take the first match.

A representative is stored once: the reducer hands
:meth:`RepresentativeStore.add` the representative — still the ``(frame,
row)`` it is, no object — together with the feature row that just failed to
match (and the metric's ``row_scale`` of it, which the batch step's leader
round already holds), and the bucket writes both at that moment (the batch
step hands over a key's at once, :meth:`RepresentativeStore.extend`).  Nothing
is built later, so a bucket holds no metric, and a row per entry or no rows at
all (a bucket filled by hand, as the scalar reference does).

Because every candidate under one structural key has the same structure, all
rows have the same width; the matrix grows geometrically so appending a
representative is amortised O(row).

:class:`RepresentativeStore` is the only store: the per-key dictionary of
buckets, unbounded by default and, given a ``capacity``, bounded with
least-recently-used eviction at structural-key granularity.  Eviction never
removes a representative from the *output* (segments already emitted stay
emitted; the reduced trace remains valid); it only removes it from the
match-candidate set, so later executions of an evicted pattern store a fresh
representative instead of matching.  A bounded store therefore trades a
little compression for a hard memory ceiling.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterator, Optional, Sequence

import numpy as np

from repro.obs.metrics import AdditiveCounts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reduced import StoredSegment

__all__ = [
    "CandidateList",
    "MatchCounters",
    "RepresentativeStore",
    "StoreCounters",
    "first_match_index",
]


def first_match_index(mask: np.ndarray) -> Optional[int]:
    """Index of the first True row of a boolean mask, or None.

    This is what preserves the paper's first-match semantics after the scan is
    vectorized: the kernel evaluates every row, but the *earliest* matching
    representative is still the one chosen.
    """
    if mask.size == 0:
        return None
    # ndarray.argmax() avoids the np.argmax dispatch wrapper; this runs once
    # per candidate-bucket probe, which is the reduction's innermost call.
    index = mask.argmax()
    return int(index) if mask[index] else None


@dataclass(slots=True)
class MatchCounters(AdditiveCounts):
    """Instrumentation of the match-kernel stage of one reduction.

    ``calls`` counts kernel invocations, ``rows_compared`` the probe ×
    representative pairs those invocations evaluated, and ``seconds`` their
    accumulated wall time.  The per-row step makes one invocation per segment
    that had a candidate; the batch step one per block of a key's probes
    against a non-empty bucket, one per leader round, and one per block of
    an all-pairs resolve, which compares every pair of the key's rows left.
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
    """Lookup/eviction counters of one representative store."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / lookups; 1.0 when nothing was looked up."""
        return self.hits / self.lookups if self.lookups else 1.0


class CandidateList:
    """Ordered stored-representative bucket with a contiguous row matrix.

    Behaves as a sequence of :class:`StoredSegment` (the interface the scan
    and the iteration metrics use).  When its representatives are appended
    with their feature rows, row ``i`` of the matrix is the row of entry
    ``i`` — written at append time, compacted in place when a bounded store
    evicts leading entries.
    """

    __slots__ = ("_entries", "_matrix", "_scales", "_views")

    #: Minimum row capacity allocated for a new matrix.
    MIN_CAPACITY = 4

    def __init__(self) -> None:
        self._entries: list["StoredSegment"] = []
        self._matrix: Optional[np.ndarray] = None  # first len(_entries) rows are live
        self._scales: Optional[np.ndarray] = None  # per-row scale, when the metric has one
        self._views = None  # cached (matrix[:n], scales[:n])

    # -- sequence protocol (what the scan sees) --------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator["StoredSegment"]:
        return iter(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = "no" if self._matrix is None else "with"
        return f"<CandidateList {len(self._entries)} entries, {rows} rows>"

    # -- mutation --------------------------------------------------------------

    def append(
        self,
        stored: "StoredSegment",
        row: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> None:
        """Register a new representative, with its feature row when it has one.

        ``row`` is the probe vector that just failed to match — it *is* the
        representative's matrix row — and ``scale`` the metric's
        ``row_scale`` of it (None for a metric without the hook).
        """
        self.extend([stored], None if row is None else [row], None if scale is None else [scale])

    def extend(self, entries: Sequence["StoredSegment"], rows=None, scales=None) -> None:
        """:meth:`append` ``entries`` in order, each with its row of ``rows`` (and ``scales``).

        The buffers are allocated on the first rows and double as they fill.
        A bucket holds a row per entry or none: mixing the two would leave the
        dense probe comparing against a row that was never written.
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
        self._views = None

    def trim_front(self, n: int) -> None:
        """Drop the ``n`` oldest representatives, compacting matrix rows.

        Used by the bounded store's eviction: the surviving rows are shifted
        to the front of the existing buffer, so the matrix never reallocates
        on eviction and insertion order is preserved.
        """
        if n <= 0:
            return
        del self._entries[:n]
        self._views = None
        surviving = len(self._entries)
        if self._matrix is not None and surviving:
            self._matrix[:surviving] = self._matrix[n : n + surviving].copy()
            if self._scales is not None:
                self._scales[:surviving] = self._scales[n : n + surviving].copy()

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        """Checkpointable state: entries plus their matrix and scale rows.

        The columns are trimmed to their live rows (spare growth capacity is
        not worth shipping) and kept **intact** through the round trip, so a
        restored bucket probes exactly as the original would.
        """
        n = len(self._entries)
        # A zero-row matrix (eviction trimmed every entry) is stored as None:
        # restoring a 0-capacity buffer would break the doubling growth rule,
        # and an empty matrix carries no information.
        keep = n > 0 and self._matrix is not None
        return {
            "entries": self._entries,
            "matrix": self._matrix[:n].copy() if keep else None,
            "scales": self._scales[:n].copy() if keep and self._scales is not None else None,
        }

    def __setstate__(self, state):
        self._entries = state["entries"]
        self._matrix = state["matrix"]
        self._scales = state["scales"]
        self._views = None

    # -- the matrix ------------------------------------------------------------

    def matrix_and_scales(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The feature rows of this bucket's entries and their cached scales.

        Metrics whose match limit scales with each candidate's largest
        measurement magnitude (Minkowski, wavelet) declare a ``row_scale``
        hook; its value is stored next to the row, so the kernel doesn't
        recompute ``abs(matrix).max(axis=1)`` on every incoming segment.
        Metrics without the hook get None.

        The result pair is memoized until the bucket's rows change (append,
        eviction): in steady state — a probe per incoming segment, few new
        representatives — this is a plain attribute read on the reduction's
        hottest path.
        """
        views = self._views
        if views is None:
            n = len(self._entries)
            scales = self._scales
            views = self._views = (self._matrix[:n], None if scales is None else scales[:n])
        return views


_EMPTY: tuple = ()


class RepresentativeStore:
    """The per-key candidate buckets behind the reducer — the one store.

    ``candidates(key)`` returns the representatives that share the key's
    structure (possibly empty) and counts the lookup; ``add(key, stored)``
    registers a new representative under the key.  Each key's bucket stays in
    insertion order — the paper's algorithm matches against representatives
    in the order they were first stored.

    With ``capacity=None`` (the default) nothing is ever evicted.  Otherwise
    at most ``capacity`` representatives are retained: recency is tracked per
    structural key (a lookup hit or an insertion touches the key), and when
    an insertion pushes the total over ``capacity``, whole
    least-recently-used key buckets are evicted until the store fits again.
    When everything lives under a single key (homogeneous traces — the hot
    path a bound exists for), the oldest representatives of that bucket are
    trimmed instead, so the capacity is a hard ceiling either way.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None:
            if capacity < 1:
                raise ValueError(f"store capacity must be >= 1, got {capacity}")
            capacity = int(capacity)
        self.capacity = capacity
        self.counters = StoreCounters()
        # Recency order is only kept (and paid for) when there is a bound.
        self._by_key: dict[Hashable, CandidateList] = {} if capacity is None else OrderedDict()
        self._size = 0

    def candidates(self, key: Hashable) -> Sequence["StoredSegment"]:
        counters = self.counters
        counters.lookups += 1
        found = self._by_key.get(key)
        if found:
            if self.capacity is not None:
                self._by_key.move_to_end(key)
            counters.hits += 1
            return found
        counters.misses += 1
        return _EMPTY

    def add(
        self,
        key: Hashable,
        stored: "StoredSegment",
        row: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> None:
        """Store a representative under ``key`` (see :meth:`CandidateList.append`)."""
        rows, scales = None if row is None else [row], None if scale is None else [scale]
        self.extend(key, [stored], rows, scales)

    def extend(
        self, key: Hashable, entries: Sequence["StoredSegment"], rows=None, scales=None
    ) -> None:
        """Store ``entries`` under ``key`` in order (see :meth:`CandidateList.extend`)."""
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.extend(entries, rows, scales)
        self._size += len(entries)
        if self.capacity is not None:
            self._by_key.move_to_end(key)
            self._evict_over_capacity(bucket)

    def _evict_over_capacity(self, bucket: CandidateList) -> None:
        while self._size > self.capacity:
            if len(self._by_key) > 1:
                _, evicted = self._by_key.popitem(last=False)
                self._size -= len(evicted)
                self.counters.evictions += len(evicted)
            else:
                # Everything lives under one structural key (the homogeneous
                # hot path); trim its oldest representatives so the capacity
                # really is a hard ceiling.  trim_front also compacts the
                # bucket's matrix rows in place, keeping them contiguous.
                excess = self._size - self.capacity
                bucket.trim_front(excess)
                self._size -= excess
                self.counters.evictions += excess

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
        """Number of representatives currently retained as match candidates."""
        return self._size

    def __getstate__(self):
        """Explicit checkpoint state: capacity, (recency-ordered) buckets, counters.

        Spelled out (rather than relying on the default protocol) so
        the session checkpoint format is stable against refactors of the
        class layout; bucket keys are rehashed on restore by dict
        reconstruction, which is what makes checkpoints portable across
        processes with different string-hash salts.
        """
        return {
            "capacity": self.capacity,
            "by_key": self._by_key,
            "size": self._size,
            "counters": self.counters,
        }

    def __setstate__(self, state):
        self.capacity = state["capacity"]
        self.counters = state["counters"]
        self._by_key = state["by_key"]
        self._size = state["size"]
