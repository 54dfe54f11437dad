"""Batched candidate matching: per-key candidate lists backed by row matrices.

The matching algorithm compares every incoming segment against all stored
representatives that share its structural key, in insertion order, returning
the first match (Section 3.1 of the paper).  That scan is the reduction's
inner loop, so instead of a Python loop over :class:`StoredSegment` objects
the candidates of each key are kept in a :class:`CandidateList`: an ordered
sequence that *also* maintains a contiguous 2-D matrix with one feature-vector
row per representative.  A metric's dense probe (``match_row``) then
evaluates all candidates in one NumPy broadcast and returns the first match.

Because every candidate under one structural key has the same structure, all
rows have the same width; the matrix grows geometrically so appending a
representative is amortised O(row).  Rows hold whatever vector layout the
owning metric asks for (canonical pairwise timestamps, the Minkowski layout,
or pre-transformed wavelet coefficients) — the vectors themselves are cached
on the :class:`StoredSegment` and invalidated when ``iter_avg`` mutates the
stored timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.obs.metrics import AdditiveCounts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reduced import StoredSegment

__all__ = [
    "BATCH_STORES",
    "CandidateList",
    "InlineStore",
    "MatchCounters",
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
    that had a candidate; the batch step makes one per structural key with a
    non-empty bucket plus one per new representative, over no more pairs.
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


class CandidateList:
    """Ordered stored-representative bucket with a contiguous row matrix.

    Behaves as a sequence of :class:`StoredSegment` (the interface the legacy
    scan and the iteration metrics use) while lazily maintaining, for one
    owning metric, a 2-D float matrix whose row ``i`` is the metric's feature
    vector of entry ``i``.  The matrix is built on first use, extended
    incrementally as representatives are appended, and compacted in place when
    a bounded store evicts leading entries.
    """

    __slots__ = ("_entries", "_owner", "_matrix", "_scales", "_built", "_views")

    #: Minimum row capacity allocated for a new matrix.
    MIN_CAPACITY = 4

    def __init__(self) -> None:
        self._entries: list["StoredSegment"] = []
        self._owner = None  # metric the matrix rows belong to
        self._matrix: Optional[np.ndarray] = None
        self._scales: Optional[np.ndarray] = None  # per-row scale cache
        self._built = 0  # entries materialized into the matrix so far
        self._views = None  # cached (matrix[:n], scales[:n])

    # -- sequence protocol (what the legacy scan path sees) -------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator["StoredSegment"]:
        return iter(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CandidateList {len(self._entries)} entries, {self._built} rows built>"

    # -- mutation --------------------------------------------------------------

    def append(self, stored: "StoredSegment") -> None:
        """Register a new representative (its matrix row is built lazily)."""
        self._entries.append(stored)
        self._views = None

    def append_built(self, stored: "StoredSegment", metric, row: np.ndarray) -> None:
        """Register a representative whose feature row is already built.

        The columnar path probes each incoming segment with a pre-built
        vector; when the segment becomes a new representative that same
        vector *is* its matrix row, so it is written into the bucket directly
        instead of being recomputed at the next probe.  The direct write only
        happens when this bucket's matrix already belongs to ``metric``, has
        no lazy backlog, and (once allocated) the row width matches; any
        other state falls back to the plain lazy append, which stays cheap
        because the caller seeds the vector on the stored segment's cache.
        """
        n = len(self._entries)
        matrix = self._matrix
        if self._owner is None and not n:
            self._owner = metric
        if (
            metric is self._owner
            and self._built == n
            and (matrix is None or row.size == matrix.shape[1])
        ):
            self._write_row(row, metric, n + 1)
        self._entries.append(stored)
        self._views = None

    def _write_row(self, row: np.ndarray, metric, wanted: int) -> None:
        """Write ``row`` as the next built matrix row (and cache its scale).

        The buffers are allocated on the first row with room for ``wanted``
        rows and double whenever they fill up.
        """
        index = self._built
        matrix = self._matrix
        if matrix is None:
            capacity = self.MIN_CAPACITY
            while capacity < wanted:
                capacity *= 2
            matrix = self._matrix = np.zeros((capacity, row.size), dtype=float)
            if metric.row_scale is not None:
                self._scales = np.zeros(capacity, dtype=float)
        elif index >= matrix.shape[0]:
            grown = np.zeros((matrix.shape[0] * 2, matrix.shape[1]), dtype=float)
            grown[:index] = matrix[:index]
            matrix = self._matrix = grown
            if self._scales is not None:
                scales = np.zeros(grown.shape[0], dtype=float)
                scales[:index] = self._scales[:index]
                self._scales = scales
        matrix[index] = row
        if self._scales is not None:
            self._scales[index] = metric.row_scale(row)
        self._built = index + 1

    def trim_front(self, n: int) -> None:
        """Drop the ``n`` oldest representatives, compacting matrix rows.

        Used by bounded stores' eviction: the surviving rows are shifted to
        the front of the existing buffer, so the matrix never reallocates on
        eviction and insertion order is preserved.
        """
        if n <= 0:
            return
        del self._entries[:n]
        self._views = None
        if self._matrix is not None:
            surviving = max(0, self._built - n)
            if surviving:
                self._matrix[:surviving] = self._matrix[n : n + surviving].copy()
                if self._scales is not None:
                    self._scales[:surviving] = self._scales[n : n + surviving].copy()
            self._built = surviving

    def refresh(self, stored: "StoredSegment") -> None:
        """Rebuild the matrix row of a mutated representative.

        Called after a metric with ``mutates_stored`` (``iter_avg``) updates a
        stored segment's timestamps; the segment's own vector cache has been
        invalidated by then, so the row is recomputed from fresh values.
        """
        if self._owner is None:
            return
        try:
            index = self._entries.index(stored)
        except ValueError:
            return
        if index < self._built:
            row = np.asarray(self._owner.candidate_vector(stored), dtype=float)
            self._matrix[index] = row
            if self._scales is not None:
                self._scales[index] = self._owner.row_scale(row)

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        """Checkpointable state: entries plus the built matrix columns.

        The matrix and scale columns are trimmed to their built rows (spare
        growth capacity is not worth shipping) and kept **intact** through
        the round trip, so a restored bucket probes without a
        rebuild-on-first-probe.  The owner metric rides along by reference;
        inside a session checkpoint every bucket's owner is the session's one
        metric instance, which pickle memoization keeps as a single shared
        object.
        """
        built = self._built
        # A zero-row matrix (possible after eviction trimmed every built row)
        # is stored as None: restoring a 0-capacity buffer would break the
        # doubling growth rule, and an empty matrix carries no information.
        keep = built > 0 and self._matrix is not None
        return {
            "entries": self._entries,
            "owner": self._owner,
            "matrix": self._matrix[:built].copy() if keep else None,
            "scales": self._scales[:built].copy() if keep and self._scales is not None else None,
            "built": built if keep else 0,
        }

    def __setstate__(self, state):
        self._entries = state["entries"]
        self._owner = state["owner"]
        self._matrix = state["matrix"]
        self._scales = state["scales"]
        self._built = state["built"]
        self._views = None

    # -- the matrix ------------------------------------------------------------

    def matrix(self, metric) -> np.ndarray:
        """Feature-vector matrix for ``metric``: one row per representative.

        ``metric`` must provide ``candidate_vector(stored) -> 1-D ndarray``
        (see :class:`repro.core.metrics.base.DistanceMetric`).  The matrix is
        owned by one metric at a time; a different metric triggers a full
        rebuild (in practice each reduction run uses a single metric).
        """
        return self.matrix_and_scales(metric)[0]

    def matrix_and_scales(self, metric) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Like :meth:`matrix`, plus the cached per-row scale vector.

        Metrics whose match limit scales with each candidate's largest
        measurement magnitude (Minkowski, wavelet) declare a ``row_scale``
        hook; its value is computed once per row at build time and cached, so
        the kernel doesn't recompute ``abs(matrix).max(axis=1)`` on every
        incoming segment.  Metrics without the hook get None.

        The result pair is memoized until the bucket's rows change (append,
        eviction, owner switch): in steady state — a probe per incoming
        segment, few new representatives — this is a plain attribute read on
        the reduction's hottest path.  In-place row refreshes after
        ``iter_avg`` mutations don't invalidate it; the views alias the
        refreshed buffer.
        """
        if metric is not self._owner:
            self._owner = metric
            self._matrix = None
            self._scales = None
            self._built = 0
            self._views = None
        elif self._views is not None:
            return self._views
        n = len(self._entries)
        while self._built < n:
            row = np.asarray(metric.candidate_vector(self._entries[self._built]), dtype=float)
            self._write_row(row, metric, n)
        if self._matrix is None:
            # No entries yet: an empty matrix with unknown width.
            return np.zeros((0, 0), dtype=float), None
        self._views = (self._matrix[:n], self._scales[:n] if self._scales is not None else None)
        return self._views


class InlineStore:
    """The unbounded per-key candidate dictionary (the reducer's default store).

    Also the storage layer of :class:`repro.pipeline.store.UnboundedStore`,
    which subclasses it to add lookup counters — the unbounded semantics are
    implemented exactly once.  Buckets are :class:`CandidateList`\\ s, so the
    dense match kernel sees a contiguous row matrix per structural key; to
    the per-candidate scan they still behave as ordered sequences.
    """

    __slots__ = ("_by_key", "_size")

    def __init__(self) -> None:
        self._by_key: dict[tuple, CandidateList] = {}
        self._size = 0

    def candidates(self, key: tuple) -> Sequence["StoredSegment"]:
        return self._by_key.get(key, ())

    def add(self, key: tuple, stored: "StoredSegment") -> None:
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.append(stored)
        self._size += 1

    def add_built(self, key: tuple, stored: "StoredSegment", metric, row) -> None:
        """Register a representative with its feature row already built.

        Optional store hook (the columnar path discovers it via ``getattr``):
        like :meth:`add`, but hands the bucket the probe vector that just
        failed to match so it becomes the new matrix row without a rebuild.
        """
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.append_built(stored, metric, row)
        self._size += 1

    def bucket(self, key: tuple) -> Optional[CandidateList]:
        """The key's bucket without counting a lookup (the batch step's probe)."""
        return self._by_key.get(key)

    def count_lookups(self, hits: int, misses: int) -> None:
        """Book the lookups the batch step resolved in bulk (no-op: nothing counts here)."""

    def __len__(self) -> int:
        return self._size


#: Store classes the reducer's batch step may serve, by *exact* type.  The
#: step reads ``bucket()`` and books ``count_lookups()`` in place of calling
#: ``candidates()`` per row, so a subclass that filters or counts in
#: ``candidates``/``add``/``add_built`` is not covered by its parent's entry:
#: it keeps the per-row step until it adds itself here.
BATCH_STORES: set = {InlineStore}
