"""Representative stores: the per-key candidate lists behind the reducer.

The serial reducer keeps an unbounded ``dict`` mapping each segment's
structural key to the list of stored representatives with that structure.  At
large rank counts and long traces that dictionary is the reducer's entire
memory footprint, so the pipeline makes it pluggable:

* :class:`UnboundedStore` — exactly the dictionary the reducer always kept;
  the default, and byte-identical to the historical behaviour.
* :class:`LRUStore` — a bounded store with configurable capacity (counted in
  stored representatives) and least-recently-used eviction at structural-key
  granularity.

Eviction never removes a representative from the *output* (segments already
emitted stay emitted; the reduced trace remains valid); it only removes the
representative from the match-candidate set, so later executions of an evicted
pattern store a fresh representative instead of matching.  Bounded stores
therefore trade a little compression for a hard memory ceiling.

Both stores count lookups, hits, misses, and evictions so the pipeline can
report candidate-store behaviour per run.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.candidates import BATCH_STORES, CandidateList, InlineStore
from repro.core.reduced import StoredSegment
from repro.obs.metrics import AdditiveCounts

__all__ = ["StoreCounters", "RepresentativeStore", "UnboundedStore", "LRUStore", "create_store"]

_EMPTY: tuple[StoredSegment, ...] = ()


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


class RepresentativeStore:
    """Interface the reducer talks to instead of its inline dictionary.

    ``candidates(key)`` returns the representatives that share the key's
    structure (possibly empty) and counts the lookup; ``add(key, stored)``
    registers a new representative under the key.  Implementations must keep
    each key's candidate list in insertion order — the paper's algorithm
    matches against representatives in the order they were first stored.
    """

    def __init__(self) -> None:
        self.counters = StoreCounters()

    def candidates(self, key: Hashable) -> Sequence[StoredSegment]:
        raise NotImplementedError

    def add(self, key: Hashable, stored: StoredSegment) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of representatives currently retained as match candidates."""
        raise NotImplementedError


class UnboundedStore(InlineStore, RepresentativeStore):
    """The historical unbounded per-key candidate dictionary, plus counters.

    The storage semantics live in the core's
    :class:`~repro.core.candidates.InlineStore` (the serial default); this
    class only layers the lookup counters on top, so the "byte-identical
    default path" behaviour has exactly one implementation.
    """

    def __init__(self) -> None:
        RepresentativeStore.__init__(self)
        InlineStore.__init__(self)

    def candidates(self, key: Hashable) -> Sequence[StoredSegment]:
        # Reads the inline store's bucket dict directly rather than calling
        # InlineStore.candidates: this is the innermost call of every
        # reduction, and the extra frame is measurable at sweep-grid scale.
        counters = self.counters
        counters.lookups += 1
        found = self._by_key.get(key)
        if found:
            counters.hits += 1
            return found
        counters.misses += 1
        return _EMPTY

    def count_lookups(self, hits: int, misses: int) -> None:
        counters = self.counters
        counters.lookups += hits + misses
        counters.hits += hits
        counters.misses += misses

    def __getstate__(self):
        """Explicit checkpoint state (buckets, size, counters).

        Spelled out (rather than relying on the default slots+dict protocol)
        so the session checkpoint format is stable against refactors of the
        class layout; bucket keys are rehashed on restore by dict
        reconstruction, which is what makes checkpoints portable across
        processes with different string-hash salts.
        """
        return {"by_key": self._by_key, "size": self._size, "counters": self.counters}

    def __setstate__(self, state):
        self.counters = state["counters"]
        self._by_key = state["by_key"]
        self._size = state["size"]


# Its ``candidates`` only counts, and ``count_lookups`` books the same totals.
BATCH_STORES.add(UnboundedStore)


class LRUStore(RepresentativeStore):
    """Bounded store: at most ``capacity`` representatives, LRU-evicted.

    Recency is tracked per structural key (a lookup or insertion touches the
    key); when an insertion pushes the total representative count over
    ``capacity``, whole least-recently-used key buckets are evicted until the
    store fits again.  When everything lives under a single key (homogeneous
    traces — the hot path bounded stores exist for), the oldest
    representatives of that bucket are trimmed instead, so the capacity is a
    hard ceiling either way.  Candidate lists always remain in insertion
    order, as the matching algorithm's first-match semantics require.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRUStore capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = int(capacity)
        self._by_key: OrderedDict[Hashable, CandidateList] = OrderedDict()
        self._size = 0

    def candidates(self, key: Hashable) -> Sequence[StoredSegment]:
        self.counters.lookups += 1
        found = self._by_key.get(key)
        if found:
            self._by_key.move_to_end(key)
            self.counters.hits += 1
            return found
        self.counters.misses += 1
        return _EMPTY

    def add(self, key: Hashable, stored: StoredSegment) -> None:
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        else:
            self._by_key.move_to_end(key)
        bucket.append(stored)
        self._size += 1
        self._evict_over_capacity(bucket)

    def add_built(self, key: Hashable, stored: StoredSegment, metric, row) -> None:
        """Like :meth:`add`, with the representative's feature row pre-built.

        The columnar path's optional store hook — same recency/eviction
        semantics, but the bucket ingests the probe vector as its new matrix
        row instead of rebuilding it lazily.
        """
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        else:
            self._by_key.move_to_end(key)
        bucket.append_built(stored, metric, row)
        self._size += 1
        self._evict_over_capacity(bucket)

    def __getstate__(self):
        """Explicit checkpoint state: capacity, recency-ordered buckets, counters."""
        return {
            "capacity": self.capacity,
            "by_key": self._by_key,
            "size": self._size,
            "counters": self.counters,
        }

    def __setstate__(self, state):
        self.counters = state["counters"]
        self.capacity = state["capacity"]
        self._by_key = state["by_key"]
        self._size = state["size"]

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

    def __len__(self) -> int:
        return self._size


def create_store(capacity: int | None = None) -> RepresentativeStore:
    """Build the store a pipeline worker should use.

    ``capacity=None`` means unbounded (the byte-identical default path).
    """
    return UnboundedStore() if capacity is None else LRUStore(capacity)
