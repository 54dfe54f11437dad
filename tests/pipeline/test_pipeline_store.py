"""Tests for the bounded/unbounded representative stores."""

import pytest

from repro.core.reduced import StoredSegment
from repro.pipeline.store import LRUStore, StoreCounters, UnboundedStore, create_store

from tests.conftest import make_segment


def _stored(sid, context="main.1"):
    return StoredSegment(
        segment_id=sid, segment=make_segment(context, [("f", 0.0, 1.0)], end=2.0)
    )


class TestUnboundedStore:
    def test_miss_then_hit(self):
        store = UnboundedStore()
        assert store.candidates("k") == ()
        store.add("k", _stored(0))
        assert [s.segment_id for s in store.candidates("k")] == [0]
        assert store.counters.lookups == 2
        assert store.counters.hits == 1
        assert store.counters.misses == 1
        assert store.counters.evictions == 0

    def test_candidates_keep_insertion_order(self):
        store = UnboundedStore()
        for sid in range(4):
            store.add("k", _stored(sid))
        assert [s.segment_id for s in store.candidates("k")] == [0, 1, 2, 3]

    def test_len_counts_representatives(self):
        store = UnboundedStore()
        store.add("a", _stored(0))
        store.add("a", _stored(1))
        store.add("b", _stored(2))
        assert len(store) == 3


class TestLRUStore:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUStore(0)

    def test_evicts_least_recently_used_key(self):
        store = LRUStore(capacity=2)
        store.add("a", _stored(0))
        store.add("b", _stored(1))
        store.add("c", _stored(2))  # evicts "a"
        assert store.candidates("a") == ()
        assert [s.segment_id for s in store.candidates("b")] == [1]
        assert [s.segment_id for s in store.candidates("c")] == [2]
        assert store.counters.evictions == 1
        assert len(store) == 2

    def test_lookup_refreshes_recency(self):
        store = LRUStore(capacity=2)
        store.add("a", _stored(0))
        store.add("b", _stored(1))
        store.candidates("a")  # "b" is now least recently used
        store.add("c", _stored(2))
        assert store.candidates("b") == ()
        assert [s.segment_id for s in store.candidates("a")] == [0]

    def test_evicts_whole_buckets(self):
        store = LRUStore(capacity=3)
        store.add("a", _stored(0))
        store.add("a", _stored(1))
        store.add("b", _stored(2))
        store.add("b", _stored(3))  # over capacity: bucket "a" (2 reps) evicted
        assert store.candidates("a") == ()
        assert [s.segment_id for s in store.candidates("b")] == [2, 3]
        assert store.counters.evictions == 2
        assert len(store) == 2

    def test_single_bucket_trims_oldest(self):
        store = LRUStore(capacity=2)
        for sid in range(5):
            store.add("a", _stored(sid))
        # The capacity is a hard ceiling even when one key holds everything;
        # the newest representatives survive, in insertion order.
        assert [s.segment_id for s in store.candidates("a")] == [3, 4]
        assert store.counters.evictions == 3
        assert len(store) == 2


class TestCounters:
    def test_hit_rate(self):
        assert StoreCounters().hit_rate == 1.0
        assert StoreCounters(lookups=4, hits=1).hit_rate == 0.25


class TestCreateStore:
    def test_none_means_unbounded(self):
        assert isinstance(create_store(None), UnboundedStore)

    def test_capacity_means_lru(self):
        store = create_store(8)
        assert isinstance(store, LRUStore)
        assert store.capacity == 8
