"""Tests for the representative store, unbounded and bounded."""

import pickle

import numpy as np
import pytest

from repro.core.candidates import CandidateList
from repro.core.reduced import StoredSegment
from repro.pipeline.store import RepresentativeStore, StoreCounters, create_store

from tests.conftest import make_segment


def _stored(sid, context="main.1"):
    return StoredSegment(
        segment_id=sid, segment=make_segment(context, [("f", 0.0, 1.0)], end=2.0)
    )


def _row(sid):
    return np.array([0.0, 1.0, 2.0 + sid])


class TestUnbounded:
    def test_miss_then_hit(self):
        store = create_store()
        assert store.candidates("k") == ()
        store.add("k", _stored(0))
        assert [s.segment_id for s in store.candidates("k")] == [0]
        assert store.counters.lookups == 2
        assert store.counters.hits == 1
        assert store.counters.misses == 1
        assert store.counters.evictions == 0

    def test_candidates_keep_insertion_order(self):
        store = create_store()
        for sid in range(4):
            store.add("k", _stored(sid))
        assert [s.segment_id for s in store.candidates("k")] == [0, 1, 2, 3]

    def test_len_counts_representatives(self):
        store = create_store()
        store.add("a", _stored(0))
        store.add("a", _stored(1))
        store.add("b", _stored(2))
        assert len(store) == 3

    def test_never_evicts(self):
        store = create_store()
        for sid in range(200):
            store.add(sid % 7, _stored(sid))
        assert len(store) == 200 and store.counters.evictions == 0

    def test_bucket_and_count_lookups_book_what_candidates_would(self):
        store, probed = create_store(), create_store()
        for s in (store, probed):
            s.add("k", _stored(0))
        assert store.bucket("k") is store.candidates("k")
        assert store.bucket("missing") is None
        probed.candidates("k")
        probed.candidates("missing")
        probed.candidates("missing")
        assert probed.bucket("k") is not None  # counts nothing
        store.count_lookups(0, 2)
        assert store.counters == probed.counters


class TestBounded:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            create_store(0)

    def test_evicts_least_recently_used_key(self):
        store = create_store(2)
        store.add("a", _stored(0))
        store.add("b", _stored(1))
        store.add("c", _stored(2))  # evicts "a"
        assert store.candidates("a") == ()
        assert [s.segment_id for s in store.candidates("b")] == [1]
        assert [s.segment_id for s in store.candidates("c")] == [2]
        assert store.counters.evictions == 1
        assert len(store) == 2

    def test_lookup_refreshes_recency(self):
        store = create_store(2)
        store.add("a", _stored(0))
        store.add("b", _stored(1))
        store.candidates("a")  # "b" is now least recently used
        store.add("c", _stored(2))
        assert store.candidates("b") == ()
        assert [s.segment_id for s in store.candidates("a")] == [0]

    def test_insertion_refreshes_recency(self):
        store = create_store(3)
        store.add("a", _stored(0))
        store.add("b", _stored(1))
        store.add("a", _stored(2))  # "b" is now least recently used
        store.add("c", _stored(3))
        assert store.candidates("b") == ()
        assert [s.segment_id for s in store.candidates("a")] == [0, 2]

    def test_evicts_whole_buckets(self):
        store = create_store(3)
        store.add("a", _stored(0))
        store.add("a", _stored(1))
        store.add("b", _stored(2))
        store.add("b", _stored(3))  # over capacity: bucket "a" (2 reps) evicted
        assert store.candidates("a") == ()
        assert [s.segment_id for s in store.candidates("b")] == [2, 3]
        assert store.counters.evictions == 2
        assert len(store) == 2

    def test_single_bucket_trims_oldest(self):
        store = create_store(2)
        for sid in range(5):
            store.add("a", _stored(sid), _row(sid), 2.0 + sid)
        # The capacity is a hard ceiling even when one key holds everything;
        # the newest representatives survive, in insertion order, and so do
        # their rows and scales.
        bucket = store.candidates("a")
        assert [s.segment_id for s in bucket] == [3, 4]
        matrix, scales = bucket.matrix_and_scales()
        assert matrix.tolist() == [_row(3).tolist(), _row(4).tolist()]
        assert scales.tolist() == [5.0, 6.0]
        assert store.counters.evictions == 3
        assert len(store) == 2


class TestCounters:
    def test_hit_rate(self):
        assert StoreCounters().hit_rate == 1.0
        assert StoreCounters(lookups=4, hits=1).hit_rate == 0.25


class TestCreateStore:
    def test_none_means_unbounded(self):
        store = create_store(None)
        assert type(store) is RepresentativeStore and store.capacity is None

    def test_capacity_means_bounded(self):
        store = create_store(8)
        assert type(store) is RepresentativeStore and store.capacity == 8


class TestPickling:
    @pytest.mark.parametrize("capacity", [None, 4])
    def test_round_trip_keeps_buckets_rows_order_and_counters(self, capacity):
        store = create_store(capacity)
        for sid, key in enumerate(("a", "b", "a", "c")):
            store.add(key, _stored(sid), _row(sid), 2.0 + sid)
        store.candidates("a")  # touch: bounded recency becomes b, c, a
        store.candidates("missing")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.capacity == capacity and len(clone) == len(store) == 4
        assert clone.counters == store.counters
        assert list(clone._by_key) == list(store._by_key)
        assert list(clone._by_key) == (["a", "b", "c"] if capacity is None else ["b", "c", "a"])
        bucket = clone.bucket("a")
        assert isinstance(bucket, CandidateList)
        assert [s.segment_id for s in bucket] == [0, 2]
        matrix, scales = bucket.matrix_and_scales()
        assert matrix.tolist() == [_row(0).tolist(), _row(2).tolist()]
        assert scales.tolist() == [2.0, 4.0]

    def test_restored_bounded_store_keeps_evicting(self):
        store = create_store(2)
        store.add("a", _stored(0))
        store.add("b", _stored(1))
        clone = pickle.loads(pickle.dumps(store))
        clone.add("c", _stored(2))
        assert clone.candidates("a") == () and len(clone) == 2
        assert clone.counters.evictions == 1
