"""Tests for the representative store, and the name the benchmark builds it by."""

import pickle

import numpy as np
import pytest

from repro.core.candidates import CandidateList, RepresentativeStore, StoreCounters
from repro.core.reduced import StoredSegment
from repro.pipeline.store import create_store

from tests.conftest import make_segment


def _stored(sid, context="main.1"):
    return StoredSegment(
        segment_id=sid, segment=make_segment(context, [("f", 0.0, 1.0)], end=2.0)
    )


def _row(sid):
    return np.array([0.0, 1.0, 2.0 + sid])


class TestStore:
    def test_miss_then_hit(self):
        store = RepresentativeStore()
        assert store.candidates("k") == ()
        store.add("k", _stored(0))
        assert [s.segment_id for s in store.candidates("k")] == [0]
        assert store.counters.lookups == 2
        assert store.counters.hits == 1
        assert store.counters.misses == 1

    def test_candidates_keep_insertion_order(self):
        store = RepresentativeStore()
        for sid in range(4):
            store.add("k", _stored(sid))
        assert [s.segment_id for s in store.candidates("k")] == [0, 1, 2, 3]

    def test_len_counts_representatives(self):
        store = RepresentativeStore()
        store.add("a", _stored(0))
        store.add("a", _stored(1))
        store.add("b", _stored(2))
        assert len(store) == 3

    def test_keeps_every_representative(self):
        store = RepresentativeStore()
        for sid in range(200):
            store.add(sid % 7, _stored(sid))
        assert len(store) == 200
        assert [s.segment_id for s in store.candidates(3)] == list(range(3, 200, 7))

    def test_bucket_and_count_lookups_book_what_candidates_would(self):
        store, probed = RepresentativeStore(), RepresentativeStore()
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


class TestCounters:
    def test_hit_rate(self):
        assert StoreCounters().hit_rate == 1.0
        assert StoreCounters(lookups=4, hits=1).hit_rate == 0.25


class TestCreateStore:
    def test_none_means_a_fresh_store(self):
        store = create_store(None)
        assert type(store) is RepresentativeStore and len(store) == 0
        assert create_store() is not create_store()

    def test_a_capacity_is_refused(self):
        with pytest.raises(ValueError, match="capacity"):
            create_store(8)


class TestPickling:
    def test_round_trip_keeps_buckets_rows_order_and_counters(self):
        store = RepresentativeStore()
        for sid, key in enumerate(("a", "b", "a", "c")):
            store.add(key, _stored(sid), _row(sid), 2.0 + sid)
        store.candidates("a")
        store.candidates("missing")
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == len(store) == 4
        assert clone.counters == store.counters
        assert list(clone._by_key) == list(store._by_key) == ["a", "b", "c"]
        bucket = clone.bucket("a")
        assert isinstance(bucket, CandidateList)
        assert [s.segment_id for s in bucket] == [0, 2]
        matrix, scales = bucket.matrix_and_scales()
        assert matrix.tolist() == [_row(0).tolist(), _row(2).tolist()]
        assert scales.tolist() == [2.0, 4.0]
