"""Tests for the representative store, the name the benchmark builds it by,
and that a rank reduced in one frame writes none."""

import pytest

from repro.core.candidates import CandidateList, RepresentativeStore, StoreCounters
from repro.core.metrics import DEFAULT_THRESHOLDS, METRIC_NAMES, create_metric
from repro.core.reduced import StoredSegment
from repro.experiments.config import build_workload
from repro.pipeline.engine import PipelineConfig, reduce_pipeline, sweep_pipeline
from repro.pipeline.store import create_store

from tests.conftest import make_segment


def _stored(sid, context="main.1"):
    return StoredSegment(
        segment_id=sid, segment=make_segment(context, [("f", 0.0, 1.0)], end=2.0)
    )


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


class TestARankReducedInOneFrameWritesNoStore:
    """Only a later frame reads a bucket, so the pipeline and a sweep, which
    step each rank's one frame, enter nothing in a store."""

    @pytest.fixture(scope="class")
    def trace(self):
        return build_workload("sweep3d_32p", "smoke").run()

    @pytest.fixture
    def extends(self, monkeypatch):
        calls = []
        extend = CandidateList.extend

        def counted(bucket, entries, rows=None):
            calls.append(len(entries))
            return extend(bucket, entries, rows)

        monkeypatch.setattr(CandidateList, "extend", counted)
        return calls

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_pipeline(self, trace, extends, executor):
        config = PipelineConfig(executor=executor, workers=2)
        for method in ("euclidean", "iter_avg"):
            result = reduce_pipeline(trace, create_metric(method), config)
            assert result.reduced.n_stored > 0
        assert extends == []

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sweep(self, trace, extends, executor):
        # Every method at its default, and each distance method at default / 50.
        plan = list(METRIC_NAMES) + [
            (method, DEFAULT_THRESHOLDS[method] / 50)
            for method in METRIC_NAMES
            if not method.startswith("iter_")
        ]
        result = sweep_pipeline(trace, plan, PipelineConfig(executor=executor, workers=2))
        assert all(outcome.reduced.n_stored > 0 for outcome in result)
        assert extends == []
