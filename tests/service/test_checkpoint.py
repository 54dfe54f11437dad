"""Checkpoint/restore: a resumed session continues bit-identically.

Covers the pickle satellites (stores and candidate lists round-trip with
their matrix and scale columns intact) and the end-to-end guarantee:
checkpoint mid-trace, restore — in this process or a freshly spawned one —
finish, and the reduced bytes, digest, and stats equal an uninterrupted
run's.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.benchmarks_ats import late_sender
from repro.core.candidates import CandidateList, RepresentativeStore
from repro.core.frames import RankFrame
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.pipeline.stream import rank_segment_streams
from repro.service import (
    ReductionSession,
    SessionConfig,
    load_checkpoint,
    restore_state,
    save_checkpoint,
    session_state,
)
from repro.service.checkpoint import STATE_VERSION
from repro.trace.io import serialize_reduced_trace


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=4, iterations=8, seed=3).run().segmented()


@pytest.fixture(scope="module")
def streams(trace):
    return {rank: list(segments) for rank, segments in rank_segment_streams(trace)}


def _run_split(config, streams, split, checkpoint=lambda s: restore_state(session_state(s))):
    """First halves → checkpoint hook → second halves → finish."""
    session = ReductionSession("t", config)
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments[:split]))
    session.flush()
    session = checkpoint(session)
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments[split:]))
    return session.finish()


def _run_straight(config, streams):
    session = ReductionSession("t", config)
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments))
    return session.finish()


class TestStorePickles:
    """Satellite: stores round-trip with the candidate-matrix columns intact."""

    def _populate(self, store, segments, first_id=0):
        # ``segments`` share one structure (the fixture's iteration bodies);
        # each enters as its id, as the reducer's core enters it.
        metric = create_metric("euclidean")
        for i, segment in enumerate(segments, first_id):
            row = metric.build_vector(segment.relative_to_start())
            store.add("k", i, row, metric.row_scale(row))

    def test_round_trip_preserves_columns_and_counters(self, streams):
        store = RepresentativeStore()
        self._populate(store, streams[0][1:7])
        store.candidates("k")
        store.candidates("missing")
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == len(store)
        assert clone.counters.lookups == store.counters.lookups
        assert clone.counters.misses == store.counters.misses
        bucket, bucket_clone = store.candidates("k"), clone.candidates("k")
        assert list(bucket_clone) == list(bucket) == list(range(6))
        # The candidate-matrix columns survive, trimmed to their live rows.
        assert isinstance(bucket_clone, CandidateList)
        np.testing.assert_array_equal(bucket_clone._matrix, bucket._matrix[:6])
        np.testing.assert_array_equal(bucket_clone._scales, bucket._scales[:6])

    def test_restored_bucket_keeps_growing(self, streams):
        # The growth rule doubles the matrix row count; a restored bucket
        # must grow cleanly from its trimmed copy.
        store = RepresentativeStore()
        self._populate(store, streams[0][1:4])
        clone = pickle.loads(pickle.dumps(store))
        self._populate(clone, streams[0][4:9], first_id=100)
        bucket = clone.candidates("k")
        assert len(bucket) == 8
        matrix, scales = bucket.matrix_and_scales()
        assert len(matrix) == len(scales) == 8

    def test_empty_candidate_list_round_trip(self):
        bucket = CandidateList()
        clone = pickle.loads(pickle.dumps(bucket))
        assert len(clone) == 0
        assert clone._matrix is None

    def test_bucket_order_survives(self, streams):
        store = RepresentativeStore()
        for i, key in enumerate(("b", "c", "a")):
            store.add(key, i)
        store.candidates("b")  # a lookup reorders nothing
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone._by_key) == list(store._by_key) == ["b", "c", "a"]


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_checkpoint_mid_trace_is_bit_identical(streams, metric_name):
    config = SessionConfig(metric_name)
    straight = _run_straight(config, streams)
    resumed = _run_split(config, streams, split=9)
    assert serialize_reduced_trace(resumed.reduced) == serialize_reduced_trace(
        straight.reduced
    )
    assert resumed.digest == straight.digest


def test_checkpoint_preserves_stats_and_seq(streams):
    config = SessionConfig("relDiff")
    session = ReductionSession("t", config)
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments[:5]))
    session.flush()
    clone = restore_state(session_state(session))
    assert clone.seq == session.seq
    assert clone.stats.segments == session.stats.segments
    assert clone.stats.appends == session.stats.appends
    assert clone.stats.match.calls == session.stats.match.calls
    assert clone.name == session.name and clone.config == session.config
    assert clone.live_representatives == session.live_representatives


def test_checkpoint_mid_record_stream():
    # A checkpoint taken while a segment is half-assembled (open segmenter
    # state) must resume without losing or duplicating records.
    config = SessionConfig("relDiff")
    raw = late_sender(nprocs=2, iterations=5, seed=7).run()
    straight = ReductionSession("t", config)
    for rank_trace in raw.ranks:
        straight.append_records(rank_trace.rank, rank_trace.records)
    want = straight.finish()

    session = ReductionSession("t", config)
    for rank_trace in raw.ranks:
        cut = len(rank_trace.records) // 2 + 1  # lands mid-segment
        session.append_records(rank_trace.rank, rank_trace.records[:cut])
        session = restore_state(session_state(session))
        session.append_records(rank_trace.rank, rank_trace.records[cut:])
    got = session.finish()
    assert serialize_reduced_trace(got.reduced) == serialize_reduced_trace(want.reduced)
    assert got.digest == want.digest


def test_checkpoint_file_round_trip(streams, tmp_path):
    config = SessionConfig("euclidean")
    path = tmp_path / "session.ckpt"

    def through_file(session):
        assert save_checkpoint(session, path) == path.stat().st_size
        return load_checkpoint(path)

    straight = _run_straight(config, streams)
    resumed = _run_split(config, streams, split=7, checkpoint=through_file)
    assert serialize_reduced_trace(resumed.reduced) == serialize_reduced_trace(
        straight.reduced
    )


def test_failed_write_leaves_previous_checkpoint_intact(streams, tmp_path, monkeypatch):
    """A write that dies part-way never tears the file under the final name."""
    import io

    from repro.service import checkpoint

    session = ReductionSession("t", SessionConfig("relDiff"))
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments[:4]))
    path = tmp_path / "session.ckpt"
    save_checkpoint(session, path)
    before = path.read_bytes()
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments[4:]))
    assert session_state(session) != before

    class DiskFillsUp(io.FileIO):
        def write(self, data):
            super().write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint.os, "fdopen", DiskFillsUp)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(session, path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["session.ckpt"]
    # The survivor is a whole checkpoint: it restores and finishes.
    assert load_checkpoint(path).finish().reduced.n_segments == 4 * len(streams)


@pytest.mark.parametrize("version", [999, 2, 3, 4, 5])
def test_restore_rejects_unknown_version(streams, version):
    # Version 2: buckets pickled their owner metric and a built-row count.
    # Version 3: rank digests chained segments, not frame rows, so a resumed
    # session would never digest to its source again.  Version 4: stores and
    # the session config carried a capacity bound.  Version 5: reduced ranks
    # held representative objects, and buckets held the same objects.  All
    # must be refused, not resumed from a misread state.
    assert STATE_VERSION == 6
    session = ReductionSession("t", SessionConfig("relDiff"))
    payload = pickle.loads(session_state(session))
    payload["version"] = version
    with pytest.raises(ValueError, match="version"):
        restore_state(pickle.dumps(payload))


def _finish_in_child(checkpoint_path, tail, out_path):
    """Spawn target: restore from file, append the tail, write reduced bytes."""
    session = load_checkpoint(checkpoint_path)
    for rank, segments in tail.items():
        session.append(RankFrame.from_segments(rank, segments))
    result = session.finish()
    with open(out_path, "wb") as handle:
        handle.write(serialize_reduced_trace(result.reduced))
        handle.write(b"\n--digest--\n")
        handle.write(result.digest.encode())


@pytest.mark.parametrize("metric_name", ["relDiff", "iter_avg"])
def test_restore_in_fresh_process(streams, tmp_path, metric_name):
    # The hard cross-process case: a spawned interpreter has a different
    # string-hash salt, so interned keys and store buckets must rehash on
    # restore; iter_avg additionally requires store/output object sharing to
    # survive the round trip.
    config = SessionConfig(metric_name)
    straight = _run_straight(config, streams)
    want = serialize_reduced_trace(straight.reduced)

    session = ReductionSession("t", config)
    split = 9
    for rank, segments in streams.items():
        session.append(RankFrame.from_segments(rank, segments[:split]))
    checkpoint_path = tmp_path / "mid.ckpt"
    save_checkpoint(session, checkpoint_path)

    tail = {rank: segments[split:] for rank, segments in streams.items()}
    out_path = tmp_path / "child.out"
    ctx = multiprocessing.get_context("spawn")
    child = ctx.Process(
        target=_finish_in_child, args=(str(checkpoint_path), tail, str(out_path))
    )
    child.start()
    child.join(timeout=120)
    assert child.exitcode == 0
    payload, digest = out_path.read_bytes().split(b"\n--digest--\n")
    assert payload == want
    assert digest.decode() == straight.digest
