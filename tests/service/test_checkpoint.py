"""Checkpoint/restore: a resumed session continues bit-identically.

Covers the stores a restore rebuilds from the reduced ranks (a checkpoint
carries none: each must equal the live one, key order, ids and row bytes)
and the end-to-end guarantee: checkpoint mid-trace, restore — in this process
or a freshly spawned one — finish, and the reduced bytes, digest, and stats
equal an uninterrupted run's.
"""

import multiprocessing
import pickle

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import DEFAULT_THRESHOLDS, METRIC_NAMES
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


def _store_state(store):
    """A store's buckets in key order: each key's value, its ids and its rows' bytes."""
    return [
        (key.value, list(bucket), None if bucket._matrix is None else bucket.matrix().tobytes())
        for key, bucket in store._by_key.items()
    ]


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_a_restored_store_is_the_live_one(streams, metric_name):
    """A checkpoint carries no store: the one ``keep`` rebuilds from the
    restored rank's rows equals the one the live session kept frame by frame."""
    # A distance method at default / 50: most rows lead, so buckets run deep.
    strict = None if metric_name.startswith("iter_") else DEFAULT_THRESHOLDS[metric_name] / 50
    session = ReductionSession("t", SessionConfig(metric_name, strict))
    for rank, segments in streams.items():
        for lo in range(0, len(segments), 5):
            session.append(RankFrame.from_segments(rank, segments[lo : lo + 5]))
        session.flush()
    restored = restore_state(session_state(session))
    for rank, live in session._ranks.items():
        kept = restored._ranks[rank].store
        assert len(kept) == len(live.store) == live.reduced.n_stored > 0
        assert _store_state(kept) == _store_state(live.store), rank
    assert restored.live_representatives == session.live_representatives


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


@pytest.mark.parametrize("version", [999, 2, 3, 4, 5, 6])
def test_restore_rejects_unknown_version(streams, version):
    # Version 2: buckets pickled their owner metric and a built-row count.
    # Version 3: rank digests chained segments, not frame rows, so a resumed
    # session would never digest to its source again.  Version 4: stores and
    # the session config carried a capacity bound.  Version 5: reduced ranks
    # held representative objects, and buckets held the same objects.
    # Version 6: checkpoints carried the stores.  All must be refused, not
    # resumed from a misread state.
    assert STATE_VERSION == 7
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
