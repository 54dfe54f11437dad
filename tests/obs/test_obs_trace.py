"""Unit tests for the span recorder: no-op fast path, nesting, scopes."""

from __future__ import annotations

import pickle
import threading

from repro import obs


def test_disabled_span_is_shared_noop_and_allocates_nothing():
    assert not obs.enabled()
    recorder = obs.Recorder()
    first = obs.span("rank.reduce", rank=0)
    second = obs.span("pipeline.merge")
    # The disabled path hands back one shared singleton: no per-call objects.
    assert first is second
    with first:
        pass
    # No recorder saw anything; span ids were never allocated anywhere.
    assert recorder.next_span_id == 1
    assert recorder.spans == []


def test_counter_and_observe_are_noops_when_disabled():
    assert not obs.enabled()
    obs.counter("ingest.segments", 5)
    obs.observe("dispatch.payload_bytes", 100)
    with obs.recording("check") as recorder:
        pass
    assert len(recorder.registry) == 0


def test_recording_captures_spans_and_restores_previous_scope():
    assert obs.current_recorder() is None
    with obs.recording("outer") as outer:
        assert obs.current_recorder() is outer
        with obs.recording("inner") as inner:
            assert obs.current_recorder() is inner
            with obs.span("stage"):
                pass
        assert obs.current_recorder() is outer
        assert inner.spans[0].name == "stage"
        assert outer.spans == []
    assert obs.current_recorder() is None


def test_span_nesting_records_parent_ids():
    with obs.recording() as recorder:
        with obs.span("pipeline.run") as parent:
            with obs.span("rank.reduce", rank=2) as child:
                pass
    by_name = {record.name: record for record in recorder.spans}
    assert by_name["rank.reduce"].parent_id == parent.span_id
    assert by_name["pipeline.run"].parent_id is None
    assert by_name["rank.reduce"].span_id == child.span_id
    assert by_name["rank.reduce"].attrs == {"rank": 2}
    # Children close before parents, so they are recorded first.
    assert [r.name for r in recorder.spans] == ["rank.reduce", "pipeline.run"]


def test_span_durations_and_wall_clock_are_consistent():
    with obs.recording() as recorder:
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    inner, outer = recorder.spans
    assert outer.duration_ns >= inner.duration_ns >= 0
    assert outer.start_ns <= inner.start_ns
    assert inner.end_ns <= outer.end_ns


def test_nesting_is_tracked_per_thread():
    """Each thread's spans parent within that thread, not across threads."""
    barrier = threading.Barrier(2)

    def work(tag: str) -> None:
        with obs.span(f"{tag}.outer"):
            barrier.wait(timeout=5)  # both outer spans open simultaneously
            with obs.span(f"{tag}.inner"):
                pass

    with obs.recording() as recorder:
        threads = [threading.Thread(target=work, args=(tag,)) for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    by_name = {record.name: record for record in recorder.spans}
    assert len(by_name) == 4
    for tag in ("a", "b"):
        inner, outer = by_name[f"{tag}.inner"], by_name[f"{tag}.outer"]
        assert inner.parent_id == outer.span_id
        assert inner.tid == outer.tid
    assert by_name["a.inner"].tid != by_name["b.inner"].tid


def test_local_recording_shadows_the_global_recorder():
    with obs.recording("global") as global_recorder:
        worker = obs.Recorder(label="worker")
        with obs.local_recording(worker):
            assert obs.current_recorder() is worker
            with obs.span("task"):
                pass
            obs.counter("ingest.segments", 7)
        assert obs.current_recorder() is global_recorder
    assert [r.name for r in worker.spans] == ["task"]
    assert worker.registry.counter("ingest.segments").get() == 7
    assert global_recorder.spans == []
    assert len(global_recorder.registry) == 0


def test_absorb_merges_worker_snapshots_deterministically():
    parent = obs.Recorder(label="main")
    parent.absorb(None)  # tasks that did not capture return None
    snapshots = []
    for rank in range(3):
        worker = obs.Recorder(label="worker")
        with obs.local_recording(worker):
            with obs.span("rank.reduce", rank=rank):
                pass
            obs.counter("ingest.segments", 10 * (rank + 1))
        snapshots.append(worker.snapshot())
    for snapshot in snapshots:
        parent.absorb(snapshot)

    assert parent.n_spans == 3
    assert parent.worker_metrics().scalar("ingest.segments") == 60

    # Absorption order does not change the merged metrics.
    shuffled = obs.Recorder(label="main")
    for snapshot in reversed(snapshots):
        shuffled.absorb(snapshot)
    assert shuffled.worker_metrics() == parent.worker_metrics()


def test_recorder_snapshot_round_trips_through_pickle():
    worker = obs.Recorder(label="worker")
    with obs.local_recording(worker):
        with obs.span("shard.decode", rank=1):
            pass
        obs.counter("reduce.stored", 4)
    snapshot = pickle.loads(pickle.dumps(worker.snapshot()))
    assert snapshot.label == "worker"
    assert snapshot.n_spans == 1
    assert snapshot.spans[0].name == "shard.decode"
    assert snapshot.metrics.scalar("reduce.stored") == 4
