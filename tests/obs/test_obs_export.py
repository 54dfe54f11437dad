"""Chrome-trace export schema tests against real instrumented pipeline runs."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.metrics import create_metric
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.trace.io import serialize_reduced_trace


def _recorded_run(segmented, executor: str):
    """Reduce ``segmented`` under a recorder; returns (recorder, result)."""
    pipeline = ReductionPipeline(
        create_metric("relDiff", None), PipelineConfig(executor=executor, workers=2)
    )
    with obs.recording("pipeline") as recorder:
        result = pipeline.reduce(segmented)
    return recorder, result


@pytest.fixture(scope="module")
def process_payload(small_late_sender_trace):
    recorder, result = _recorded_run(small_late_sender_trace, "process")
    return obs.chrome_trace_payload(
        recorder, metadata={"command": "pipeline", "executor": result.stats.executor}
    ), result


def test_chrome_trace_schema(process_payload):
    payload, _ = process_payload
    assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert payload["displayTimeUnit"] == "ms"

    events = payload["traceEvents"]
    metadata_events = [e for e in events if e["ph"] == "M"]
    duration_events = [e for e in events if e["ph"] == "X"]
    assert metadata_events and duration_events
    assert {e["ph"] for e in events} == {"M", "X"}

    for event in metadata_events:
        assert event["name"] == "process_name"
        assert isinstance(event["pid"], int)
        assert isinstance(event["args"]["name"], str)
    # Every pid with spans has a process_name track label.
    assert {e["pid"] for e in duration_events} <= {e["pid"] for e in metadata_events}

    for event in duration_events:
        assert isinstance(event["name"], str) and event["name"]
        assert event["cat"] == "repro"
        assert isinstance(event["ts"], float) and event["ts"] >= 0.0
        assert isinstance(event["dur"], float) and event["dur"] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        for value in event["args"].values():
            assert isinstance(value, (str, int, float, bool, type(None)))

    other = payload["otherData"]
    assert {"t0_epoch_ns", "metadata", "provenance", "metrics", "worker_snapshots"} <= set(other)
    assert other["metadata"]["command"] == "pipeline"
    assert other["provenance"]["python"]
    # The whole payload must be JSON-serialisable as written.
    json.loads(json.dumps(payload))


def test_process_run_has_worker_tracks_and_coverage(process_payload):
    payload, result = process_payload
    duration_events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    tracks = {(e["pid"], e["tid"]) for e in duration_events}
    # Process workers are separate processes: the parent's pid plus a worker's.
    assert result.stats.dispatch == "payload"
    assert len({pid for pid, _ in tracks}) >= 2
    assert {"pipeline.run", "rank.reduce"} <= {e["name"] for e in duration_events}
    assert obs.span_coverage(payload) >= 0.95


@pytest.fixture(scope="module")
def rpb_file(tmp_path_factory):
    from repro.benchmarks_ats import late_sender
    from repro.trace.io import write_trace

    path = tmp_path_factory.mktemp("obs") / "trace.rpb"
    write_trace(late_sender(nprocs=4, iterations=6, seed=3).run(), path)
    return path


def _assert_workers_agree_with_run(recorder) -> set:
    """The invariant of a pooled telemetry file: one name per count, and for
    every count the workers publish, their merged total is the run's."""
    run = recorder.registry.snapshot().values
    workers = recorder.worker_metrics().values
    counted = {name for name, value in workers.items() if value.kind == "counter"}
    assert counted, "the pool tasks published no counts"
    assert counted <= set(run), f"missing from the run side: {counted - set(run)}"
    for name in counted:
        assert run[name] == workers[name], name
    return counted


@pytest.mark.parametrize(
    "source, dispatch", [("rpb_file", "shard"), ("small_late_sender_trace", "payload")]
)
@pytest.mark.parametrize("executor", ["process", "thread"])
def test_pooled_pipeline_workers_agree_with_run(request, source, dispatch, executor):
    recorder, result = _recorded_run(request.getfixturevalue(source), executor)
    stats = result.stats
    assert stats.dispatch == dispatch
    # One snapshot per task: 4 ranks are 4 batches at 2 workers, or 4 frames.
    assert len(recorder.absorbed) == stats.nprocs == 4
    counted = _assert_workers_agree_with_run(recorder)
    # Every count that is additive over ranks is on both sides ...
    run = recorder.registry.snapshot()
    for name, value in [
        ("pipeline.nprocs", stats.nprocs),
        ("pipeline.n_segments", stats.n_segments),
        ("pipeline.n_stored", stats.n_stored),
        ("pipeline.n_matches", stats.n_matches),
        ("pipeline.segments_materialized", stats.segments_materialized),
        ("pipeline.store_lookups", stats.store.lookups),
        ("pipeline.match_calls", stats.match.calls),
    ]:
        assert name in counted
        assert run.scalar(name) == value
    # ... and what only the parent knows is on the run side alone.
    assert run.get("pipeline.workers").value == stats.workers
    assert "pipeline.workers" not in recorder.worker_metrics().values


def test_pooled_sweep_workers_agree_with_run(rpb_file):
    from repro.pipeline.engine import sweep_pipeline
    from repro.sweep.plan import SweepPlan

    # Two feature families, swept by the pipeline's task: one task per rank
    # batch, each stepping every config over the batch's frames.
    plan = SweepPlan.from_grid(["relDiff", "euclidean"], [0.2, 0.8])
    with obs.recording("sweep") as recorder:
        result = sweep_pipeline(
            rpb_file, plan, PipelineConfig(executor="process", workers=2)
        )
    stats = result.stats
    assert stats.dispatch == "shard" and stats.n_families == 2
    assert len(recorder.absorbed) == stats.n_ranks == 4
    counted = _assert_workers_agree_with_run(recorder)
    run = recorder.registry.snapshot()
    for name, value in [
        ("pipeline.nprocs", stats.n_ranks),
        ("pipeline.n_segments", stats.n_segments),
        ("pipeline.segments_materialized", stats.segments_materialized),
    ]:
        assert name in counted
        assert run.scalar(name) == value
    # The sharing counts are the plan's arithmetic on the run's segments:
    # only the run publishes them.
    assert run.scalar("sweep.vector_builds") == stats.vector_builds == stats.n_segments * 2
    assert run.scalar("sweep.n_segments") == stats.n_segments


def test_telemetry_does_not_change_reduction_output(small_late_sender_trace):
    pipeline = ReductionPipeline(
        create_metric("relDiff", None), PipelineConfig(executor="process", workers=2)
    )
    plain = pipeline.reduce(small_late_sender_trace)
    with obs.recording("pipeline"):
        recorded = pipeline.reduce(small_late_sender_trace)
    assert serialize_reduced_trace(recorded.reduced) == serialize_reduced_trace(plain.reduced)


def test_write_load_report_roundtrip(tmp_path, small_late_sender_trace):
    recorder, _ = _recorded_run(small_late_sender_trace, "process")
    path = tmp_path / "telemetry.json"
    written = obs.write_chrome_trace(recorder, path, metadata={"command": "pipeline"})
    loaded = obs.load_trace(path)
    assert loaded == json.loads(json.dumps(written))

    report = obs.render_report(path, top=5)
    for section in ("telemetry run", "per-stage spans", "per-worker tracks", "metrics"):
        assert section in report
    assert "pipeline.run" in report


def test_pipeline_trace_run_attributes_the_sizing(tmp_path, capsys):
    # ``pipeline --trace F.rpb`` takes the full trace's size from the tasks
    # that decoded the ranks: no sizing pass over the file, the counter stays
    # and agrees with what the tasks published.  A text file is still sized
    # inside the recording, under its own span.
    from repro.benchmarks_ats import late_sender
    from repro.cli import main
    from repro.trace.io import write_trace

    trace = late_sender(nprocs=4, iterations=3, seed=2).run()
    rpb, text, telemetry = tmp_path / "t.rpb", tmp_path / "t.txt", tmp_path / "telemetry.json"
    write_trace(trace, rpb)
    write_trace(trace, text)
    assert main(["pipeline", "--trace", str(rpb), "--executor", "serial",
                 "--telemetry", str(telemetry)]) == 0
    payload = obs.load_trace(telemetry)
    assert not [e for e in payload["traceEvents"] if e.get("name") == "filesize.text_bytes"]
    run = obs.MetricsSnapshot.from_json(payload["otherData"]["metrics"]["run"])
    assert run.scalar("filesize.bytes") == run.scalar("pipeline.text_bytes") == text.stat().st_size

    assert main(["pipeline", "--trace", str(text), "--executor", "serial",
                 "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    payload = obs.load_trace(telemetry)
    (sizing,) = [e for e in payload["traceEvents"] if e.get("name") == "filesize.text_bytes"]
    assert sizing["ph"] == "X"
    assert sizing["args"] == {"format": "text", "ranks": None}
    run = obs.MetricsSnapshot.from_json(payload["otherData"]["metrics"]["run"])
    assert run.scalar("filesize.bytes") == text.stat().st_size
    assert "filesize.text_bytes" in obs.render_report(telemetry)


def test_sweep_run_splits_the_criteria_span_per_config(tmp_path, capsys):
    # ``sweep --telemetry`` must say which criterion is slow: each config's
    # ``evaluate.criteria`` span holds the four criteria as children, once.
    from repro.cli import main

    telemetry = tmp_path / "telemetry.json"
    assert main(["--scale", "smoke", "sweep", "late_sender", "--methods", "euclidean",
                 "iter_avg", "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    names = [e["name"] for e in obs.load_trace(telemetry)["traceEvents"] if e.get("ph") == "X"]
    assert names.count("evaluate.criteria") == 7  # euclidean's six study thresholds + iter_avg
    for child in ("criteria.reconstruct", "criteria.size", "criteria.distance", "criteria.trends"):
        assert names.count(child) == 7
    assert "criteria.trends" in obs.render_report(telemetry)


def test_criteria_children_nest_under_their_config(small_late_sender_prepared):
    from repro.evaluation.runner import evaluate_method

    prepared = small_late_sender_prepared
    with obs.recording("evaluate") as recorder:
        evaluate_method(prepared, create_metric("relDiff"))
    (parent,) = [span for span in recorder.spans if span.name == "evaluate.criteria"]
    children = [span.name for span in recorder.spans if span.parent_id == parent.span_id]
    assert children == [
        "criteria.reconstruct", "criteria.size", "criteria.distance", "criteria.trends"
    ]


def test_span_coverage_on_synthetic_payloads():
    def payload(*intervals):
        return {
            "traceEvents": [
                {"name": "s", "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 1, "args": {}}
                for ts, dur in intervals
            ]
        }

    assert obs.span_coverage({"traceEvents": []}) == 0.0
    assert obs.span_coverage(payload((0.0, 10.0))) == pytest.approx(1.0)
    # Two disjoint halves of a 10 unit extent, 2 units uncovered in the middle.
    assert obs.span_coverage(payload((0.0, 4.0), (6.0, 4.0))) == pytest.approx(0.8)
    # Nested and overlapping spans never double count.
    assert obs.span_coverage(
        payload((0.0, 10.0), (2.0, 3.0), (8.0, 2.0))
    ) == pytest.approx(1.0)
