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


def test_worker_metric_merge_matches_across_executors(small_late_sender_trace):
    """Process and thread pools aggregate to identical worker totals."""
    by_executor = {}
    for executor in ("process", "thread"):
        recorder, result = _recorded_run(small_late_sender_trace, executor)
        merged = recorder.worker_metrics()
        assert len(recorder.absorbed) == len(result.reduced.ranks)
        assert merged.scalar("ingest.segments") == result.stats.n_segments
        assert merged.scalar("reduce.stored") == sum(
            len(rank.stored) for rank in result.reduced.ranks
        )
        by_executor[executor] = {
            name: value
            for name, value in merged.values.items()
            if not name.endswith("seconds")  # wall time differs run to run
        }
    assert by_executor["process"] == by_executor["thread"]


def test_run_metrics_recorded_once_in_parent(small_late_sender_trace):
    recorder, result = _recorded_run(small_late_sender_trace, "process")
    run = recorder.registry.snapshot()
    # Run totals come from the stats object exactly once — not once per worker.
    assert run.scalar("pipeline.segments") == result.stats.n_segments
    assert run.scalar("pipeline.matches") == result.stats.n_matches
    assert run.get("pipeline.workers").value == result.stats.workers


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


def test_pipeline_trace_run_attributes_the_sizing_pass(tmp_path, capsys):
    # ``pipeline --trace F.rpb`` sizes the full trace before it reduces; the
    # pass must sit inside the recording, under its own span and counter.
    from repro.benchmarks_ats import late_sender
    from repro.cli import main
    from repro.trace.io import write_trace

    trace = late_sender(nprocs=4, iterations=3, seed=2).run()
    rpb, text, telemetry = tmp_path / "t.rpb", tmp_path / "t.txt", tmp_path / "telemetry.json"
    write_trace(trace, rpb)
    write_trace(trace, text)
    assert main(["pipeline", "--trace", str(rpb), "--executor", "serial",
                 "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    payload = obs.load_trace(telemetry)
    (sizing,) = [e for e in payload["traceEvents"] if e.get("name") == "filesize.text_bytes"]
    assert sizing["ph"] == "X"
    assert sizing["args"] == {"format": "rpb", "ranks": 4}
    run = obs.MetricsSnapshot.from_json(payload["otherData"]["metrics"]["run"])
    assert run.scalar("filesize.bytes") == text.stat().st_size
    assert "filesize.text_bytes" in obs.render_report(telemetry)


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
