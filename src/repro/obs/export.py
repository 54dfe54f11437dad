"""Telemetry export: Chrome ``trace_event`` JSON plus a flat run report.

One recorded run — the main recorder and every worker snapshot it absorbed —
exports to a single JSON file in the Chrome trace-event format, which both
``chrome://tracing`` and Perfetto render as a timeline with one track per
(pid, tid): the main process on one track, each pool worker on its own, so a
sharded ``.rpb`` reduction shows dispatch vs decode vs match vs merge time
per shard at a glance.

The same file carries, under ``otherData``, the run's metrics registry, the
deterministic merge of the per-worker registries, per-worker snapshots, the
provenance block, and any caller metadata — so ``repro-trace report FILE``
can rebuild per-stage/per-worker tables and the top-N hottest spans without
re-running anything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.obs.metrics import MetricsSnapshot
from repro.obs.provenance import provenance
from repro.obs.trace import Recorder, SpanRecord

__all__ = [
    "chrome_trace_payload",
    "write_chrome_trace",
    "load_trace",
    "span_coverage",
    "run_report",
    "render_report",
]


def _json_safe(value):
    return value if isinstance(value, (str, int, float, bool, type(None))) else str(value)


def _span_event(span: SpanRecord, t0_ns: int) -> dict:
    return {
        "name": span.name,
        "cat": "repro",
        "ph": "X",
        "ts": (span.start_ns - t0_ns) / 1000.0,  # microseconds since run start
        "dur": span.duration_ns / 1000.0,
        "pid": span.pid,
        "tid": span.tid,
        "args": {key: _json_safe(value) for key, value in span.attrs.items()},
    }


def chrome_trace_payload(recorder: Recorder, *, metadata: Optional[dict] = None) -> dict:
    """Build the Chrome ``trace_event`` JSON object for one recorded run."""
    tracks: list[tuple[str, int, list[SpanRecord]]] = [
        (recorder.label, recorder.pid, list(recorder.spans))
    ]
    for snapshot in recorder.absorbed:
        tracks.append((snapshot.label, snapshot.pid, snapshot.spans))

    all_spans = [span for _, _, spans in tracks for span in spans]
    t0_ns = min((span.start_ns for span in all_spans), default=recorder.epoch_origin_ns)

    events: list[dict] = []
    labels: dict[int, str] = {}
    for label, pid, _ in tracks:
        # First label wins per pid: a worker process that ran several tasks
        # contributes several snapshots but is still one track.
        labels.setdefault(pid, label)
    for pid, label in sorted(labels.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"{label} (pid {pid})"},
            }
        )
    events.extend(_span_event(span, t0_ns) for span in all_spans)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "t0_epoch_ns": t0_ns,
            "metadata": {k: _json_safe(v) for k, v in (metadata or {}).items()},
            "provenance": provenance(),
            "metrics": {
                "run": recorder.registry.snapshot().as_json(),
                "workers_merged": recorder.worker_metrics().as_json(),
            },
            "worker_snapshots": [
                {
                    "label": snapshot.label,
                    "pid": snapshot.pid,
                    "n_spans": snapshot.n_spans,
                    "metrics": snapshot.metrics.as_json(),
                }
                for snapshot in recorder.absorbed
            ],
        },
    }


def write_chrome_trace(
    recorder: Recorder, path: str | Path, *, metadata: Optional[dict] = None
) -> dict:
    """Export ``recorder`` to ``path``; returns the written payload."""
    payload = chrome_trace_payload(recorder, metadata=metadata)
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return payload


def load_trace(path: str | Path) -> dict:
    """Read an exported telemetry file back into its payload dict."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not isinstance(payload.get("traceEvents"), list):
        raise ValueError("no traceEvents list")
    return payload


def _duration_events(payload: dict) -> list[dict]:
    return [e for e in payload.get("traceEvents", ()) if e.get("ph") == "X"]


def span_coverage(payload: dict) -> float:
    """Fraction of the run's wall span covered by at least one recorded span.

    Computed as the union of all ``X`` event intervals (across every track)
    over the run's extent — the acceptance criterion for "spans cover the
    run" without double-counting nested or concurrent spans.
    """
    events = _duration_events(payload)
    if not events:
        return 0.0
    intervals = sorted((e["ts"], e["ts"] + e["dur"]) for e in events)
    t_min = intervals[0][0]
    t_max = max(end for _, end in intervals)
    if t_max <= t_min:
        return 1.0
    covered = 0.0
    cursor = t_min
    for start, end in intervals:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered / (t_max - t_min)


def _fmt_ms(us: float) -> str:
    return f"{us / 1000.0:.3f}"


def run_report(payload: dict, *, top: int = 10) -> str:
    """Render one exported run as per-stage / per-worker / top-span tables."""
    from repro.util.tables import format_table

    events = _duration_events(payload)
    other = payload.get("otherData", {})
    sections: list[str] = []

    meta = other.get("metadata", {})
    prov = other.get("provenance", {})
    head_rows = [[key, meta[key]] for key in meta]
    if prov:
        head_rows.append(
            ["recorded on", f"python {prov.get('python')} / {prov.get('platform')}"]
        )
        head_rows.append(["git sha", prov.get("git_sha") or "-"])
    head_rows.append(["span events", len(events)])
    head_rows.append(["span coverage", f"{100.0 * span_coverage(payload):.1f}% of wall time"])
    sections.append(format_table(["property", "value"], head_rows, title="telemetry run"))

    wall_us = 0.0
    if events:
        wall_us = max(e["ts"] + e["dur"] for e in events) - min(e["ts"] for e in events)

    by_name: dict[str, list[dict]] = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)
    stage_rows = []
    for name, group in sorted(
        by_name.items(), key=lambda item: -sum(e["dur"] for e in item[1])
    ):
        total = sum(e["dur"] for e in group)
        stage_rows.append(
            [
                name,
                len(group),
                _fmt_ms(total),
                _fmt_ms(total / len(group)),
                f"{100.0 * total / wall_us:.1f}" if wall_us else "-",
            ]
        )
    sections.append(
        format_table(
            ["span", "count", "total ms", "mean ms", "% wall"],
            stage_rows,
            title="per-stage spans",
        )
    )

    by_track: dict[tuple[int, int], list[dict]] = {}
    for event in events:
        by_track.setdefault((event["pid"], event["tid"]), []).append(event)
    track_labels = {
        e["pid"]: e["args"].get("name", "")
        for e in payload.get("traceEvents", ())
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    worker_rows = []
    for (pid, tid), group in sorted(by_track.items()):
        busiest = max(group, key=lambda e: e["dur"])
        worker_rows.append(
            [
                track_labels.get(pid, str(pid)),
                tid,
                len(group),
                _fmt_ms(sum(e["dur"] for e in group)),
                busiest["name"],
            ]
        )
    sections.append(
        format_table(
            ["process", "tid", "spans", "busy ms", "hottest span"],
            worker_rows,
            title=f"per-worker tracks ({len(by_track)} tracks)",
        )
    )

    hottest = sorted(events, key=lambda e: -e["dur"])[:top]
    top_rows = [
        [
            event["name"],
            _fmt_ms(event["ts"]),
            _fmt_ms(event["dur"]),
            event["pid"],
            ", ".join(f"{k}={v}" for k, v in sorted(event["args"].items())) or "-",
        ]
        for event in hottest
    ]
    sections.append(
        format_table(
            ["span", "start ms", "dur ms", "pid", "attributes"],
            top_rows,
            title=f"top {len(top_rows)} hottest spans",
        )
    )

    metrics = other.get("metrics", {})
    run_metrics = MetricsSnapshot.from_json(metrics.get("run", {}))
    worker_metrics = MetricsSnapshot.from_json(metrics.get("workers_merged", {}))
    if run_metrics or worker_metrics:
        merged_names = sorted(
            set(run_metrics.values) | set(worker_metrics.values)
        )
        metric_rows = []
        for name in merged_names:
            run_value = run_metrics.get(name)
            worker_value = worker_metrics.get(name)
            metric_rows.append(
                [
                    name,
                    (run_value.kind if run_value else worker_value.kind),
                    f"{run_value.scalar():g}" if run_value else "-",
                    f"{worker_value.scalar():g}" if worker_value else "-",
                ]
            )
        sections.append(
            format_table(
                ["metric", "kind", "run total", "workers (merged)"],
                metric_rows,
                title="metrics",
            )
        )

    return "\n\n".join(sections)


def render_report(path: str | Path, *, top: int = 10) -> str:
    """Load an exported telemetry file and render its run report."""
    return run_report(load_trace(path), top=top)
