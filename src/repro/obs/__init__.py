"""``repro.obs`` — zero-dependency telemetry: spans, metrics, timeline export.

The engine layers import this package as ``from repro import obs`` and call
``obs.span(...)`` / ``obs.counter(...)`` unconditionally; when no recorder is
active those calls hit a module-level no-op fast path cheap enough to leave
in the match kernel's callers (<1% overhead, asserted by
``benchmarks/test_obs_overhead.py``).
"""

from repro.obs.export import (
    chrome_trace_payload,
    load_trace,
    render_report,
    run_report,
    span_coverage,
    write_chrome_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    MetricValue,
    merge_snapshots,
)
from repro.obs.provenance import provenance
from repro.obs.trace import (
    Recorder,
    RecorderSnapshot,
    SpanRecord,
    counter,
    current_recorder,
    enabled,
    local_recording,
    observe,
    recording,
    span,
    task_recording,
)

__all__ = [
    "span",
    "counter",
    "observe",
    "enabled",
    "current_recorder",
    "recording",
    "local_recording",
    "task_recording",
    "Recorder",
    "RecorderSnapshot",
    "SpanRecord",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricValue",
    "merge_snapshots",
    "chrome_trace_payload",
    "write_chrome_trace",
    "load_trace",
    "span_coverage",
    "run_report",
    "render_report",
    "provenance",
]
