"""``repro.obs`` — zero-dependency telemetry: spans, metrics, timeline export.

The engine layers import this package as ``from repro import obs`` and call
``obs.span(...)`` / ``obs.counter(...)`` unconditionally; when no recorder is
active those calls hit a module-level no-op fast path cheap enough to leave
in the match kernel's callers (<1% overhead, asserted by
``benchmarks/test_obs_overhead.py``).

The export side (``write_chrome_trace``, ``render_report``, …) imports
:mod:`repro.obs.export` when one of its names is first read, so a run that
records nothing never loads it.  ``provenance`` is imported eagerly: it
shares its module's name, which an ``import repro.obs.provenance`` would set
on the package in its place; the module imports ``platform`` and
``subprocess`` only when called.
"""

from repro._lazy import lazy_getattr
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

__getattr__ = lazy_getattr(
    __name__,
    {
        ".export": (
            "chrome_trace_payload", "write_chrome_trace", "load_trace", "span_coverage",
            "run_report", "render_report",
        ),
    },
)
