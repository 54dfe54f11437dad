"""Telemetry overhead guard: the disabled span path must stay under 1%.

The ``repro.obs`` instrumentation sits in the callers of the reduction's
inner loop (``pipeline.run``, ``rank.reduce``, the decode/merge stages), and
its whole design contract is that a run with telemetry *disabled* pays only
the no-op fast path: one global load, one thread-local probe, a shared
singleton.  This guard makes that contract an asserted number instead of a
comment:

* it times the disabled ``obs.span`` / ``obs.counter`` paths directly
  (hundreds of thousands of calls, empty-loop baseline subtracted);
* it counts how many instrumentation sites one serial reduction actually
  executes, by running the same reduction once with a recorder installed;
* it projects the worst-case disabled overhead (site count x per-call cost,
  with a 4x safety margin) and asserts it is below 1% of the serial
  reduction's wall time.  That is the run the sites wrap — whole ranks and
  stages; none sits inside the match kernel, which the key-batched step
  leaves at ~10% of the reduction and ~10 ms long, too short for 1% of it
  to bound anything the sites could cost.  The ratio to that stage is still
  computed and reported, unasserted.

The projection shrinks as the reduction gets faster, so a second gate does
not depend on it: the disabled ``span`` and ``counter`` each cost at most a
fixed number of empty Python calls timed by the same loop.  A thread-local
probe that raises and swallows an ``AttributeError`` on every call costs
several times that.

It also re-asserts the byte-identity invariant: recording telemetry must not
change the reduced output.  Results land in ``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import os
import time

from support import RESULTS_DIR, run_once, show, write_bench_json

from repro import obs
from repro.core.metrics import create_metric
from repro.experiments.config import build_workload, get_scale
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.trace.io import serialize_reduced_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_obs_overhead.json"

WORKLOAD = "sweep3d_32p"
SCALE = "default"
METHOD = "relDiff"

#: Disabled-path timing loop length: large enough that per-call costs of a
#: few tens of nanoseconds resolve well above timer granularity.
N_CALLS = 200_000

#: Projected disabled overhead must stay below this fraction of the serial
#: reduction's wall time.
MAX_OVERHEAD_FRACTION = 0.01

#: Multiplier on the projected overhead, so the gate holds even if a future
#: change quadruples the number of instrumentation sites per run.
SAFETY_FACTOR = 4

#: Most empty Python calls one disabled call may cost: about 2.5x what a
#: 2-core x86 box measured (a span 14-18, a counter 6-7 empty calls), where
#: a thread-local probe that raised on every call measured 36-44 and 27-32.
MAX_SPAN_CALLS = 40
MAX_COUNTER_CALLS = 18

#: Interleaved op/empty-call timings a ratio is the least of.
RATIO_ROUNDS = 5


def _disabled_cost_ns(op) -> float:
    """Per-call cost of ``op`` with telemetry disabled, baseline-subtracted."""
    assert not obs.enabled(), "overhead must be measured with telemetry off"
    started = time.perf_counter_ns()
    for _ in range(N_CALLS):
        op()
    total = time.perf_counter_ns() - started
    started = time.perf_counter_ns()
    for _ in range(N_CALLS):
        pass
    baseline = time.perf_counter_ns() - started
    return max(total - baseline, 0) / N_CALLS


def _in_empty_calls(op) -> float:
    """``op``'s disabled per-call cost in empty calls, the least of
    :data:`RATIO_ROUNDS` rounds that time both back to back."""
    return min(
        _disabled_cost_ns(op) / max(_disabled_cost_ns(_empty_site), 1.0)
        for _ in range(RATIO_ROUNDS)
    )


def _empty_site():
    pass


def _span_site():
    with obs.span("bench.overhead", rank=0):
        pass


def _counter_site():
    obs.counter("bench.overhead")


def _run_guard() -> dict:
    segmented = build_workload(WORKLOAD, get_scale(SCALE)).run_segmented()
    pipeline = ReductionPipeline(
        create_metric(METHOD, None), PipelineConfig(executor="serial")
    )

    span_ns = _disabled_cost_ns(_span_site)
    counter_ns = _disabled_cost_ns(_counter_site)
    span_calls = _in_empty_calls(_span_site)
    counter_calls = _in_empty_calls(_counter_site)

    started = time.perf_counter()
    plain = pipeline.reduce(segmented)
    plain_seconds = time.perf_counter() - started

    with obs.recording("guard") as recorder:
        recorded = pipeline.reduce(segmented)
    identical = serialize_reduced_trace(recorded.reduced) == serialize_reduced_trace(
        plain.reduced
    )

    # Every span and metric write the recorded run captured is a site the
    # disabled run paid the no-op fast path for.
    n_span_sites = recorder.n_spans
    n_metric_sites = len(recorder.registry)
    projected_seconds = (
        SAFETY_FACTOR * (n_span_sites * span_ns + n_metric_sites * counter_ns) / 1e9
    )
    match_seconds = plain.stats.match.seconds
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "method": METHOD,
        "cpu_count": os.cpu_count() or 1,
        "timing_calls": N_CALLS,
        "disabled_span_ns_per_call": round(span_ns, 2),
        "disabled_counter_ns_per_call": round(counter_ns, 2),
        "disabled_span_empty_calls": round(span_calls, 2),
        "disabled_counter_empty_calls": round(counter_calls, 2),
        "max_span_empty_calls": MAX_SPAN_CALLS,
        "max_counter_empty_calls": MAX_COUNTER_CALLS,
        "span_sites_per_run": n_span_sites,
        "metric_sites_per_run": n_metric_sites,
        "safety_factor": SAFETY_FACTOR,
        "projected_overhead_seconds": projected_seconds,
        "match_kernel_seconds": round(match_seconds, 6),
        "reduction_seconds": round(plain_seconds, 6),
        "overhead_vs_match_kernel": (
            projected_seconds / match_seconds if match_seconds else 0.0
        ),
        "overhead_vs_reduction": projected_seconds / plain_seconds,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "identical_output": identical,
    }


def test_disabled_telemetry_overhead(benchmark):
    report = run_once(benchmark, _run_guard)
    write_bench_json(BENCH_PATH, report)

    rows = [
        ["disabled span (ns/call)", f"{report['disabled_span_ns_per_call']:.1f}"],
        ["disabled counter (ns/call)", f"{report['disabled_counter_ns_per_call']:.1f}"],
        ["disabled span (empty calls)", f"{report['disabled_span_empty_calls']:.1f}"],
        ["disabled counter (empty calls)", f"{report['disabled_counter_empty_calls']:.1f}"],
        ["span sites per run", report["span_sites_per_run"]],
        ["metric sites per run", report["metric_sites_per_run"]],
        [
            f"projected overhead x{report['safety_factor']} (us)",
            f"{1e6 * report['projected_overhead_seconds']:.2f}",
        ],
        ["match-kernel stage (s)", f"{report['match_kernel_seconds']:.4f}"],
        ["reduction total (s)", f"{report['reduction_seconds']:.4f}"],
        [
            "overhead vs match kernel",
            f"{100.0 * report['overhead_vs_match_kernel']:.4f}%",
        ],
        ["overhead vs reduction", f"{100.0 * report['overhead_vs_reduction']:.4f}%"],
        ["telemetry-on output identical", "yes" if report["identical_output"] else "NO"],
    ]
    show(
        "BENCH_obs_overhead",
        format_table(
            ["property", "value"],
            rows,
            title=f"disabled-telemetry overhead — {WORKLOAD}/{SCALE}",
        ),
    )

    assert report["identical_output"], "telemetry changed the reduced output"
    assert report["disabled_span_empty_calls"] <= MAX_SPAN_CALLS, report
    assert report["disabled_counter_empty_calls"] <= MAX_COUNTER_CALLS, report
    assert report["match_kernel_seconds"] > 0
    assert report["overhead_vs_reduction"] < MAX_OVERHEAD_FRACTION, (
        f"projected disabled-telemetry overhead is "
        f"{100.0 * report['overhead_vs_reduction']:.3f}% of the serial "
        f"reduction; the budget is {100.0 * MAX_OVERHEAD_FRACTION:.0f}%"
    )
