"""One sweep vs per-config loops on a full threshold grid.

Reduces sweep3d_32p under the complete euclidean + manhattan threshold grids
(12 configs — one shared Minkowski feature family) three ways:

* **naive** — the historical schedule: one independent pass of the scalar
  segment-at-a-time reference (``TraceReducer.reduce_streams``) per config,
  re-normalising every segment and scanning its candidates one at a time;
* **core loop** — the product called twelve times: the trace adapted to
  frames once, then one ``TraceReducer.reduce`` per config over the shared
  frames (keys and family vectors cached on them after the first config);
* **sweep** — ``sweep_pipeline``, the pipeline's inline run with one metric
  per config: one shared pass, segments normalised and keyed once, the
  family vector computed once per segment for all 12 configs, matching via
  the batched kernels per config.

All schedules must produce byte-identical reduced traces per config, and
the evaluation rows derived from them must agree field for field.  Two
ratios, each naming its base: ``speedup`` = naive ÷ sweep, asserted >= 3x
(schedule-bound, not pool- or hardware-bound: every side runs serially in
one process, so it is meaningful on a single-CPU CI runner);
``core_loop_speedup`` = core loop ÷ sweep, printed only.  The core loop
shares the sweep's kernels and, through the frames' caches, its vector
builds, so that ratio sits inside timing noise (0.95x to 1.25x on one
box); what the sweep must not lose to the loop is gated on two counts that
repeat exactly, taken from an untimed recorded run of each: the sweep's
feature-vector builds (``columnar.vectorize`` spans past the keys — one per
rank and family) are no more than the loop's, and its match-kernel calls are
exactly :data:`SWEEP_KERNEL_CALLS` and fewer than the loop's (the configs of
one kernel share its leader rows).  A sweep that built or matched per config
again would fail both.
Measurements go to ``BENCH_sweep.json`` at the repository root (plus the
usual ``results/`` table).
"""

from __future__ import annotations

import gc
import time

from support import RESULTS_DIR, run_once, show, write_bench_json
from tests.support import reference_reduce

from repro import obs
from repro.core.candidates import MatchCounters
from repro.core.frametrace import FrameTrace
from repro.core.reducer import TraceReducer
from repro.evaluation.runner import PreparedWorkload, result_from_reduced
from repro.experiments.config import build_workload, get_scale
from repro.pipeline.engine import sweep_pipeline
from repro.sweep import SweepPlan
from repro.trace.io import serialize_reduced_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_sweep.json"

WORKLOAD = "sweep3d_32p"  # 32 ranks; the heaviest multi-rank workload
METHODS = ("euclidean", "manhattan")  # full paper grids; one shared family
MIN_HEADLINE_SPEEDUP = 3.0  # naive (scalar reference) loop / sweep

#: The sweep's exact match-kernel calls per scale: each config of a kernel
#: reads the leader rows another config of it already computed (the
#: per-config loop makes 5 712 and 6 566).  The grid is simulated from a
#: fixed seed, so the count repeats exactly; a change that moves it has
#: changed what the sweep shares.
SWEEP_KERNEL_CALLS = {"smoke": 952, "default": 1165}


#: The two sub-second schedules take the minimum of this many timed runs,
#: interleaved so a slow minute on a shared box slows both.
TIMED_RUNS = 3


def _timed(schedule):
    """``(seconds, result)`` of one run with the collector paused, as ``timeit`` does.

    Both schedules allocate tens of thousands of segments; whether a full
    collection lands inside one depends on how large the process's heap
    already is (tier-1 runs this after fifty other benchmarks), which moved
    the loop ÷ sweep ratio between 0.85x and 1.8x on identical code.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        result = schedule()
        return time.perf_counter() - started, result
    finally:
        gc.enable()


def _recorded(schedule) -> tuple[int, obs.Recorder]:
    """``schedule`` run once under a recorder: (its feature-vector builds, the recorder)."""
    with obs.recording("counts") as recorder:
        schedule()
    builds = sum(
        1
        for span in recorder.spans
        if span.name == "columnar.vectorize" and span.attrs.get("stage") != "keys"
    )
    return builds, recorder


def _measure_scale(scale_name: str, plan: SweepPlan) -> dict:
    scale = get_scale(scale_name)
    segmented = build_workload(WORKLOAD, scale).run_segmented()

    def naive_loop():
        return [reference_reduce(config.create(), segmented) for config in plan]

    def product_loop(match_counters=None):  # adapts once per run, like the sweep below
        frames = FrameTrace.from_segmented(segmented)
        return [
            TraceReducer(config.create()).reduce(frames, match_counters=match_counters)
            for config in plan
        ]

    naive_seconds, naive = _timed(naive_loop)
    core_loop_seconds = sweep_seconds = float("inf")
    for _ in range(TIMED_RUNS):
        seconds, core_loop = _timed(product_loop)
        core_loop_seconds = min(core_loop_seconds, seconds)
        seconds, swept = _timed(lambda: sweep_pipeline(segmented, plan))
        sweep_seconds = min(sweep_seconds, seconds)

    loop_match = MatchCounters()
    loop_vector_builds, _ = _recorded(lambda: product_loop(loop_match))
    sweep_vector_builds, recorder = _recorded(lambda: sweep_pipeline(segmented, plan))
    sweep_kernel_calls = recorder.registry.snapshot().scalar("pipeline.match_calls")

    identical = all(
        serialize_reduced_trace(outcome.reduced)
        == serialize_reduced_trace(looped)
        == serialize_reduced_trace(reference)
        for outcome, looped, reference in zip(swept, core_loop, naive, strict=True)
    )

    # The evaluation rows the figure suite consumes must agree too.  Both
    # row sets run through the same (untimed) criteria code.
    prepared = PreparedWorkload.from_workload(build_workload(WORKLOAD, scale))
    sweep_rows = swept.evaluation_results(prepared)
    naive_rows = [result_from_reduced(prepared, r, keep_comparison=False) for r in naive]
    rows_equal = all(
        (got.method, got.threshold, got.pct_file_size, got.degree_of_matching,
         got.approx_distance_us, got.trends_retained, got.reduced_bytes,
         got.n_segments, got.n_stored)
        == (want.method, want.threshold, want.pct_file_size, want.degree_of_matching,
            want.approx_distance_us, want.trends_retained, want.reduced_bytes,
            want.n_segments, want.n_stored)
        for got, want in zip(sweep_rows, naive_rows)
    )

    return {
        "scale": scale_name,
        "n_ranks": len(segmented.ranks),
        "n_segments": swept.stats.n_segments,
        "vector_builds": swept.stats.vector_builds,
        "sweep_vector_builds_recorded": sweep_vector_builds,
        "core_loop_vector_builds_recorded": loop_vector_builds,
        "sweep_kernel_calls": sweep_kernel_calls,
        "core_loop_kernel_calls": loop_match.calls,
        "vector_builds_saved": swept.stats.vector_builds_saved,
        "sharing_factor": round(swept.stats.sharing_factor, 4),
        "naive_seconds": round(naive_seconds, 6),
        "core_loop_seconds": round(core_loop_seconds, 6),
        "sweep_seconds": round(sweep_seconds, 6),
        "speedup": round(naive_seconds / sweep_seconds, 4) if sweep_seconds else None,
        "core_loop_speedup": round(core_loop_seconds / sweep_seconds, 4)
        if sweep_seconds
        else None,
        "identical_output": identical,
        "evaluation_rows_equal": rows_equal,
    }


def _run_comparison() -> dict:
    plan = SweepPlan.from_grid(list(METHODS))
    return {
        "workload": WORKLOAD,
        "methods": list(METHODS),
        "n_configs": plan.n_configs,
        "n_families": plan.n_families,
        "min_headline_speedup": MIN_HEADLINE_SPEEDUP,
        "scales": {name: _measure_scale(name, plan) for name in ("smoke", "default")},
    }


def test_sweep_speedup(benchmark):
    report = run_once(benchmark, _run_comparison)
    write_bench_json(BENCH_PATH, report)

    rows = [
        [
            entry["scale"],
            entry["n_ranks"],
            entry["n_segments"],
            f"{entry['sharing_factor']:.1f}x",
            f"{entry['naive_seconds']:.4f}",
            f"{entry['core_loop_seconds']:.4f}",
            f"{entry['sweep_seconds']:.4f}",
            f"{entry['speedup']:.2f}x",
            f"{entry['core_loop_speedup']:.2f}x",
        ]
        for entry in report["scales"].values()
    ]
    show(
        "BENCH_sweep",
        format_table(
            ["scale", "ranks", "segments", "sharing", "naive s", "core loop s", "sweep s",
             "naive/sweep", "core loop/sweep"],
            rows,
            title=(
                f"threshold-grid sweep: shared-ingest engine vs per-config loops — "
                f"{WORKLOAD}, {report['n_configs']} configs"
            ),
        ),
    )
    for entry in report["scales"].values():
        assert entry["identical_output"], (
            f"sweep output diverged from the serial oracle at scale {entry['scale']}"
        )
        assert entry["evaluation_rows_equal"], (
            f"sweep evaluation rows diverged at scale {entry['scale']}"
        )
        builds = entry["sweep_vector_builds_recorded"]
        assert builds == entry["n_ranks"] * report["n_families"], (
            f"the sweep built feature vectors {builds} times for {entry['n_ranks']} ranks "
            f"and {report['n_families']} families (scale {entry['scale']})"
        )
        assert builds <= entry["core_loop_vector_builds_recorded"], (
            f"the sweep built feature vectors {builds} times, {report['n_configs']} "
            f"product calls over shared frames {entry['core_loop_vector_builds_recorded']} "
            f"(scale {entry['scale']})"
        )
        assert entry["sweep_kernel_calls"] == SWEEP_KERNEL_CALLS[entry["scale"]], (
            f"the sweep made {entry['sweep_kernel_calls']} match-kernel calls, "
            f"expected {SWEEP_KERNEL_CALLS[entry['scale']]} (scale {entry['scale']})"
        )
        assert entry["sweep_kernel_calls"] < entry["core_loop_kernel_calls"], (
            f"the sweep made {entry['sweep_kernel_calls']} match-kernel calls, "
            f"{report['n_configs']} product calls over shared frames "
            f"{entry['core_loop_kernel_calls']} (scale {entry['scale']})"
        )
    headline = report["scales"]["default"]
    assert headline["speedup"] >= MIN_HEADLINE_SPEEDUP, (
        f"the sweep must be >= {MIN_HEADLINE_SPEEDUP}x faster than the "
        f"per-config scalar reference loop, measured {headline['speedup']:.2f}x"
    )
