"""Candidate-match stage: the scalar reference vs the columnar core.

The matching step is the reduction's inner loop: every incoming segment is
compared against all stored representatives sharing its structural key.  This
benchmark times exactly that stage (via the reducer's match counters) on the
sweep3d workload at the default scale, two ways per configuration:

* the scalar reference (``TraceReducer.reduce_streams``: the paper's
  per-candidate ``metric.match`` scan, segment at a time) — the oracle and
  the base of every ratio here;
* the columnar core (``TraceReducer.reduce`` over frames adapted once): the
  batch step's ``match_stats`` broadcasts per structural key.

Both reductions must be byte-identical, every configuration's core match
stage must be at least as fast as the reference's (the small-bucket floor),
and the strict-Euclidean headline must beat it by 3x; all are asserted, not
just recorded.  Every row is the minimum of at least three timed repeats.
Results land in ``BENCH_match_kernel.json``.
"""

from __future__ import annotations

import os
import time

from support import RESULTS_DIR, run_once, show, write_bench_json
from tests.support import reference_reduce

from repro.core.candidates import MatchCounters
from repro.core.frametrace import FrameTrace
from repro.core.metrics import DEFAULT_THRESHOLDS, create_metric
from repro.core.reducer import TraceReducer
from repro.experiments.config import build_workload, get_scale
from repro.trace.io import serialize_reduced_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_match_kernel.json"

WORKLOAD = "sweep3d_32p"
SCALE = "default"

#: (method, threshold) pairs: the paper's default threshold plus a strict one
#: that forces deep candidate lists (the store-heavy regime).
CONFIGS: tuple[tuple[str, float], ...] = (
    ("relDiff", DEFAULT_THRESHOLDS["relDiff"]),
    ("relDiff", 0.01),
    ("absDiff", DEFAULT_THRESHOLDS["absDiff"]),
    ("manhattan", DEFAULT_THRESHOLDS["manhattan"]),
    ("manhattan", 0.01),
    ("euclidean", DEFAULT_THRESHOLDS["euclidean"]),
    ("euclidean", 0.001),
    ("chebyshev", DEFAULT_THRESHOLDS["chebyshev"]),
    ("chebyshev", 0.001),
    ("avgWave", DEFAULT_THRESHOLDS["avgWave"]),
    ("avgWave", 0.01),
    ("haarWave", DEFAULT_THRESHOLDS["haarWave"]),
    ("haarWave", 0.01),
)

#: The acceptance configuration: strict Euclidean produces the deepest
#: candidate lists of the sweep, i.e. the regime the dense kernel exists for.
HEADLINE = ("euclidean", 0.001)
MIN_HEADLINE_SPEEDUP = 3.0

#: Small-bucket floor: no configuration's core may be slower than the
#: reference's scan, however shallow its buckets (1–2 rows per call at the
#: default thresholds).
MIN_CONFIG_SPEEDUP = 1.0


def _timed_reduction(trace, metric_name: str, threshold: float, *, core: bool):
    """One timed reduction: the core over ``trace``'s frames, or the reference's scan."""
    counters = MatchCounters()
    metric = create_metric(metric_name, threshold)
    started = time.perf_counter()
    if core:
        reduced = TraceReducer(metric).reduce(trace, match_counters=counters)
    else:
        reduced = reference_reduce(metric, trace, match_counters=counters)
    total = time.perf_counter() - started
    return serialize_reduced_trace(reduced), reduced, counters, total


#: Every row takes the *minimum* of at least ``MIN_REPEATS`` timed repeats
#: (the timeit estimator: the fastest rep is the one least disturbed by
#: scheduler and cache noise, which on a tens-of-milliseconds stage can swing
#: single runs by 20%); configurations whose reference scan is this cheap
#: get up to ``MAX_REPEATS``.
REPEAT_TARGET_SECONDS = 0.25
MIN_REPEATS = 3
MAX_REPEATS = 5


def _compare(segmented, frames, metric_name: str, threshold: float) -> dict:
    scan_bytes, reduced, scan, scan_total = _timed_reduction(
        segmented, metric_name, threshold, core=False
    )
    dense_bytes, _, dense, dense_total = _timed_reduction(
        frames, metric_name, threshold, core=True
    )
    assert dense_bytes == scan_bytes, (
        f"the columnar core diverged from the scalar reference for {metric_name}({threshold})"
    )
    scan_seconds = scan.seconds
    dense_seconds = dense.seconds
    reps = 1
    while reps < MIN_REPEATS or (scan_seconds < REPEAT_TARGET_SECONDS and reps < MAX_REPEATS):
        scan_seconds = min(
            scan_seconds,
            _timed_reduction(segmented, metric_name, threshold, core=False)[2].seconds,
        )
        dense_seconds = min(
            dense_seconds,
            _timed_reduction(frames, metric_name, threshold, core=True)[2].seconds,
        )
        reps += 1
    return {
        "method": metric_name,
        "threshold": threshold,
        "n_stored": reduced.n_stored,
        "match_calls": scan.calls,
        "rows_per_call": round(scan.rows_per_call, 3),
        "timed_repeats": reps,
        "scan_match_seconds": round(scan_seconds, 6),
        "dense_match_seconds": round(dense_seconds, 6),
        "match_speedup": round(scan_seconds / dense_seconds, 4) if dense_seconds else None,
        "scan_total_seconds": round(scan_total, 6),
        "dense_total_seconds": round(dense_total, 6),
        "total_speedup": round(scan_total / dense_total, 4) if dense_total else None,
        "identical_output": True,
    }


def _run_comparison() -> dict:
    segmented = build_workload(WORKLOAD, get_scale(SCALE)).run_segmented()
    frames = FrameTrace.from_segmented(segmented)
    entries = [
        _compare(segmented, frames, method, threshold) for method, threshold in CONFIGS
    ]
    headline = next(
        e for e in entries if (e["method"], e["threshold"]) == HEADLINE
    )
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "n_ranks": segmented.nprocs,
        "n_segments": segmented.num_segments,
        "cpu_count": os.cpu_count() or 1,
        "headline": {
            "method": HEADLINE[0],
            "threshold": HEADLINE[1],
            "match_speedup": headline["match_speedup"],
            "min_required": MIN_HEADLINE_SPEEDUP,
        },
        "configs": entries,
    }


def test_match_kernel_speedup(benchmark):
    report = run_once(benchmark, _run_comparison)
    write_bench_json(BENCH_PATH, report)

    rows = [
        [
            entry["method"],
            f"{entry['threshold']:g}",
            entry["n_stored"],
            f"{entry['rows_per_call']:.2f}",
            f"{entry['scan_match_seconds']:.4f}",
            f"{entry['dense_match_seconds']:.4f}",
            f"{entry['match_speedup']:.2f}x",
        ]
        for entry in report["configs"]
    ]
    show(
        "BENCH_match_kernel",
        format_table(
            ["method", "threshold", "stored", "rows/call", "scan s", "dense s", "speedup"],
            rows,
            title=(
                f"candidate-match stage: scalar reference vs columnar core — "
                f"{WORKLOAD}/{SCALE} ({report['cpu_count']} cpus)"
            ),
        ),
    )

    for entry in report["configs"]:
        assert entry["identical_output"]
        assert entry["scan_match_seconds"] > 0 and entry["dense_match_seconds"] > 0
        assert entry["timed_repeats"] >= MIN_REPEATS
        # Small-bucket floor: the core must never lose to the reference's scan,
        # whatever the bucket depth profile of the configuration.
        assert entry["match_speedup"] >= MIN_CONFIG_SPEEDUP, (
            f"{entry['method']}({entry['threshold']}) core match stage is slower than "
            f"the scalar reference's: {entry['match_speedup']}x"
        )
    # The acceptance bar: the core must beat the scalar reference by at
    # least 3x on the deep-candidate-list headline configuration.
    assert report["headline"]["match_speedup"] >= MIN_HEADLINE_SPEEDUP, (
        f"headline match-kernel speedup {report['headline']['match_speedup']}x "
        f"is below the required {MIN_HEADLINE_SPEEDUP}x"
    )
