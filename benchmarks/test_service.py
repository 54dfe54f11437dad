"""Online reduction service: incremental ingest cost and cache-hit latency.

Two questions the ``repro.service`` subsystem must answer with numbers
rather than design claims:

* **What does incrementality cost?**  A :class:`ReductionSession` fed the
  same trace in small chunks — each rank's frame appended as row views
  (``RankFrame.chunks``), with periodic delta flushes, per-row column-digest
  chaining, and delta bookkeeping — is timed against two
  one-shot reductions of identical input.  ``incremental_overhead`` (gated)
  divides by the scalar segment-at-a-time reference
  (``TraceReducer.reduce_streams``, called explicitly): the session must
  stay within 3x of the paper's plain loop.  ``overhead_vs_core`` (recorded,
  ungated) divides by ``TraceReducer.reduce``, the columnar core the
  session itself steps chunk by chunk, so it isolates the service's
  bookkeeping plus what small chunks cost the batch step.  The outputs are
  asserted byte-identical first; a fast-but-wrong incremental path would
  fail before any timing gate.

* **What does the content-digest cache buy?**  ``ReductionService.submit``
  is issued twice with identical content: the first call pays a full
  session reduction, the second is answered from the
  :class:`ResultCache` and pays only the streaming ``source_digest`` (the
  same per-row chaining over the same frames, no ``Segment`` built).
  The hit/miss latency ratio is the cache's value proposition.

The headline (default-scale) gates are conservative: incremental overhead
must stay under 3x batch, and a cache hit must be at least 2x faster than
the miss it replaces — both ratios run on the same machine back to back, so
they are not hardware-dependent.  Results land in ``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import time

from support import RESULTS_DIR, run_once, show, write_bench_json
from tests.support import reference_reduce

from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.experiments.config import build_workload, get_scale
from repro.pipeline.stream import rank_frame_streams
from repro.service import ReductionService, ReductionSession, SessionConfig
from repro.trace.io import serialize_delta, serialize_reduced_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_service.json"

WORKLOAD = "sweep3d_32p"  # 32 ranks; the heaviest multi-rank workload
METHOD = "relDiff"
CHUNK = 8  # segments per append: small enough to exercise the delta path
FLUSH_EVERY = 4  # appends between delta flushes

#: Incremental session time / scalar reference time, measured at default scale.
MAX_INCREMENTAL_OVERHEAD = 3.0

#: Cache-miss latency / cache-hit latency for an identical repeat submit.
MIN_CACHE_HIT_SPEEDUP = 2.0


def _time_batch(trace, reduce, passes: int = 2) -> tuple[float, bytes]:
    """Best-of-N one-shot ``reduce(metric, trace)``; returns its bytes too."""
    best = float("inf")
    payload = b""
    for _ in range(passes):
        metric = create_metric(METHOD)
        started = time.perf_counter()
        reduced = reduce(metric, trace)
        best = min(best, time.perf_counter() - started)
        payload = serialize_reduced_trace(reduced)
    return best, payload


def _time_incremental(trace, passes: int = 2) -> tuple[float, bytes, int]:
    """Best-of-N chunked session feed with periodic flushes.

    Every delta the session emits is also serialized, so the measured time
    includes the full cost a live consumer would impose on the service.  The
    frames are built inside the timing, as ``TraceReducer.reduce`` builds its.
    """
    best = float("inf")
    payload = b""
    delta_bytes = 0
    for _ in range(passes):
        session = ReductionSession(trace.name, SessionConfig(METHOD))
        appends = 0
        delta_bytes = 0
        started = time.perf_counter()
        for _, frame in rank_frame_streams(trace):
            for piece in frame.chunks(CHUNK):
                session.append(piece)
                appends += 1
                if appends % FLUSH_EVERY == 0:
                    delta_bytes += len(serialize_delta(session.flush()))
        result = session.finish()
        delta_bytes += len(serialize_delta(result.delta))
        best = min(best, time.perf_counter() - started)
        payload = serialize_reduced_trace(result.reduced)
    return best, payload, delta_bytes


def _time_cache(trace, hit_passes: int = 3) -> tuple[float, float, bytes]:
    """One cold submit (miss), then best-of-N identical submits (hits)."""

    async def main():
        service = ReductionService()
        config = SessionConfig(METHOD)
        started = time.perf_counter()
        first = await service.submit("bench", trace, config)
        miss = time.perf_counter() - started
        assert not first.cache_hit
        hit = float("inf")
        for _ in range(hit_passes):
            started = time.perf_counter()
            repeat = await service.submit("bench", trace, config)
            hit = min(hit, time.perf_counter() - started)
            assert repeat.cache_hit
            assert repeat.payload == first.payload
        await service.close()
        return miss, hit, first.payload

    return asyncio.run(main())


def _measure_scale(scale_name: str) -> dict:
    trace = build_workload(WORKLOAD, get_scale(scale_name)).run().segmented()
    n_segments = sum(len(rank.segments) for rank in trace.ranks)

    batch_seconds, oracle = _time_batch(trace, reference_reduce)
    core_seconds, core = _time_batch(trace, lambda metric, t: TraceReducer(metric).reduce(t))
    assert core == oracle, "the columnar core diverged from the scalar reference"
    incr_seconds, incremental, delta_bytes = _time_incremental(trace)
    assert incremental == oracle, (
        "incremental session output diverged from the batch reducer"
    )
    miss_seconds, hit_seconds, payload = _time_cache(trace)
    assert payload == oracle, "service submit output diverged from the batch reducer"

    return {
        "scale": scale_name,
        "n_ranks": trace.nprocs,
        "n_segments": n_segments,
        "chunk": CHUNK,
        "flush_every": FLUSH_EVERY,
        "batch_seconds": round(batch_seconds, 6),
        "core_seconds": round(core_seconds, 6),
        "incremental_seconds": round(incr_seconds, 6),
        "incremental_overhead": round(incr_seconds / batch_seconds, 4)
        if batch_seconds
        else None,
        "overhead_vs_core": round(incr_seconds / core_seconds, 4) if core_seconds else None,
        "append_throughput_segments_per_s": round(n_segments / incr_seconds, 1)
        if incr_seconds
        else None,
        "delta_bytes": delta_bytes,
        "reduced_bytes": len(oracle),
        "cache_miss_seconds": round(miss_seconds, 6),
        "cache_hit_seconds": round(hit_seconds, 6),
        "cache_hit_speedup": round(miss_seconds / hit_seconds, 4)
        if hit_seconds
        else None,
        "identical_output": True,
    }


def _run_comparison() -> dict:
    return {
        "workload": WORKLOAD,
        "method": METHOD,
        "max_incremental_overhead": MAX_INCREMENTAL_OVERHEAD,
        "min_cache_hit_speedup": MIN_CACHE_HIT_SPEEDUP,
        "scales": {name: _measure_scale(name) for name in ("smoke", "default")},
    }


def test_service_overhead_and_cache(benchmark):
    report = run_once(benchmark, _run_comparison)
    write_bench_json(BENCH_PATH, report)

    rows = [
        [
            entry["scale"],
            entry["n_segments"],
            f"{entry['batch_seconds']:.4f}",
            f"{entry['core_seconds']:.4f}",
            f"{entry['incremental_seconds']:.4f}",
            f"{entry['incremental_overhead']:.2f}x",
            f"{entry['overhead_vs_core']:.2f}x",
            f"{entry['append_throughput_segments_per_s']:.0f}",
        ]
        for entry in report["scales"].values()
    ]
    show(
        "BENCH_service_incremental",
        format_table(
            ["scale", "segments", "reference s", "core s", "incremental s",
             "overhead (vs reference)", "vs core", "seg/s"],
            rows,
            title=f"incremental session vs one-shot reductions — {WORKLOAD}",
        ),
    )
    cache_rows = [
        [
            entry["scale"],
            entry["reduced_bytes"],
            f"{entry['cache_miss_seconds']:.4f}",
            f"{entry['cache_hit_seconds']:.4f}",
            f"{entry['cache_hit_speedup']:.2f}x",
        ]
        for entry in report["scales"].values()
    ]
    show(
        "BENCH_service_cache",
        format_table(
            ["scale", "reduced B", "miss s", "hit s", "speedup"],
            cache_rows,
            title=f"submit latency: cold reduction vs content-digest cache hit — {WORKLOAD}",
        ),
    )

    for entry in report["scales"].values():
        assert entry["identical_output"]
    headline = report["scales"]["default"]
    assert headline["incremental_overhead"] <= MAX_INCREMENTAL_OVERHEAD, (
        f"chunked incremental reduction must stay under {MAX_INCREMENTAL_OVERHEAD}x "
        f"the scalar reference, measured {headline['incremental_overhead']:.2f}x"
    )
    assert headline["cache_hit_speedup"] >= MIN_CACHE_HIT_SPEEDUP, (
        f"a cache hit must be >= {MIN_CACHE_HIT_SPEEDUP}x faster than the cold "
        f"submit it replaces, measured {headline['cache_hit_speedup']:.2f}x"
    )
