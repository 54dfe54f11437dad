"""What the pool buys, against an honest base (the pipeline subsystem's bench).

Times three reductions of one multi-rank workload at the smoke and default
scales — the scalar segment-at-a-time reference
(``TraceReducer.reduce_streams``, the byte-identity oracle, called
explicitly), the pipeline's ``serial`` executor (the columnar path, no pool), and
the pipeline's process pool — verifies all three outputs are byte-identical,
and writes the measurements to ``BENCH_pipeline.json`` at the repository root
(plus the usual ``results/`` table).  Two ratios, kept apart:

``columnar_speedup``
    scan ÷ serial executor: frames vs segment-at-a-time — what the columnar
    core buys in one process over the paper's scalar scan.
``pool_speedup``
    serial executor ÷ pool: what the pool buys on top — the definition
    ``bench/layers.py`` uses for ``pipeline.pool_speedup``.  Dividing the
    scan by the pool instead credits the pool with the columnar path's gain.

A third table, the ``.rpb`` row, is the route the CLI takes with ``--output``:
the default-scale workload written to a temporary ``.rpb`` file and reduced
file → file by :meth:`ReductionPipeline.write`, on the ``serial`` executor and
on a process pool of 1, 2, … ``os.cpu_count()`` workers (1 auto-downgrades to
serial) — ``pool_speedup`` per worker count, the worker-scaling curve of
byte-balanced shard batches.

A fourth, the many-short-ranks row, is the same serial file → file
``write()`` on a 256-rank ``late_sender`` file: its µs per record beside the
32-rank Sweep3D file's says what a rank costs beyond its records (decode,
keying and vectorizing are paid per run of ranks, the match step per rank).

All are hardware-dependent — a process pool cannot beat the serial path on
a single-CPU runner, nor on an input that reduces faster than two workers
fork — so the recorded ``cpu_count`` is part of the result and the test only
*asserts* equivalence, never a minimum speedup.
"""

from __future__ import annotations

import os
import time

from support import RESULTS_DIR, run_once, show, write_bench_json
from tests.support import reference_reduce

from repro.benchmarks_ats import late_sender
from repro.core.metrics import create_metric
from repro.experiments.config import build_workload, get_scale
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.trace.io import serialize_reduced_trace, write_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_pipeline.json"

WORKLOAD = "sweep3d_32p"  # 32 ranks; the heaviest multi-rank workload
METHOD = "haarWave"  # the most compute-intensive similarity method


def _time_reduction(segmented, reducer) -> tuple[float, bytes]:
    started = time.perf_counter()
    reduced = reducer(segmented)
    elapsed = time.perf_counter() - started
    return elapsed, serialize_reduced_trace(reduced)


def _compare_at_scale(scale_name: str) -> dict:
    scale = get_scale(scale_name)
    segmented = build_workload(WORKLOAD, scale).run_segmented()
    workers = os.cpu_count() or 1
    pool = PipelineConfig(executor="process", workers=workers)
    serial = PipelineConfig(executor="serial")

    scan_seconds, scan_bytes = _time_reduction(
        segmented, lambda t: reference_reduce(create_metric(METHOD), t)
    )
    serial_seconds, serial_bytes = _time_reduction(
        segmented,
        lambda t: ReductionPipeline(create_metric(METHOD), serial).reduce(t).reduced,
    )
    pool_seconds, pool_bytes = _time_reduction(
        segmented,
        lambda t: ReductionPipeline(create_metric(METHOD), pool).reduce(t).reduced,
    )
    assert serial_bytes == scan_bytes, "serial executor diverged from the scan reducer"
    assert pool_bytes == scan_bytes, "process pool diverged from the scan reducer"
    return {
        "scale": scale_name,
        "n_ranks": segmented.nprocs,
        "n_segments": segmented.num_segments,
        "workers": workers,
        "scan_seconds": round(scan_seconds, 6),
        "serial_executor_seconds": round(serial_seconds, 6),
        "pool_seconds": round(pool_seconds, 6),
        "columnar_speedup": round(scan_seconds / serial_seconds, 4),
        "pool_speedup": round(serial_seconds / pool_seconds, 4),
        "identical_output": True,
    }


def _rpb_curve(scale_name: str, workdir) -> dict:
    """File → file ``write()`` of the workload's ``.rpb``: serial, then 1..cpu_count workers."""
    trace = build_workload(WORKLOAD, get_scale(scale_name)).run()
    path, out = workdir / "workload.rpb", workdir / "reduced.out"
    write_trace(trace, path)
    expected = serialize_reduced_trace(reference_reduce(create_metric(METHOD), trace.segmented()))

    def timed_write(config: PipelineConfig) -> float:
        started = time.perf_counter()
        ReductionPipeline(create_metric(METHOD), config).write(path, out)
        elapsed = time.perf_counter() - started
        assert out.read_bytes() == expected, f"{config} diverged from the scan reducer"
        return elapsed

    n_records = sum(len(rank.records) for rank in trace.ranks)
    serial_seconds = timed_write(PipelineConfig(executor="serial"))
    pool = {}
    for workers in range(1, (os.cpu_count() or 1) + 1):
        seconds = timed_write(PipelineConfig(executor="process", workers=workers))
        pool[str(workers)] = {
            "seconds": round(seconds, 6),
            "pool_speedup": round(serial_seconds / seconds, 4),
        }
    return {
        "scale": scale_name,
        "input_bytes": path.stat().st_size,
        "reduced_bytes": len(expected),
        "n_ranks": trace.nprocs,
        "n_records": n_records,
        "serial_write_seconds": round(serial_seconds, 6),
        "serial_us_per_record": round(1e6 * serial_seconds / n_records, 3),
        "pool_write": pool,
        "identical_output": True,
    }


def _short_ranks_row(workdir) -> dict:
    """Serial file → file ``write()`` of a 256-rank ``late_sender`` file."""
    trace = late_sender(nprocs=256, iterations=20, seed=11).run()
    path, out = workdir / "short_ranks.rpb", workdir / "short_ranks.out"
    write_trace(trace, path)
    expected = serialize_reduced_trace(reference_reduce(create_metric(METHOD), trace.segmented()))
    n_records = sum(len(rank.records) for rank in trace.ranks)
    started = time.perf_counter()
    ReductionPipeline(create_metric(METHOD)).write(path, out)
    seconds = time.perf_counter() - started
    assert out.read_bytes() == expected, "many short ranks diverged from the scan reducer"
    return {
        "workload": "late_sender",
        "input_bytes": path.stat().st_size,
        "n_ranks": trace.nprocs,
        "n_records": n_records,
        "serial_write_seconds": round(seconds, 6),
        "serial_us_per_record": round(1e6 * seconds / n_records, 3),
        "identical_output": True,
    }


def _run_comparison(workdir) -> dict:
    return {
        "workload": WORKLOAD,
        "method": METHOD,
        "cpu_count": os.cpu_count() or 1,
        "scales": {name: _compare_at_scale(name) for name in ("smoke", "default")},
        "rpb": _rpb_curve("default", workdir),
        "short_ranks": _short_ranks_row(workdir),
    }


def test_pipeline_speedup(benchmark, tmp_path):
    report = run_once(benchmark, lambda: _run_comparison(tmp_path))
    write_bench_json(BENCH_PATH, report)

    rows = [
        [
            entry["scale"],
            entry["n_ranks"],
            entry["n_segments"],
            f"{entry['scan_seconds']:.4f}",
            f"{entry['serial_executor_seconds']:.4f}",
            f"{entry['pool_seconds']:.4f}",
            f"{entry['columnar_speedup']:.2f}x",
            f"{entry['pool_speedup']:.2f}x",
        ]
        for entry in report["scales"].values()
    ]
    rpb, short = report["rpb"], report["short_ranks"]
    show(
        "BENCH_pipeline",
        format_table(
            ["scale", "ranks", "segments", "scan s", "serial s", "pool s",
             "columnar (scan/serial)", "pool (serial/pool)"],
            rows,
            title=(
                f"scan reducer vs serial executor vs process pool — {WORKLOAD}/{METHOD} "
                f"({report['cpu_count']} cpus)"
            ),
        )
        + "\n\n"
        + format_table(
            ["workers", "write s", "pool (serial/pool)"],
            [["serial", f"{rpb['serial_write_seconds']:.4f}", "1.00x"]]
            + [
                [workers, f"{entry['seconds']:.4f}", f"{entry['pool_speedup']:.2f}x"]
                for workers, entry in rpb["pool_write"].items()
            ],
            title=(
                f".rpb file -> reduced file by write() — {rpb['scale']} scale, "
                f"{rpb['input_bytes']} bytes in, {rpb['reduced_bytes']} out"
            ),
        )
        + "\n\n"
        + format_table(
            ["file", "ranks", "records", "write s", "us / record"],
            [
                [name, row["n_ranks"], row["n_records"], f"{row['serial_write_seconds']:.4f}",
                 f"{row['serial_us_per_record']:.2f}"]
                for name, row in ((WORKLOAD, rpb), (short["workload"], short))
            ],
            title="serial write(), .rpb file -> reduced file: what a rank costs beyond its records",
        ),
    )
    assert rpb["identical_output"] and short["identical_output"]
    for entry in report["scales"].values():
        assert entry["identical_output"]
        assert min(
            entry["scan_seconds"], entry["serial_executor_seconds"], entry["pool_seconds"]
        ) > 0
