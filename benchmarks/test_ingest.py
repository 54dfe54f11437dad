"""File→pipeline ingestion: text forward-pass vs binary indexed path.

Writes a multi-rank sweep3d trace as a text file and as a columnar binary
(``.rpb``) file, then times how long each takes to stream into the pipeline's
``(rank, RankFrame)`` form (``rank_frame_streams``, the route ``pipeline``
ingests) — the text path parses each rank's run of lines into record columns
in a single forward pass, the binary path decodes NumPy column blocks through
the per-rank footer index.  Also reduces both files through the process-pool
pipeline and checks the outputs are byte-identical, with the binary source
dispatched to the workers as ``(path, rank)`` shard tasks (no pickled rank
payloads).

A second stage measures the columnar hot path end to end on the ``.rpb``
file: fused decode→vectorize (column blocks → ``RankFrame`` → interned
structural keys + bulk feature vectors, no ``Segment`` objects) against
decode-to-segments followed by per-segment normalise/key/vectorize — the
work every reduction performs before its first match decision.

The measurements go to ``BENCH_ingest.json`` at the repository root (plus the
usual ``results/`` table).  The headline (default-scale) ingest speedup is
asserted to be at least 3x and the fused decode→vectorize speedup at least
2x: unlike pool speedups they are not hardware-dependent — both sides of
each ratio run the same single-threaded loop, so the ratios isolate the
decode and vectorize costs.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from support import RESULTS_DIR, run_once, show, write_bench_json

from repro.core.metrics import create_metric
from repro.experiments.config import build_workload, get_scale
from repro.pipeline.engine import PipelineConfig, reduce_pipeline
from repro.pipeline.stream import rank_frame_streams, rank_segment_streams
from repro.trace.formats import convert_trace
from repro.trace.io import serialize_reduced_trace, write_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_ingest.json"

WORKLOAD = "sweep3d_32p"  # 32 ranks; the heaviest multi-rank workload
METHOD = "relDiff"  # cheap metric: keeps the reduce step from masking ingest
MIN_HEADLINE_SPEEDUP = 3.0
MIN_FUSED_SPEEDUP = 2.0


def _time_ingest(path: Path, passes: int = 2) -> tuple[float, int]:
    """Best-of-N wall time to stream a trace file fully into frames.

    The first pass pays one-off costs (page cache, allocator warm-up, lazy
    imports) that are not part of the decode; the minimum over two passes
    measures the steady state both paths reach in any real run.
    """
    best = float("inf")
    n_segments = 0
    for _ in range(passes):
        started = time.perf_counter()
        n_segments = 0
        for _, frame in rank_frame_streams(path):
            n_segments += frame.n_segments
        best = min(best, time.perf_counter() - started)
    return best, n_segments


def _time_segment_vectorize(path: Path, passes: int = 2) -> tuple[float, int]:
    """Decode-to-segments plus per-segment normalise/key/vectorize.

    The pre-columnar hot path: every segment is materialized, copied by
    ``relative_to_start()``, structurally keyed, and turned into a feature
    vector one at a time — the work a reduction performs before its first
    match decision.
    """
    metric = create_metric(METHOD)
    build_vector = metric.build_vector
    best = float("inf")
    n_segments = 0
    for _ in range(passes):
        started = time.perf_counter()
        n_segments = 0
        for _, segments in rank_segment_streams(path):
            for segment in segments:
                relative = segment.relative_to_start()
                relative.structure()
                build_vector(relative)
                n_segments += 1
        best = min(best, time.perf_counter() - started)
    return best, n_segments


def _time_fused(path: Path, passes: int = 2) -> tuple[float, int]:
    """Fused columnar decode→vectorize: columns to keys and vectors directly.

    The frame path's equivalent of :func:`_time_segment_vectorize`: column
    blocks become a ``RankFrame``, then one interning pass yields every
    structural key and one bulk pass yields every feature vector — no
    ``Segment`` objects at all.
    """
    metric = create_metric(METHOD)
    frame_vectors = metric.frame_vectors
    best = float("inf")
    n_segments = 0
    for _ in range(passes):
        started = time.perf_counter()
        n_segments = 0
        for _, frame in rank_frame_streams(path):
            frame.structural_keys()
            frame_vectors(frame)
            n_segments += frame.n_segments
        best = min(best, time.perf_counter() - started)
    return best, n_segments


def _measure_scale(scale_name: str, workdir: Path) -> dict:
    scale = get_scale(scale_name)
    trace = build_workload(WORKLOAD, scale).run()
    text_path = workdir / f"{scale_name}.txt"
    write_trace(trace, text_path)
    # Convert from the text file so both files hold identical (quantized)
    # values and the reductions below are comparable byte for byte.
    rpb_path = workdir / f"{scale_name}.rpb"
    convert_trace(text_path, rpb_path)

    text_seconds, text_segments = _time_ingest(text_path)
    rpb_seconds, rpb_segments = _time_ingest(rpb_path)
    assert rpb_segments == text_segments, "formats disagree on segment count"

    segvec_seconds, segvec_segments = _time_segment_vectorize(rpb_path)
    fused_seconds, fused_segments = _time_fused(rpb_path)
    assert fused_segments == segvec_segments == text_segments, (
        "vectorize stages disagree on segment count"
    )

    serial = reduce_pipeline(text_path, create_metric(METHOD), PipelineConfig(executor="serial"))
    sharded = reduce_pipeline(
        rpb_path,
        create_metric(METHOD),
        PipelineConfig(executor="process", workers=max(2, os.cpu_count() or 1)),
    )
    identical = serialize_reduced_trace(sharded.reduced) == serialize_reduced_trace(
        serial.reduced
    )
    assert identical, "binary shard reduction diverged from the text serial path"
    assert sharded.stats.dispatch == "shard", (
        "binary file sources must reach process workers as (path, rank) shard "
        f"tasks, got dispatch={sharded.stats.dispatch!r}"
    )

    return {
        "scale": scale_name,
        "n_ranks": trace.nprocs,
        "n_records": trace.num_records,
        "n_segments": text_segments,
        "text_bytes": text_path.stat().st_size,
        "rpb_bytes": rpb_path.stat().st_size,
        "text_ingest_seconds": round(text_seconds, 6),
        "rpb_ingest_seconds": round(rpb_seconds, 6),
        "ingest_speedup": round(text_seconds / rpb_seconds, 4) if rpb_seconds else None,
        "segment_vectorize_seconds": round(segvec_seconds, 6),
        "fused_seconds": round(fused_seconds, 6),
        "fused_speedup": round(segvec_seconds / fused_seconds, 4) if fused_seconds else None,
        "shard_dispatch": sharded.stats.dispatch,
        "identical_output": identical,
    }


def _run_comparison() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        return {
            "workload": WORKLOAD,
            "method": METHOD,
            "cpu_count": os.cpu_count() or 1,
            "min_headline_speedup": MIN_HEADLINE_SPEEDUP,
            "scales": {name: _measure_scale(name, workdir) for name in ("smoke", "default")},
        }


def test_ingest_speedup(benchmark):
    report = run_once(benchmark, _run_comparison)
    write_bench_json(BENCH_PATH, report)

    fused_rows = [
        [
            entry["scale"],
            entry["n_segments"],
            f"{entry['segment_vectorize_seconds']:.4f}",
            f"{entry['fused_seconds']:.4f}",
            f"{entry['fused_speedup']:.2f}x",
        ]
        for entry in report["scales"].values()
    ]
    show(
        "BENCH_ingest_fused",
        format_table(
            ["scale", "segments", "per-segment s", "fused s", "speedup"],
            fused_rows,
            title=f"decode→vectorize on .rpb: per-segment vs fused columnar — {WORKLOAD}",
        ),
    )
    rows = [
        [
            entry["scale"],
            entry["n_ranks"],
            entry["n_records"],
            entry["text_bytes"],
            entry["rpb_bytes"],
            f"{entry['text_ingest_seconds']:.4f}",
            f"{entry['rpb_ingest_seconds']:.4f}",
            f"{entry['ingest_speedup']:.2f}x",
        ]
        for entry in report["scales"].values()
    ]
    show(
        "BENCH_ingest",
        format_table(
            ["scale", "ranks", "records", "text B", "rpb B", "text s", "rpb s", "speedup"],
            rows,
            title=f"file ingestion: text forward-pass vs binary indexed — {WORKLOAD}",
        ),
    )
    for entry in report["scales"].values():
        assert entry["identical_output"]
        assert entry["shard_dispatch"] == "shard"
    headline = report["scales"]["default"]
    assert headline["ingest_speedup"] >= MIN_HEADLINE_SPEEDUP, (
        f"binary indexed ingestion must be >= {MIN_HEADLINE_SPEEDUP}x faster than "
        f"the text forward pass, measured {headline['ingest_speedup']:.2f}x"
    )
    assert headline["fused_speedup"] >= MIN_FUSED_SPEEDUP, (
        f"fused columnar decode→vectorize must be >= {MIN_FUSED_SPEEDUP}x faster "
        "than decode-to-segments + per-segment vectorize, measured "
        f"{headline['fused_speedup']:.2f}x"
    )
    # On a real multi-rank trace the columnar encoding is also smaller.
    assert headline["rpb_bytes"] < headline["text_bytes"]
