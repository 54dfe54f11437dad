"""Span recorder and the traced replay that attributes an op's wall time to layers.

Every span here is recorded from the benchmark's side of a layer's public
call; nothing inside ``repro`` is instrumented, and ``repro.obs`` is not used,
so an obs refactor cannot move these numbers.  A layer is a ``repro`` module;
a metric a workload's command never reaches reads 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro import obs
from repro.analysis.expert import analyze
from repro.core.candidates import MatchCounters
from repro.core.frametrace import FrameTrace
from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer
from repro.evaluation.filesize import full_trace_bytes_from_file
from repro.evaluation.runner import PreparedWorkload
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, sweep_pipeline
from repro.pipeline.store import StoreCounters, create_store
from repro.trace import binio
from repro.trace.io import serialize_reduced_trace, write_reduced_trace

#: Spans whose seconds are reported as ``<name>_s``.
TIMED = (
    "trace.index", "trace.decode", "frames.key", "frames.vectorize", "reducer.reduce_frame",
    "evaluation.full_bytes", "pipeline.reduce", "reduced.size_bytes", "trace.write_reduced",
    "evaluation.prepare", "analysis.analyze", "sweep.engine", "evaluation.criteria",
)
#: The rank-by-rank spans of pass B that together redo ``pipeline.serial_reduce``.
INNER = ("trace.decode", "frames.key", "frames.vectorize", "reducer.reduce_frame")


class Recorder:
    """In-memory spans: ``{id, name, workload, start_ns, end_ns, parent}``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "workload": self.workload,
            "parent": self._open[-1] if self._open else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end_ns"] = time.perf_counter_ns()

    def durations(self, name: str) -> list[float]:
        """Seconds of each finished span called ``name``, in start order."""
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name]

    def under(self, root: str) -> list[dict]:
        """Per span called ``root``: the seconds of its descendants, summed by name."""
        totals: dict[int, defaultdict] = {}  # span id -> the totals of the root above it
        roots = []
        for span in self.spans:  # parents come before their children
            if span["name"] == root:
                totals[span["id"]] = defaultdict(float)
                roots.append(totals[span["id"]])
            elif span["parent"] in totals:
                totals[span["id"]] = totals[span["parent"]]
                totals[span["id"]][span["name"]] += (span["end_ns"] - span["start_ns"]) / 1e9
        return [dict(total) for total in roots]

    def write(self, handle) -> None:
        """Append the spans to an open ``spans.jsonl``, one JSON object a line."""
        for span in self.spans:
            handle.write(json.dumps(span) + "\n")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_startup(env: dict, repeats: int) -> dict:
    """Interpreter start and ``import repro.cli``, each the min of ``repeats``."""

    def best(code: str) -> float:
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - started)
        return min(samples)

    interp = best("pass")
    return {"cli.interp_s": interp, "cli.import_s": best("import repro.cli") - interp}


def replay(workload, trace: Path, output: Path, rec: Recorder) -> tuple[dict, Optional[str]]:
    """One traced iteration, run right after the op it explains.

    Returns what no span holds (counts, bytes, children's CPU) and the digest
    of the bytes pass B reduced to (``None`` for a sweep).
    """
    with rec.span("replay"):
        values = _pass_a(workload, trace, output, rec)
        _nested_calls(workload, trace, rec)
        inner, digest = _pass_b(workload, trace, rec)
    return {**values, **inner}, digest


def _pass_a(workload, trace: Path, output: Path, rec: Recorder) -> dict:
    """The command's own call sequence: with start-up and teardown, the op's wall clock."""
    with rec.span("pass_a"):
        if workload.is_sweep:
            with rec.span("evaluation.prepare"):
                prepared = PreparedWorkload.from_file(trace)
            with rec.span("sweep.engine"):
                swept = sweep_pipeline(trace, workload.plan(), workload.config(), name=prepared.name)
            with rec.span("evaluation.criteria"):
                swept.evaluation_results(prepared)
            return {"sweep.sharing_factor": swept.stats.sharing_factor,
                    "sweep.vector_builds": swept.stats.vector_builds,
                    "frames.segments": swept.stats.n_segments,
                    "frames.materialized": swept.stats.segments_materialized}
        with rec.span("evaluation.full_bytes"):
            full_trace_bytes_from_file(trace)
        children_before = _children_cpu_s()
        with rec.span("pipeline.reduce"):
            result = ReductionPipeline(workload.metric(), workload.config()).reduce(trace)
        children_cpu = _children_cpu_s() - children_before
        with rec.span("reduced.size_bytes"):
            result.reduced.size_bytes()
        with rec.span("trace.write_reduced"):
            written = write_reduced_trace(result.reduced, output)
        return {"pipeline.children_cpu_s": children_cpu, "reduced_bytes": written}


def _nested_calls(workload, trace: Path, rec: Recorder) -> None:
    """Calls that sit inside a coarse span of pass A, or beside it, timed on their own."""
    if workload.is_sweep:
        # Both run inside ``PreparedWorkload.from_file``.
        with rec.span("evaluation.full_bytes"):
            full_trace_bytes_from_file(trace)
        with rec.span("analysis.analyze"):
            analyze(FrameTrace.from_file(trace))
        return
    if workload.executor != "serial":
        with rec.span("pipeline.serial_reduce"):
            ReductionPipeline(workload.metric(), PipelineConfig(executor="serial")).reduce(trace)
    with obs.recording("bench"), rec.span("pipeline.reduce_recorded"):
        ReductionPipeline(workload.metric(), workload.config()).reduce(trace)


def _pass_b(workload, trace: Path, rec: Recorder) -> tuple[dict, Optional[str]]:
    """The serial pipeline's inner sequence, rank by rank: splits ``pipeline.serial_reduce``.

    A sweep stops after the vectorize step its configs share.
    """
    metric = workload.metric()
    match, store_counters = MatchCounters(), StoreCounters()
    ranks, materialized = [], 0
    # Bump the file's change time so the footer index is parsed cold, as the
    # CLI process finds it (``read_index`` caches on stat identity).
    os.utime(trace)
    with rec.span("pass_b"):
        with rec.span("trace.index"):
            rank_ids = binio.rank_ids(trace)
        for rank in rank_ids:
            with rec.span("trace.decode"):
                frame = binio.rank_frame(trace, rank)
            with rec.span("frames.key"):
                frame.structural_keys()
            with rec.span("frames.vectorize"):
                metric.frame_vectors(frame)
            if workload.is_sweep:
                continue
            store = create_store(None)
            with rec.span("reducer.reduce_frame"):
                ranks.append(
                    TraceReducer(metric).reduce_frame(frame, store=store, match_counters=match)
                )
            store_counters = store_counters.merged_with(store.counters)
            materialized += frame.materialized
    if workload.is_sweep:
        return {}, None
    reduced = ReducedTrace(name=trace.stem, method=metric.name, threshold=metric.threshold, ranks=ranks)
    values = {
        "frames.segments": reduced.n_segments,
        "frames.materialized": materialized,
        "reducer.kernel_calls": match.calls,
        "reducer.rows_per_call": match.rows_per_call,
        "reducer.rows_pruned": match.rows_pruned,
        "reducer.kernel_s": match.seconds,
        "reducer.match_rate": reduced.n_matches / reduced.n_segments,
        "reducer.stored": reduced.n_stored,
        "reducer.store_hits": store_counters.hits,
        "reducer.store_lookups": store_counters.lookups,
    }
    return values, hashlib.sha256(serialize_reduced_trace(reduced)).hexdigest()


def layer_metrics(rec: Recorder, values: list[dict], ops: list[dict], startup: dict,
                  records: int, input_bytes: int) -> dict:
    """Every per-layer metric of one workload.

    Set-up metrics are medians over the set-ups; the others are medians over
    the traced iterations, differences and ratios taken within an iteration,
    whose calls ran within seconds of each other.  ``values`` and ``ops``
    hold one entry per iteration, in the order of the ``replay`` spans.
    """
    median = statistics.median
    setups, replays = rec.under("setup"), rec.under("replay")
    m = {f"{name}_s": median(s[name] for s in setups)
         for name in ("simulator.build", "simulator.run", "trace.write_rpb")}
    m["simulator.records_per_s"] = records / m["simulator.run_s"]
    m["bench.check_s"] = sum(rec.durations("check"))
    m.update(startup)
    m.update({f"{name}_s": median(r.get(name, 0.0) for r in replays) for name in TIMED})
    m.update({name: median(v[name] for v in values) for name in values[0]})
    reduced_bytes = m.pop("reduced_bytes", 0)

    def per_second(amount: float, seconds: float) -> float:
        return amount / seconds if seconds else 0.0

    m["trace.decode_mb_per_s"] = per_second(input_bytes / 1e6, m["trace.decode_s"])
    m["trace.write_reduced_mb_per_s"] = per_second(reduced_bytes / 1e6, m["trace.write_reduced_s"])
    if "pipeline.reduce" in replays[0]:
        # On a serial workload ``pipeline.reduce`` is the serial reduce.
        serial = [r.get("pipeline.serial_reduce", r["pipeline.reduce"]) for r in replays]
        m["pipeline.serial_reduce_s"] = median(serial)
        # Base: the serial executor on the same file in the same process.
        m["pipeline.pool_speedup"] = median(s / r["pipeline.reduce"] for s, r in zip(serial, replays))
        m["pipeline.overhead_s"] = median(
            s - sum(r[name] for name in INNER) for s, r in zip(serial, replays))
        m["obs.recording_overhead_pct"] = median(
            100.0 * (r["pipeline.reduce_recorded"] / r["pipeline.reduce"] - 1.0) for r in replays)
        m["reducer.us_per_segment"] = 1e6 * m["reducer.reduce_frame_s"] / m["frames.segments"]
    m["cli.teardown_s"] = median(op["teardown"] for op in ops)
    # Signed: argument parsing, report formatting and process spawn, plus the
    # distortion of replaying in-process.
    m["cli.residual_s"] = median(
        op["wall"] - startup["cli.interp_s"] - startup["cli.import_s"] - r["pass_a"] - op["teardown"]
        for op, r in zip(ops, replays))
    m["cli.residual_pct"] = 100.0 * m["cli.residual_s"] / median(op["wall"] for op in ops)
    return m
