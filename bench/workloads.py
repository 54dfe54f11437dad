"""The benchmark's workloads: their inputs, their commands, and their references.

Inputs are simulated here, in set-up, from ``--seed``; the program under test
only ever sees the ``.rpb`` file.  Sizes are the largest that let the driver's
92 runs (each with its own set-up, check and at least five timed ops) finish
inside the 3420 s cap on a 2-core box — see README.md for the sizing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.evaluation.filesize import full_trace_bytes_from_file
from repro.evaluation.runner import PreparedWorkload, evaluate_grid
from repro.experiments.config import SCALES, build_workload
from repro.pipeline.engine import PipelineConfig
from repro.sweep.plan import SweepPlan
from repro.trace import binio
from repro.trace.io import serialize_reduced_trace, write_trace

#: input name -> (simulated program, overrides of ``SCALES["paper"]``).
INPUTS = {
    # 32-rank Sweep3D, twice the paper's four timesteps: ~196k records, ~6 MB.
    "s3d32_long": ("sweep3d_32p", {"sweep3d_32p_timesteps": 8}),
    # The paper's Tables 12-16 rank count: 1024 short ranks, ~131k records.
    "ats1024": ("late_sender", {"benchmark_nprocs": 1024, "benchmark_iterations": 20}),
    # 32-rank Sweep3D at the paper's grid, half its timesteps: ~49k records.
    "s3d32_grid": ("sweep3d_32p", {"sweep3d_32p_timesteps": 2}),
}

#: ``--quick`` stand-ins on ``SCALES["smoke"]``: sub-second traces that reach
#: the same code, so the smoke test can run all four workloads in tier-1.
QUICK_INPUTS = {
    "s3d32_long": ("sweep3d_8p", {}),
    "ats1024": ("late_sender", {"benchmark_nprocs": 16}),
    "s3d32_grid": ("sweep3d_8p", {}),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an input file and the CLI command run on it."""

    name: str
    input: str
    method: str = ""  # ``pipeline`` workloads: one (method, threshold) config
    threshold: Optional[float] = None
    executor: str = "serial"
    workers: Optional[int] = None
    methods: tuple[str, ...] = ()  # ``sweep`` workloads: the grid's methods

    @property
    def is_sweep(self) -> bool:
        return bool(self.methods)

    def argv(self, trace: Path, output: Path) -> list[str]:
        """Arguments after ``python -m repro.cli`` for one op."""
        if self.is_sweep:
            return ["sweep", "--trace", str(trace), "--methods", *self.methods,
                    "--executor", self.executor, "--json"]
        argv = ["pipeline", "--trace", str(trace), "--method", self.method,
                "--threshold", repr(self.threshold), "--executor", self.executor]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        return [*argv, "--output", str(output)]

    def plan(self) -> SweepPlan:
        return SweepPlan.from_grid(self.methods)

    def metric(self):
        """The op's metric; for a sweep, one of the family its configs share vectors in."""
        if self.is_sweep:
            return create_metric(self.methods[0])
        return create_metric(self.method, self.threshold)

    def config(self) -> PipelineConfig:
        return PipelineConfig(executor=self.executor, workers=self.workers)


#: Why each exists is in ``BENCHMARK.json`` (``why``) and, at length, in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Call-count-bound: two candidate rows per kernel call, nearly every segment matches.
        Workload("s3d32_long.reldiff", "s3d32_long", method="relDiff", threshold=0.8),
        # Row-bound: most segments miss and write the store; deep buckets, MBs out.
        Workload("s3d32_long.euclid_strict", "s3d32_long", method="euclidean", threshold=0.001),
        # Dispatch- and decode-bound: 1024 short ranks through a 2-worker pool.
        Workload("ats1024.pool2", "ats1024", method="relDiff", threshold=0.8,
                 executor="process", workers=2),
        # The paper's threshold study: 12 configs of one feature family, four criteria each.
        Workload("s3d32_paper.sweep_grid", "s3d32_grid", methods=("euclidean", "manhattan")),
    )
}


def build_input(workload: Workload, seed: int, path: Path, rec, quick: bool = False) -> int:
    """Simulate ``workload``'s input from ``seed`` and write it; returns its record count."""
    program, overrides = (QUICK_INPUTS if quick else INPUTS)[workload.input]
    scale = dataclasses.replace(SCALES["smoke" if quick else "paper"], seed=seed, **overrides)
    with rec.span("simulator.build"):
        simulated = build_workload(program, scale)
    with rec.span("simulator.run"):
        trace = simulated.run()
    with rec.span("trace.write_rpb"):
        write_trace(trace, path)
    return sum(len(rank.records) for rank in trace.ranks)


def reference(workload: Workload, trace: Path):
    """What every op on ``trace`` must produce, computed off the timed path.

    ``pipeline``: the digest of the segment-at-a-time reducer's bytes (no
    frames, no pipeline, no store classes).  ``sweep``: the rows of one
    independent serial reduction per config.  Also returns the full trace's
    text-equivalent bytes, the denominator of ``reduced_pct``.
    """
    if workload.is_sweep:
        prepared = PreparedWorkload.from_file(trace)
        results = evaluate_grid(prepared, workload.plan(), keep_comparison=False, backend="serial")
        return [_config_row(r) for r in results], prepared.full_bytes * len(results)
    reduced = TraceReducer(workload.metric()).reduce_streams(
        trace.stem, ((r, binio.iter_rank_segments(trace, r)) for r in binio.rank_ids(trace))
    )
    digest = hashlib.sha256(serialize_reduced_trace(reduced)).hexdigest()
    return digest, full_trace_bytes_from_file(trace)


def _config_row(result) -> dict:
    # The fields ``sweep --json`` prints per config, in its order.
    return {
        "method": result.method,
        "threshold": result.threshold,
        "pct_file_size": result.pct_file_size,
        "degree_of_matching": result.degree_of_matching,
        "approx_distance_us": result.approx_distance_us,
        "trends_retained": result.trends_retained,
        "n_stored": result.n_stored,
        "reduced_bytes": result.reduced_bytes,
    }


def op_result(workload: Workload, output: Path, stdout: Path):
    """What one op produced, in :func:`reference`'s form, and its reduced bytes."""
    if workload.is_sweep:
        configs = json.loads(stdout.read_text())["configs"]
        return configs, sum(c["reduced_bytes"] for c in configs)
    data = output.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)
