"""Command-line interface.

Installed as the ``repro-trace`` console script.  The CLI exposes the study
pipeline without writing any Python:

* ``repro-trace list``                       — available workloads, methods, scales
* ``repro-trace evaluate <workload>``        — the four criteria for selected methods
* ``repro-trace thresholds <method>``        — the threshold study for one method
* ``repro-trace trends <workload>``          — the retention-of-trends table
* ``repro-trace figure <fig5|fig6|fig7|fig8>`` — regenerate a comparative figure
* ``repro-trace pipeline <workload>``        — streaming parallel reduction with
  per-stage instrumentation (executor/worker/store options); also ingests
  trace files directly (``--trace``) and dumps workload traces (``--save-trace``)
* ``repro-trace convert <in> <out>``         — convert a trace file between the
  text and columnar-binary (``.rpb``) formats
* ``repro-trace sweep <workload>``           — evaluate a whole method ×
  threshold grid in one shared-ingest pass (table or ``--json`` report with
  per-config criteria and vector-sharing stats); ``--trace FILE`` sweeps a
  trace file instead; a sweep is the pipeline's run with one metric per
  config, so ``--executor process`` takes the same rank-batch tasks
* ``repro-trace serve <workload>``           — drive the online reduction
  service: concurrent incremental sessions with per-tenant budgets and
  eviction-to-checkpoint, flush-delta logging (``--deltas``), and repeat
  requests answered from the content-digest result cache (``--repeat``)
* ``repro-trace report <telemetry.json>``    — render a telemetry file recorded
  with ``--telemetry`` (per-stage/per-worker tables, hottest spans)

All commands accept ``--scale {smoke,default,paper}`` (default: the
``REPRO_SCALE`` environment variable, falling back to ``default``).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from repro import obs
from repro.core.metrics import METRIC_NAMES, THRESHOLD_STUDY, create_metric
from repro.core.reducer import TraceReducer
from repro.experiments.comparative import (
    comparative_study,
    fig5_size_and_matching,
    fig6_approximation_distance,
    fig7_dyn_load_balance_trends,
    fig8_interference_trends,
)
from repro.experiments.config import ALL_WORKLOAD_NAMES, SCALES, build_workload, get_scale
from repro.experiments.formatting import (
    format_comparative_results,
    format_rows,
    format_trend_table,
)
from repro.experiments.thresholds import threshold_study_rows
from repro.experiments.trend_tables import trend_table
from repro.pipeline.engine import EXECUTORS, PipelineConfig, ReductionPipeline
from repro.pipeline.store import create_store
from repro.pipeline.stream import rank_segment_streams, source_name
from repro.trace.formats import convert_trace, format_names, resolve_format
from repro.trace.io import serialize_reduced_trace, write_reduced_trace, write_trace
from repro.util.tables import format_table

__all__ = ["main", "build_parser"]

#: ``--executor`` values.  ``PipelineConfig`` also takes ``"thread"``: the fuzz
#: oracles and the tests run the pooled code on it in-process; it is not a way
#: to go faster, so no command offers it.
_CLI_EXECUTORS = tuple(e for e in EXECUTORS if e != "thread")


class _UsageError(Exception):
    """Bad argument *values* that argparse choices can't express.

    Raised only at argument-construction sites so that genuine internal
    errors keep their tracebacks instead of masquerading as usage errors.
    """


class _VerificationFailed(Exception):
    """``--verify`` found a mismatch against the serial reducer oracle.

    Carries the rendered report so the caller can still print it; the
    process exits non-zero so scripted callers can gate on the flag.
    """

    def __init__(self, report: str, message: str = "pipeline output does not match the serial reducer"):
        super().__init__(message)
        self.report = report


def _matches_serial_reducer(metric, streams, store_capacity, reduced_traces) -> bool:
    """``--verify``: are these the segment-at-a-time reducer's bytes?

    ``streams`` are the ``(rank, segments)`` pairs the command reduced.  The
    oracle runs under the command's own store bound — unbounded, it would
    "fail" every run whose ``--store-capacity`` binds.
    """
    oracle = TraceReducer(metric).reduce_streams(
        "oracle", streams, store_factory=lambda: create_store(store_capacity)
    )
    want = serialize_reduced_trace(oracle)
    return all(serialize_reduced_trace(reduced) == want for reduced in reduced_traces)


def _check_output_paths(*paths: Optional[str]) -> None:
    """Raise now the ``OSError`` that opening an output path would raise after the run."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(path) or "."):
            code = errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)


@contextmanager
def _telemetry(path: Optional[str], command: str, config: Optional[PipelineConfig] = None):
    """``--telemetry PATH``: record the enclosed block and export it to ``path``.

    Yields the export's metadata dict — seeded with the command name and,
    for a pooled command, the resolved worker count of its ``config`` — for
    the block to fill with what the run resolved.  After the block the
    ``"PATH (N spans, M tracks)"`` note is under the dict's ``"note"`` key;
    without ``path`` nothing is recorded and the key stays absent.
    """
    meta: dict = {"command": command}
    if config is not None:
        meta["workers"] = config.resolved_workers()
    if path is None:
        yield meta
        return
    with obs.recording(command) as recorder:
        yield meta
    payload = obs.write_chrome_trace(recorder, path, metadata=meta)
    spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    tracks = {(e["pid"], e["tid"]) for e in spans}
    meta["note"] = f"{path} ({len(spans)} spans, {len(tracks)} tracks)"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Similarity-based trace reduction study (Mohror & Karavanic, 2009).",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="workload scale profile (default: $REPRO_SCALE or 'default')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, similarity methods, and scale profiles")

    evaluate = sub.add_parser("evaluate", help="run the comparative criteria on one workload")
    evaluate.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    evaluate.add_argument(
        "--methods",
        nargs="+",
        choices=METRIC_NAMES,
        default=list(METRIC_NAMES),
        help="similarity methods to evaluate (default: all nine)",
    )

    thresholds = sub.add_parser("thresholds", help="threshold study for one method")
    thresholds.add_argument("method", choices=sorted(THRESHOLD_STUDY))
    thresholds.add_argument(
        "--workloads",
        nargs="+",
        choices=ALL_WORKLOAD_NAMES,
        default=None,
        help="workloads to sweep (default: the 16 benchmark programs)",
    )

    trends = sub.add_parser("trends", help="retention-of-trends table for one workload")
    trends.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    trends.add_argument(
        "--methods", nargs="+", choices=METRIC_NAMES, default=None, help="methods to include"
    )

    figure = sub.add_parser("figure", help="regenerate one of the paper's comparative figures")
    figure.add_argument("which", choices=("fig5", "fig6", "fig7", "fig8"))

    describe = sub.add_parser("describe", help="describe one workload without running it")
    describe.add_argument("workload", choices=ALL_WORKLOAD_NAMES)

    pipeline = sub.add_parser(
        "pipeline", help="streaming parallel reduction with per-stage instrumentation"
    )
    pipeline.add_argument(
        "workload",
        nargs="?",
        choices=ALL_WORKLOAD_NAMES,
        help="workload to simulate and reduce (omit when using --trace)",
    )
    pipeline.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="reduce this trace file instead of simulating a workload "
        "(format dispatched on extension: .rpb is columnar binary, else text)",
    )
    pipeline.add_argument(
        "--save-trace",
        default=None,
        metavar="FILE",
        help="also write the workload's full raw trace to FILE "
        "(format dispatched on extension)",
    )
    pipeline.add_argument(
        "--method", choices=METRIC_NAMES, default="relDiff", help="similarity method"
    )
    pipeline.add_argument(
        "--threshold", type=float, default=None, help="method threshold (default: paper's best)"
    )
    pipeline.add_argument(
        "--executor",
        choices=_CLI_EXECUTORS,
        default="serial",
        help="how ranks are reduced: in this process (default) or through a "
        "process pool, which pays off on large indexed (.rpb) files on two "
        "or more cores",
    )
    pipeline.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )
    pipeline.add_argument(
        "--store-capacity",
        type=int,
        default=None,
        help="bound the per-rank representative store (LRU eviction; default: unbounded)",
    )
    pipeline.add_argument(
        "--merge",
        action="store_true",
        help="run the inter-process merge (cross-rank representative dedup) final stage",
    )
    pipeline.add_argument(
        "--verify",
        action="store_true",
        help="also run the serial reducer and check the outputs are byte-identical",
    )
    pipeline.add_argument(
        "--output", default=None, help="stream the reduced trace to this file"
    )
    pipeline.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help="record spans/metrics and export a Chrome trace_event timeline "
        "to PATH (default: telemetry.json); view with Perfetto or "
        "'repro-trace report PATH'",
    )

    sweep = sub.add_parser(
        "sweep",
        help="evaluate a method × threshold grid in one shared-ingest pass",
    )
    sweep.add_argument(
        "workload",
        nargs="?",
        choices=ALL_WORKLOAD_NAMES,
        help="workload to simulate and sweep (omit when using --trace)",
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="sweep this trace file instead of simulating a workload "
        "(a pool gets an indexed .rpb file's ranks as shard batches)",
    )
    sweep.add_argument(
        "--methods",
        nargs="+",
        choices=METRIC_NAMES,
        default=["euclidean", "manhattan"],
        help="methods in the grid (default: euclidean manhattan)",
    )
    sweep.add_argument(
        "--thresholds",
        nargs="+",
        type=float,
        default=None,
        metavar="T",
        help="thresholds applied to every listed method "
        "(default: each method's paper threshold-study values)",
    )
    sweep.add_argument(
        "--executor",
        choices=_CLI_EXECUTORS,
        default="serial",
        help="in this process (default) or a process pool over rank batches, "
        "each task running the whole grid (.rpb files as shard batches, "
        "other sources as pickled frames)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )
    sweep.add_argument(
        "--store-capacity",
        type=int,
        default=None,
        help="bound every config's per-rank representative store (default: unbounded)",
    )
    sweep.add_argument(
        "--verify",
        action="store_true",
        help="also run every config through the serial reducer and check the "
        "reduced traces are byte-identical",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="emit the grid and sharing stats as JSON instead of tables",
    )
    sweep.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help="record spans/metrics and export a Chrome trace_event timeline "
        "to PATH (default: telemetry.json)",
    )

    serve = sub.add_parser(
        "serve",
        help="drive the online reduction service (incremental sessions, "
        "checkpoints, digest cache)",
    )
    serve.add_argument(
        "workload",
        nargs="?",
        choices=ALL_WORKLOAD_NAMES,
        help="workload to simulate and stream (omit when using --trace)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="stream this trace file through the service instead of a workload",
    )
    serve.add_argument(
        "--method", choices=METRIC_NAMES, default="relDiff", help="similarity method"
    )
    serve.add_argument(
        "--threshold", type=float, default=None, help="method threshold (default: paper's best)"
    )
    serve.add_argument(
        "--store-capacity",
        type=int,
        default=None,
        help="bound each session's per-rank representative store (default: unbounded)",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="concurrent sessions fed the same stream under one tenant (default: 1)",
    )
    serve.add_argument(
        "--chunk",
        type=int,
        default=8,
        help="segments per append call (default: 8)",
    )
    serve.add_argument(
        "--flush-every",
        type=int,
        default=4,
        help="appends between delta flushes (default: 4)",
    )
    serve.add_argument(
        "--tenant-budget",
        type=int,
        default=None,
        help="max live representatives across the tenant's resident sessions; "
        "idle sessions beyond it are evicted to checkpoints (default: unbounded)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="per-session command queue depth; appends block beyond it (default: 16)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="one-shot submit() requests of the full trace after the sessions "
        "finish; identical content answers from the digest cache (default: 1)",
    )
    serve.add_argument(
        "--deltas",
        default=None,
        metavar="FILE",
        help="append the lead session's non-empty flush deltas to this log file",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="check every session's output is byte-identical to the serial reducer",
    )
    serve.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help="record spans/metrics (incl. service counters) and export a "
        "Chrome trace_event timeline to PATH (default: telemetry.json)",
    )

    report = sub.add_parser(
        "report",
        help="render a recorded telemetry file (per-stage/per-worker tables, hottest spans)",
    )
    report.add_argument("file", help="telemetry JSON written by --telemetry")
    report.add_argument(
        "--top", type=int, default=10, help="number of hottest spans to list (default: 10)"
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="deterministic scenario fuzzer: adversarial workloads through the oracle matrix",
    )
    fuzz.add_argument(
        "--cases", type=int, default=27, help="number of cases to plan (default: 27)"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed (default: 0)")
    fuzz.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="restrict to these generator families (default: all, round-robin)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop planning new cases after this many seconds (truncates, never alters)",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="case database directory (default: tests/regression_corpus when saving)",
    )
    fuzz.add_argument(
        "--save-failures",
        action="store_true",
        help="persist failing cases to the corpus directory as replayable JSON",
    )
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="greedily minimize failing cases before persisting them",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="CASE",
        help="replay one corpus case (by id or path) instead of running a campaign",
    )

    convert = sub.add_parser(
        "convert",
        help="convert a trace file between the text and binary (.rpb) formats",
    )
    convert.add_argument("input", help="source trace file")
    convert.add_argument("output", help="destination trace file")
    convert.add_argument(
        "--from-format",
        choices=format_names(),
        default=None,
        help="source format (default: dispatch on the input extension)",
    )
    convert.add_argument(
        "--to-format",
        choices=format_names(),
        default=None,
        help="destination format (default: dispatch on the output extension)",
    )

    return parser


def _cmd_list() -> str:
    lines = ["workloads:"]
    lines += [f"  {name}" for name in ALL_WORKLOAD_NAMES]
    lines.append("similarity methods:")
    lines += [f"  {name}" for name in METRIC_NAMES]
    lines.append("scale profiles:")
    lines += [f"  {name}" for name in sorted(SCALES)]
    return "\n".join(lines)


def _cmd_describe(workload_name: str, scale) -> str:
    workload = build_workload(workload_name, scale)
    rows = [
        ["name", workload.name],
        ["processes", workload.nprocs],
        ["operations", workload.program.num_ops],
        ["expected metric", workload.expected_metric or "-"],
        ["expected location", workload.expected_location or "-"],
        ["description", workload.description],
    ]
    return format_table(["property", "value"], rows, title=f"workload {workload_name}")


def _cmd_evaluate(workload_name: str, methods: Sequence[str], scale) -> str:
    results = comparative_study((workload_name,), tuple(methods), scale=scale)
    return format_comparative_results(
        results, title=f"comparative study — {workload_name} (scale={scale.name})"
    )


def _cmd_thresholds(method: str, workloads: Optional[Sequence[str]], scale) -> str:
    rows = threshold_study_rows(method, workloads, scale=scale)
    return format_rows(rows, title=f"threshold study — {method} (scale={scale.name})")


def _cmd_trends(workload_name: str, methods: Optional[Sequence[str]], scale) -> str:
    table = trend_table(workload_name, methods, scale=scale)
    return format_trend_table(
        table, title=f"retention of performance trends — {workload_name} (scale={scale.name})"
    )


def _cmd_pipeline(args, scale) -> str:
    from repro.evaluation.filesize import decoded_trace_bytes, full_trace_bytes

    # Validate argument values before the expensive trace generation.
    try:
        metric = create_metric(args.method, args.threshold)
        config = PipelineConfig(
            executor=args.executor,
            workers=args.workers,
            store_capacity=args.store_capacity,
            merge=args.merge,
        )
        if args.trace is not None and args.workload is not None:
            raise ValueError("give either a workload or --trace FILE, not both")
        if args.trace is None and args.workload is None:
            raise ValueError("a workload name or --trace FILE is required")
        if args.trace is not None and args.save_trace is not None:
            raise ValueError("--save-trace only applies when simulating a workload")
    except ValueError as error:
        raise _UsageError(str(error)) from error
    _check_output_paths(args.save_trace, args.output, args.telemetry)

    if args.trace is not None:
        from pathlib import Path

        trace_path = Path(args.trace)
        if not trace_path.exists():
            raise _UsageError(f"trace file {trace_path} does not exist")
        source = trace_path
        rows_head = [
            ["trace file", f"{trace_path} ({resolve_format(trace_path).name} format)"],
        ]
        segmented = None
    else:
        workload = build_workload(args.workload, scale)
        if args.save_trace is not None:
            trace = workload.run()
            write_trace(trace, args.save_trace)
            segmented = trace.segmented()
        else:
            segmented = workload.run_segmented()
        source = segmented
        rows_head = [["workload", args.workload]]
    pipeline_runner = ReductionPipeline(metric, config)
    with _telemetry(args.telemetry, "pipeline", config) as telemetry:
        # Only --verify (which must not write on failure) and --merge need
        # the reduced trace as objects; otherwise it streams into the file.
        result = None
        if args.output and not (args.verify or args.merge):
            reduced_bytes, stats = pipeline_runner.write(source, args.output)
        else:
            result = pipeline_runner.reduce(source)
            stats = result.stats
        # Sizing the full trace is part of the recorded run; the tasks that
        # decoded an indexed file's ranks have sized them (no second pass).
        if segmented is None:
            full_bytes = decoded_trace_bytes(source, stats.text_bytes)
        else:
            full_bytes = full_trace_bytes(segmented)
        telemetry.update(
            subject=args.workload if args.trace is None else args.trace,
            method=metric.describe(),
            executor=stats.executor,
            dispatch=stats.dispatch,
        )

    identical = True
    if args.verify:
        identical = _matches_serial_reducer(
            create_metric(args.method, args.threshold),
            rank_segment_streams(source),
            args.store_capacity,
            [result.reduced],
        )
    # The file written is the serialization ``size_bytes`` counts, so when it
    # is written its byte count is the reduced size.
    if result is not None:
        if args.output and identical:
            reduced_bytes = write_reduced_trace(result.reduced, args.output)
        else:
            reduced_bytes = result.reduced.size_bytes()

    rows = [
        *rows_head,
        ["method", metric.describe()],
        *stats.rows(),
        ["full trace bytes", full_bytes],
        ["reduced trace bytes", reduced_bytes],
        ["% file size", f"{100.0 * reduced_bytes / full_bytes:.2f}" if full_bytes else "-"],
    ]
    if args.save_trace is not None:
        from pathlib import Path

        saved = Path(args.save_trace)
        rows.append(
            ["trace written to", f"{saved} ({saved.stat().st_size} bytes, "
             f"{resolve_format(saved).name} format)"]
        )
    if result is not None and result.merged is not None:
        rows.append(["merged trace bytes", result.merged.size_bytes()])
    if "note" in telemetry:
        rows.append(["telemetry written to", telemetry["note"]])
    if args.verify:
        rows.append(["matches serial reducer", "yes" if identical else "NO"])
    if args.output:
        if identical:
            rows.append(["written to", f"{args.output} ({reduced_bytes} bytes)"])
        else:
            rows.append(["written to", "(skipped: verification failed)"])
    subject = args.workload if args.trace is None else args.trace
    title = f"pipeline reduction — {subject}"
    if args.trace is None:
        title += f" (scale={scale.name})"
    report = format_table(["property", "value"], rows, title=title)
    if not identical:
        raise _VerificationFailed(report)
    return report


def _cmd_sweep(args, scale) -> str:
    import json
    from pathlib import Path

    from repro.evaluation.runner import PreparedWorkload
    from repro.experiments.config import prepared_workload
    from repro.pipeline.engine import sweep_pipeline
    from repro.sweep.plan import SweepPlan

    try:
        plan = SweepPlan.from_grid(args.methods, args.thresholds)
        if args.trace is not None and args.workload is not None:
            raise ValueError("give either a workload or --trace FILE, not both")
        if args.trace is None and args.workload is None:
            raise ValueError("a workload name or --trace FILE is required")
        config = PipelineConfig(
            executor=args.executor,
            workers=args.workers,
            store_capacity=args.store_capacity,
        )
    except ValueError as error:
        raise _UsageError(str(error)) from error
    _check_output_paths(args.telemetry)

    if args.trace is not None:
        trace_path = Path(args.trace)
        if not trace_path.exists():
            raise _UsageError(f"trace file {trace_path} does not exist")
        prepared = PreparedWorkload.from_file(trace_path)
        # A pool shards the file itself; in this process the frames just
        # decoded for the criteria are the source, so the file decodes once.
        source = trace_path if config.resolved_workers() > 1 else prepared.segmented
        subject = f"{trace_path} ({resolve_format(trace_path).name} format)"
    else:
        prepared = prepared_workload(args.workload, scale)
        source = prepared.segmented
        subject = f"{args.workload} (scale={scale.name})"

    with _telemetry(args.telemetry, "sweep", config) as telemetry:
        sweep_result = sweep_pipeline(source, plan, config, name=prepared.name)
        results = sweep_result.evaluation_results(prepared)
        telemetry.update(
            subject=subject,
            configs=plan.n_configs,
            dispatch=sweep_result.stats.dispatch,
        )
    telemetry_note = telemetry.get("note")

    identical = True
    if args.verify:
        identical = all(
            _matches_serial_reducer(
                outcome.config.create(),
                rank_segment_streams(prepared.segmented),
                args.store_capacity,
                [outcome.reduced],
            )
            for outcome in sweep_result
        )

    if args.json:
        payload = {
            "subject": subject,
            "configs": [
                {
                    "method": r.method,
                    "threshold": r.threshold,
                    "pct_file_size": r.pct_file_size,
                    "degree_of_matching": r.degree_of_matching,
                    "approx_distance_us": r.approx_distance_us,
                    "trends_retained": r.trends_retained,
                    "n_stored": r.n_stored,
                    "reduced_bytes": r.reduced_bytes,
                }
                for r in results
            ],
        }
        stats = sweep_result.stats
        payload["stats"] = {
            "n_configs": stats.n_configs,
            "n_families": stats.n_families,
            "dispatch": stats.dispatch,
            "n_ranks": stats.n_ranks,
            "n_segments": stats.n_segments,
            "vector_builds": stats.vector_builds,
            "vector_builds_saved": stats.vector_builds_saved,
            "sharing_factor": stats.sharing_factor,
            "total_seconds": stats.total_seconds,
        }
        if args.verify:
            payload["matches_serial_oracle"] = identical
        if telemetry_note is not None:
            payload["telemetry"] = telemetry_note
        report = json.dumps(payload, indent=2)
    else:
        grid_rows = [
            [
                r.method,
                "-" if r.threshold is None else f"{r.threshold:g}",
                f"{r.pct_file_size:.2f}",
                f"{r.degree_of_matching:.4f}",
                f"{r.approx_distance_us:.2f}",
                "yes" if r.trends_retained else "NO",
                r.n_stored,
            ]
            for r in results
        ]
        report = format_table(
            ["method", "threshold", "% file size", "matching", "approx dist (us)", "trends", "stored"],
            grid_rows,
            title=f"sweep grid — {subject}",
        )
        stats_rows = sweep_result.stats.rows()
        if args.verify:
            stats_rows.append(["matches serial oracle", "yes" if identical else "NO"])
        report += "\n\n" + format_table(
            ["property", "value"], stats_rows, title="shared-ingest stats"
        )
        if telemetry_note is not None:
            report += f"\n\ntelemetry written to {telemetry_note}"
    if not identical:
        raise _VerificationFailed(
            report, "sweep output does not match the serial reducer oracle"
        )
    return report


def _cmd_serve(args, scale) -> str:
    import asyncio
    from pathlib import Path

    from repro.service import ReductionService, SessionConfig
    from repro.trace.io import DeltaWriter

    try:
        config = SessionConfig(
            method=args.method,
            threshold=args.threshold,
            store_capacity=args.store_capacity,
        )
        if args.trace is not None and args.workload is not None:
            raise ValueError("give either a workload or --trace FILE, not both")
        if args.trace is None and args.workload is None:
            raise ValueError("a workload name or --trace FILE is required")
        if args.sessions < 1:
            raise ValueError(f"--sessions must be >= 1, got {args.sessions}")
        if args.chunk < 1:
            raise ValueError(f"--chunk must be >= 1, got {args.chunk}")
        if args.flush_every < 1:
            raise ValueError(f"--flush-every must be >= 1, got {args.flush_every}")
        if args.repeat < 0:
            raise ValueError(f"--repeat must be >= 0, got {args.repeat}")
        if args.tenant_budget is not None and args.tenant_budget < 1:
            raise ValueError(f"--tenant-budget must be >= 1, got {args.tenant_budget}")
        if args.queue_limit < 1:
            raise ValueError(f"--queue-limit must be >= 1, got {args.queue_limit}")
    except ValueError as error:
        raise _UsageError(str(error)) from error
    _check_output_paths(args.deltas, args.telemetry)

    if args.trace is not None:
        trace_path = Path(args.trace)
        if not trace_path.exists():
            raise _UsageError(f"trace file {trace_path} does not exist")
        source = trace_path
        subject = str(trace_path)
    else:
        source = build_workload(args.workload, scale).run_segmented()
        subject = args.workload
    # Materialize once: every session replays the same per-rank stream, and
    # forward-only text sources cannot be iterated twice.
    stream = [(rank, list(segments)) for rank, segments in rank_segment_streams(source)]
    trace_name = source_name(source)

    async def drive(delta_writer):
        service = ReductionService(
            tenant_budget=args.tenant_budget, queue_limit=args.queue_limit
        )
        handles = [
            await service.open_session(
                "cli", f"{trace_name}/s{i}", config
            )
            for i in range(args.sessions)
        ]

        async def feed(index, handle):
            appends = 0
            for rank, segments in stream:
                for at in range(0, len(segments), args.chunk):
                    await handle.append(rank, segments=segments[at : at + args.chunk])
                    appends += 1
                    if appends % args.flush_every == 0:
                        delta = await handle.flush()
                        if index == 0 and delta_writer is not None:
                            delta_writer.write(delta)
            result = await handle.finish()
            if index == 0 and delta_writer is not None:
                delta_writer.write(result.delta)
            return result

        results = await asyncio.gather(
            *(feed(i, handle) for i, handle in enumerate(handles))
        )
        submits = [
            await service.submit("cli", source, config) for _ in range(args.repeat)
        ]
        await service.close()
        return service, results, submits

    delta_writer = DeltaWriter(args.deltas) if args.deltas is not None else None
    try:
        with _telemetry(args.telemetry, "serve") as telemetry:
            service, results, submits = asyncio.run(drive(delta_writer))
            recorder = obs.current_recorder()
            if recorder is not None:
                service.stats.record(recorder.registry, "service")
            telemetry.update(
                subject=subject, method=config.describe(), sessions=args.sessions
            )
    finally:
        if delta_writer is not None:
            delta_writer.close()

    stats = service.stats
    reduced_bytes = results[0].reduced.size_bytes()
    rows = [
        ["subject", subject],
        ["method", config.describe()],
        ["sessions", args.sessions],
        ["chunk (segments/append)", args.chunk],
        *[[label, value] for label, value in stats.rows()],
        ["reduced trace bytes", reduced_bytes],
        ["trace digest", results[0].digest[:16] + "…"],
    ]
    if submits:
        hits = sum(1 for s in submits if s.cache_hit)
        rows.append(["submit requests", f"{len(submits)} ({hits} cache hits)"])
    if delta_writer is not None:
        rows.append(
            ["delta log", f"{args.deltas} ({delta_writer.deltas_written} deltas, "
             f"{delta_writer.bytes_written} bytes)"]
        )
    if "note" in telemetry:
        rows.append(["telemetry written to", telemetry["note"]])

    identical = True
    if args.verify:
        identical = _matches_serial_reducer(
            create_metric(args.method, args.threshold),
            stream,
            args.store_capacity,
            [result.reduced for result in results],
        )
        rows.append(["matches serial reducer", "yes" if identical else "NO"])

    title = f"online reduction service — {subject}"
    if args.trace is None:
        title += f" (scale={scale.name})"
    report = format_table(["property", "value"], rows, title=title)
    if not identical:
        raise _VerificationFailed(
            report, "service output does not match the serial reducer"
        )
    return report


def _cmd_report(args) -> str:
    from pathlib import Path

    path = Path(args.file)
    if not path.exists():
        raise _UsageError(f"telemetry file {path} does not exist")
    try:
        return obs.render_report(path, top=args.top)
    except (ValueError, KeyError) as error:
        raise _UsageError(f"{path} is not a telemetry export: {error}") from error


def _cmd_convert(args) -> str:
    from pathlib import Path

    if not Path(args.input).exists():
        raise _UsageError(f"trace file {args.input} does not exist")
    try:
        report = convert_trace(
            args.input,
            args.output,
            from_format=args.from_format,
            to_format=args.to_format,
        )
    except ValueError as error:
        raise _UsageError(str(error)) from error
    ratio = (
        f"{100.0 * report.dest_bytes / report.source_bytes:.2f}"
        if report.source_bytes
        else "-"
    )
    rows = [
        ["input", f"{report.source} ({report.source_format} format)"],
        ["output", f"{report.dest} ({report.dest_format} format)"],
        ["ranks", report.n_ranks],
        ["records", report.n_records],
        ["input bytes", report.source_bytes],
        ["output bytes", report.dest_bytes],
        ["% input size", ratio],
    ]
    return format_table(["property", "value"], rows, title="trace conversion")


def _cmd_fuzz(args) -> str:
    import tempfile
    from pathlib import Path

    from repro.fuzz import FAMILY_NAMES, CaseDB, run_fuzz
    from repro.fuzz.casedb import DEFAULT_CORPUS_DIR
    from repro.fuzz.oracles import run_oracles

    if args.families:
        unknown = [f for f in args.families if f not in FAMILY_NAMES]
        if unknown:
            raise _UsageError(
                f"unknown families {unknown}; available: {', '.join(FAMILY_NAMES)}"
            )

    if args.replay is not None:
        db = CaseDB(args.corpus or DEFAULT_CORPUS_DIR)
        try:
            case = db.load(args.replay)
        except FileNotFoundError as error:
            raise _UsageError(str(error)) from error
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            outcomes = run_oracles(
                case.trace(), case.config, Path(tmp), case.oracles, seed=case.seed
            )
        rows = [[o.name, o.status, o.detail[:80]] for o in outcomes]
        table = format_table(
            ["oracle", "status", "detail"],
            rows,
            title=f"replay {case.id} ({case.family}, {case.config.describe()})",
        )
        if any(o.failed for o in outcomes):
            raise _VerificationFailed(table, f"corpus case {case.id} still fails")
        return table

    corpus_dir = None
    if args.save_failures or args.corpus:
        corpus_dir = Path(args.corpus) if args.corpus else DEFAULT_CORPUS_DIR
    report = run_fuzz(
        args.seed,
        args.cases,
        families=args.families,
        time_budget=args.time_budget,
        corpus_dir=corpus_dir,
        shrink=args.shrink,
    )
    rows = []
    for result in report.results:
        failed = ", ".join(result.failed_oracles) or "-"
        n_pass = sum(o.status == "pass" for o in result.outcomes)
        n_skip = sum(o.status == "skip" for o in result.outcomes)
        rows.append(
            [
                result.case.id,
                result.case.spec.family,
                result.case.config.describe(),
                f"{n_pass}/{len(result.outcomes)}" + (f" ({n_skip} skip)" if n_skip else ""),
                failed,
            ]
        )
    title = (
        f"fuzz seed={report.seed}: {len(report.results)}/{report.planned} cases, "
        f"{report.n_failed} failed, {report.seconds:.1f}s"
        + (" [time budget hit]" if report.truncated else "")
    )
    table = format_table(["case", "family", "config", "oracles", "failed"], rows, title=title)
    coverage = report.oracle_coverage
    coverage_line = "oracle coverage: " + ", ".join(
        f"{name}={coverage.get(name, 0)}" for name in sorted(coverage)
    )
    output = table + "\n" + coverage_line
    if report.saved:
        output += "\nsaved: " + ", ".join(str(p) for p in report.saved)
    if not report.ok:
        raise _VerificationFailed(output, f"{report.n_failed} fuzz case(s) failed")
    return output


def _cmd_figure(which: str, scale) -> str:
    if which == "fig5":
        return format_rows(fig5_size_and_matching(scale=scale), title="Figure 5")
    if which == "fig6":
        return format_rows(fig6_approximation_distance(scale=scale), title="Figure 6")
    if which == "fig7":
        charts = fig7_dyn_load_balance_trends(scale=scale)
    else:
        charts = fig8_interference_trends(scale=scale)
    return "\n\n".join(charts.values())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)

    try:
        output = _dispatch(args, scale, parser)
    except _UsageError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit
    except OSError as error:
        if error.filename is None:
            raise
        parser.error(f"{error.filename}: {error.strerror}")
    except _VerificationFailed as failure:
        print(failure.report)
        print(f"error: {failure}", file=sys.stderr)
        return 1
    print(output)
    return 0


def _dispatch(args, scale, parser) -> str:
    if args.command == "list":
        output = _cmd_list()
    elif args.command == "describe":
        output = _cmd_describe(args.workload, scale)
    elif args.command == "evaluate":
        output = _cmd_evaluate(args.workload, args.methods, scale)
    elif args.command == "thresholds":
        output = _cmd_thresholds(args.method, args.workloads, scale)
    elif args.command == "trends":
        output = _cmd_trends(args.workload, args.methods, scale)
    elif args.command == "figure":
        output = _cmd_figure(args.which, scale)
    elif args.command == "pipeline":
        output = _cmd_pipeline(args, scale)
    elif args.command == "sweep":
        output = _cmd_sweep(args, scale)
    elif args.command == "serve":
        output = _cmd_serve(args, scale)
    elif args.command == "report":
        output = _cmd_report(args)
    elif args.command == "convert":
        output = _cmd_convert(args)
    elif args.command == "fuzz":
        output = _cmd_fuzz(args)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return output


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
