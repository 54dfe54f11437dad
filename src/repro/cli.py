"""Command-line interface.

Installed as the ``repro-trace`` console script.  The CLI exposes the study
pipeline without writing any Python:

* ``repro-trace list``                       — available workloads, methods, scales
* ``repro-trace evaluate <workload>``        — the four criteria for selected methods
* ``repro-trace thresholds <method>``        — the threshold study for one method
* ``repro-trace trends <workload>``          — the retention-of-trends table
* ``repro-trace figure <fig5|fig6|fig7|fig8>`` — regenerate a comparative figure
* ``repro-trace pipeline <workload>``        — streaming parallel reduction with
  per-stage instrumentation; also dumps workload traces (``--save-trace``)
* ``repro-trace convert <in> <out>``         — convert a trace file between the
  text and columnar-binary (``.rpb``) formats
* ``repro-trace sweep <workload>``           — evaluate a whole method ×
  threshold grid in one shared-ingest pass (table or ``--json`` report with
  per-config criteria and vector-sharing stats); a sweep is the pipeline's
  run with one metric per config, so ``--executor process`` takes the same
  rank-batch tasks
* ``repro-trace serve <workload>``           — drive the online reduction
  service: concurrent incremental sessions with per-tenant budgets and
  eviction-to-checkpoint, flush-delta logging (``--deltas``), and repeat
  requests answered from the content-digest result cache (``--repeat``)
* ``repro-trace report <telemetry.json>``    — render a telemetry file recorded
  with ``--telemetry`` (per-stage/per-worker tables, hottest spans)

All commands accept ``--scale {smoke,default,paper}`` (default: the
``REPRO_SCALE`` environment variable, falling back to ``default``).

The commands that take a trace (``pipeline``, ``sweep``, ``serve``) share
one door.  Their common options are ``argparse`` parent parsers, declared
once: the input (``workload`` or ``--trace FILE``, ``--store-capacity``,
``--verify``, ``--telemetry``) in all three, ``--method``/``--threshold`` in
``pipeline`` and ``serve``, ``--executor``/``--workers`` in ``pipeline`` and
``sweep``.  :func:`_trace_path` checks the input; a file that is no valid
trace is one ``repro-trace: error: FILE: …`` line and exit 2, as it is for
``convert``.  ``--verify`` hands the segment-at-a-time oracle the command's
*input* — the file, read again by the segment decoder, or the workload's
simulated segments — never frames the command built
(:func:`_matches_serial_reducer`).

Every subcommand names its handler (``set_defaults(run=…)``), which takes
``(args, scale)`` and returns the text to print.  A handler imports what only
its command uses — the paper's studies, the sweep, the service, the fuzzer —
and the ``repro`` packages load their modules on first use, so start-up is
paid for the command that runs: ``pipeline --trace F`` loads neither the
simulator nor the analysis, and ``sweep --trace F`` not the simulator.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.core.metrics import METRIC_NAMES, THRESHOLD_STUDY, create_metric
from repro.core.reducer import TraceReducer
from repro.experiments.config import ALL_WORKLOAD_NAMES, SCALES, build_workload, get_scale
from repro.pipeline.engine import EXECUTORS, PipelineConfig, ReductionPipeline
from repro.pipeline.store import create_store
from repro.pipeline.stream import rank_segment_streams, source_name
from repro.trace.binio import RpbFormatError
from repro.trace.formats import convert_trace, format_names, resolve_format
from repro.trace.io import TextFormatError, serialize_reduced_trace, write_reduced_trace, write_trace
from repro.trace.segments import SegmentationError
from repro.util.tables import format_table

__all__ = ["main", "build_parser"]

#: ``--executor`` values.  ``PipelineConfig`` also takes ``"thread"``: the fuzz
#: oracles and the tests run the pooled code on it in-process; it is not a way
#: to go faster, so no command offers it.
_CLI_EXECUTORS = tuple(e for e in EXECUTORS if e != "thread")

#: What the trace readers raise for an input file (``--trace``, ``convert``'s
#: input) that is no valid trace.
_BAD_TRACE = (TextFormatError, RpbFormatError, SegmentationError)

#: ``serve``'s counts and the least value each takes (``None`` is unbounded).
_SERVE_MINIMUMS = (
    ("sessions", 1),
    ("chunk", 1),
    ("flush_every", 1),
    ("repeat", 0),
    ("tenant_budget", 1),
    ("queue_limit", 1),
)


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


def _matches_serial_reducer(metric, source, store_capacity, reduced_traces) -> bool:
    """``--verify``: are these the segment-at-a-time reducer's bytes for ``source``?

    ``source`` is the command's input — the ``--trace`` file, which the
    segment decoder reads again, or the workload's simulated
    ``SegmentedTrace`` — never frames the command built, so a fault in the
    frame decoder or the segments→frame adapter shows as a mismatch.  The
    oracle runs under the command's own store bound — unbounded, it would
    "fail" every run whose ``--store-capacity`` binds.
    """
    oracle = TraceReducer(metric).reduce_streams(
        "oracle",
        rank_segment_streams(source),
        store_factory=lambda: create_store(store_capacity),
    )
    want = serialize_reduced_trace(oracle)
    return all(serialize_reduced_trace(reduced) == want for reduced in reduced_traces)


def _trace_path(args) -> Optional[Path]:
    """The checked ``--trace`` file, or ``None`` to simulate ``args.workload``."""
    if args.trace is None:
        if args.workload is None:
            raise _UsageError("a workload name or --trace FILE is required")
        return None
    if args.workload is not None:
        raise _UsageError("give either a workload or --trace FILE, not both")
    path = Path(args.trace)
    if not path.exists():
        raise _UsageError(f"trace file {path} does not exist")
    return path


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

    # The options pipeline, sweep and serve share, declared once each.
    trace_input = argparse.ArgumentParser(add_help=False)
    trace_input.add_argument(
        "workload",
        nargs="?",
        choices=ALL_WORKLOAD_NAMES,
        help="workload to simulate (omit when using --trace)",
    )
    trace_input.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="read this trace file instead of simulating a workload "
        "(format dispatched on extension: .rpb is columnar binary, else text)",
    )
    trace_input.add_argument(
        "--store-capacity",
        type=int,
        default=None,
        help="bound each per-rank representative store (LRU eviction; default: unbounded)",
    )
    trace_input.add_argument(
        "--verify",
        action="store_true",
        help="also reduce the input with the serial reducer and check the "
        "outputs are byte-identical (exit 1 if not)",
    )
    trace_input.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help="record spans/metrics and export a Chrome trace_event timeline "
        "to PATH (default: telemetry.json); view with Perfetto or "
        "'repro-trace report PATH'",
    )
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument(
        "--method", choices=METRIC_NAMES, default="relDiff", help="similarity method"
    )
    method.add_argument(
        "--threshold", type=float, default=None, help="method threshold (default: paper's best)"
    )
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--executor",
        choices=_CLI_EXECUTORS,
        default="serial",
        help="how ranks are reduced: in this process (default) or through a "
        "process pool over rank batches (.rpb files as shard batches, other "
        "sources as pickled frames), which pays off on large .rpb files on "
        "two or more cores",
    )
    pool.add_argument("--workers", type=int, default=None, help="pool size (default: cpu count)")

    sub.add_parser(
        "list", help="list workloads, similarity methods, and scale profiles"
    ).set_defaults(run=_cmd_list)

    evaluate = sub.add_parser("evaluate", help="run the comparative criteria on one workload")
    evaluate.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    evaluate.add_argument(
        "--methods",
        nargs="+",
        choices=METRIC_NAMES,
        default=list(METRIC_NAMES),
        help="similarity methods to evaluate (default: all nine)",
    )
    evaluate.set_defaults(run=_cmd_evaluate)

    thresholds = sub.add_parser("thresholds", help="threshold study for one method")
    thresholds.add_argument("method", choices=sorted(THRESHOLD_STUDY))
    thresholds.add_argument(
        "--workloads",
        nargs="+",
        choices=ALL_WORKLOAD_NAMES,
        default=None,
        help="workloads to sweep (default: the 16 benchmark programs)",
    )
    thresholds.set_defaults(run=_cmd_thresholds)

    trends = sub.add_parser("trends", help="retention-of-trends table for one workload")
    trends.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    trends.add_argument(
        "--methods", nargs="+", choices=METRIC_NAMES, default=None, help="methods to include"
    )
    trends.set_defaults(run=_cmd_trends)

    figure = sub.add_parser("figure", help="regenerate one of the paper's comparative figures")
    figure.add_argument("which", choices=("fig5", "fig6", "fig7", "fig8"))
    figure.set_defaults(run=_cmd_figure)

    describe = sub.add_parser("describe", help="describe one workload without running it")
    describe.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    describe.set_defaults(run=_cmd_describe)

    pipeline = sub.add_parser(
        "pipeline",
        parents=[trace_input, method, pool],
        help="streaming parallel reduction with per-stage instrumentation",
    )
    pipeline.add_argument(
        "--save-trace",
        default=None,
        metavar="FILE",
        help="also write the workload's full raw trace to FILE "
        "(format dispatched on extension)",
    )
    pipeline.add_argument(
        "--merge",
        action="store_true",
        help="run the inter-process merge (cross-rank representative dedup) final stage",
    )
    pipeline.add_argument(
        "--output", default=None, help="stream the reduced trace to this file"
    )
    pipeline.set_defaults(run=_cmd_pipeline)

    sweep = sub.add_parser(
        "sweep",
        parents=[trace_input, pool],
        help="evaluate a method × threshold grid in one shared-ingest pass",
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
        "--json",
        action="store_true",
        help="emit the grid and sharing stats as JSON instead of tables",
    )
    sweep.set_defaults(run=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        parents=[trace_input, method],
        help="drive the online reduction service (incremental sessions, "
        "checkpoints, digest cache)",
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
    serve.set_defaults(run=_cmd_serve)

    report = sub.add_parser(
        "report",
        help="render a recorded telemetry file (per-stage/per-worker tables, hottest spans)",
    )
    report.add_argument("file", help="telemetry JSON written by --telemetry")
    report.add_argument(
        "--top", type=int, default=10, help="number of hottest spans to list (default: 10)"
    )
    report.set_defaults(run=_cmd_report)

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
    fuzz.set_defaults(run=_cmd_fuzz)

    convert = sub.add_parser(
        "convert",
        help="convert a trace file between the text and binary (.rpb) formats",
    )
    # ``trace``, as the input file of pipeline/sweep/serve: main names it in
    # the error for a file that is no valid trace.
    convert.add_argument("trace", metavar="input", help="source trace file")
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
    convert.set_defaults(run=_cmd_convert)

    return parser


def _cmd_list(args, scale) -> str:
    lines = ["workloads:"]
    lines += [f"  {name}" for name in ALL_WORKLOAD_NAMES]
    lines.append("similarity methods:")
    lines += [f"  {name}" for name in METRIC_NAMES]
    lines.append("scale profiles:")
    lines += [f"  {name}" for name in sorted(SCALES)]
    return "\n".join(lines)


def _cmd_describe(args, scale) -> str:
    workload = build_workload(args.workload, scale)
    rows = [
        ["name", workload.name],
        ["processes", workload.nprocs],
        ["operations", workload.program.num_ops],
        ["expected metric", workload.expected_metric or "-"],
        ["expected location", workload.expected_location or "-"],
        ["description", workload.description],
    ]
    return format_table(["property", "value"], rows, title=f"workload {args.workload}")


def _cmd_evaluate(args, scale) -> str:
    from repro.experiments.comparative import comparative_study
    from repro.experiments.formatting import format_comparative_results

    results = comparative_study((args.workload,), tuple(args.methods), scale=scale)
    return format_comparative_results(
        results, title=f"comparative study — {args.workload} (scale={scale.name})"
    )


def _cmd_thresholds(args, scale) -> str:
    from repro.experiments.formatting import format_rows
    from repro.experiments.thresholds import threshold_study_rows

    rows = threshold_study_rows(args.method, args.workloads, scale=scale)
    return format_rows(rows, title=f"threshold study — {args.method} (scale={scale.name})")


def _cmd_trends(args, scale) -> str:
    from repro.experiments.formatting import format_trend_table
    from repro.experiments.trend_tables import trend_table

    table = trend_table(args.workload, args.methods, scale=scale)
    return format_trend_table(
        table, title=f"retention of performance trends — {args.workload} (scale={scale.name})"
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
    except ValueError as error:
        raise _UsageError(str(error)) from error
    trace_path = _trace_path(args)
    if trace_path is not None and args.save_trace is not None:
        raise _UsageError("--save-trace only applies when simulating a workload")
    _check_output_paths(args.save_trace, args.output, args.telemetry)

    subject = args.workload if trace_path is None else args.trace
    if trace_path is not None:
        source = trace_path
        rows_head = [["trace file", f"{trace_path} ({resolve_format(trace_path).name} format)"]]
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
            subject=subject,
            method=metric.describe(),
            executor=stats.executor,
            dispatch=stats.dispatch,
        )

    identical = not args.verify or _matches_serial_reducer(
        create_metric(args.method, args.threshold), source, args.store_capacity, [result.reduced]
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
    title = f"pipeline reduction — {subject}"
    if args.trace is None:
        title += f" (scale={scale.name})"
    report = format_table(["property", "value"], rows, title=title)
    if not identical:
        raise _VerificationFailed(report)
    return report


def _cmd_sweep(args, scale) -> str:
    import json

    from repro.evaluation.runner import PreparedWorkload
    from repro.experiments.config import prepared_workload
    from repro.pipeline.engine import sweep_pipeline
    from repro.sweep.plan import SweepPlan

    try:
        plan = SweepPlan.from_grid(args.methods, args.thresholds)
        config = PipelineConfig(
            executor=args.executor,
            workers=args.workers,
            store_capacity=args.store_capacity,
        )
    except ValueError as error:
        raise _UsageError(str(error)) from error
    trace_path = _trace_path(args)
    _check_output_paths(args.telemetry)

    if trace_path is not None:
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
        # The sweep reduced frames; the oracle reads the input itself.
        if trace_path is None:
            oracle_input = build_workload(args.workload, scale).run_segmented()
        else:
            oracle_input = trace_path
        identical = all(
            _matches_serial_reducer(
                outcome.config.create(), oracle_input, args.store_capacity, [outcome.reduced]
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

    from repro.service import ReductionService, SessionConfig
    from repro.trace.io import DeltaWriter

    try:
        config = SessionConfig(
            method=args.method,
            threshold=args.threshold,
            store_capacity=args.store_capacity,
        )
    except ValueError as error:
        raise _UsageError(str(error)) from error
    trace_path = _trace_path(args)
    for dest, least in _SERVE_MINIMUMS:
        value = getattr(args, dest)
        if value is not None and value < least:
            raise _UsageError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
    _check_output_paths(args.deltas, args.telemetry)

    if trace_path is not None:
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
        service = ReductionService(tenant_budget=args.tenant_budget, queue_limit=args.queue_limit)
        handles = [
            await service.open_session("cli", f"{trace_name}/s{i}", config)
            for i in range(args.sessions)
        ]

        async def feed(index, handle):
            appends = 0
            for rank, segments in stream:
                for at in range(0, len(segments), args.chunk):
                    await handle.append(rank, segments[at : at + args.chunk])
                    appends += 1
                    if appends % args.flush_every == 0:
                        delta = await handle.flush()
                        if index == 0 and delta_writer is not None:
                            delta_writer.write(delta)
            result = await handle.finish()
            if index == 0 and delta_writer is not None:
                delta_writer.write(result.delta)
            return result

        results = await asyncio.gather(*(feed(i, handle) for i, handle in enumerate(handles)))
        submits = [await service.submit("cli", source, config) for _ in range(args.repeat)]
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
            source,
            args.store_capacity,
            [result.reduced for result in results],
        )
        rows.append(["matches serial reducer", "yes" if identical else "NO"])

    title = f"online reduction service — {subject}"
    if args.trace is None:
        title += f" (scale={scale.name})"
    report = format_table(["property", "value"], rows, title=title)
    if not identical:
        raise _VerificationFailed(report, "service output does not match the serial reducer")
    return report


def _cmd_report(args, scale) -> str:
    path = Path(args.file)
    if not path.exists():
        raise _UsageError(f"telemetry file {path} does not exist")
    try:
        return obs.render_report(path, top=args.top)
    except (ValueError, KeyError) as error:
        raise _UsageError(f"{path} is not a telemetry export: {error}") from error


def _cmd_convert(args, scale) -> str:
    if not Path(args.trace).exists():
        raise _UsageError(f"trace file {args.trace} does not exist")
    report = convert_trace(
        args.trace, args.output, from_format=args.from_format, to_format=args.to_format
    )
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


def _cmd_fuzz(args, scale) -> str:
    import tempfile

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


def _cmd_figure(args, scale) -> str:
    from repro.experiments.comparative import (
        fig5_size_and_matching,
        fig6_approximation_distance,
        fig7_dyn_load_balance_trends,
        fig8_interference_trends,
    )
    from repro.experiments.formatting import format_rows

    if args.which == "fig5":
        return format_rows(fig5_size_and_matching(scale=scale), title="Figure 5")
    if args.which == "fig6":
        return format_rows(fig6_approximation_distance(scale=scale), title="Figure 6")
    if args.which == "fig7":
        charts = fig7_dyn_load_balance_trends(scale=scale)
    else:
        charts = fig8_interference_trends(scale=scale)
    return "\n\n".join(charts.values())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.run(args, get_scale(args.scale))
    except _UsageError as error:
        parser.error(str(error))
    except _BAD_TRACE as error:
        # A simulated workload that fails to segment is a bug, not bad input.
        if getattr(args, "trace", None) is None:
            raise
        parser.error(f"{args.trace}: {error}")
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
