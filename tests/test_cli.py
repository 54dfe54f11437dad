"""Tests for the repro-trace command-line interface."""

import argparse
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.core.frames import RankFrame
from repro.experiments.config import clear_workload_cache
from repro.trace import binio

from tests.trace.rpb_files import npy_bytes, rewrite_block, split_members


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "not_a_workload"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["--scale", "smoke", "list"])
        assert args.scale == "smoke"


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "late_sender" in out
        assert "avgWave" in out
        assert "smoke" in out

    def test_describe(self, capsys):
        code, out = run_cli(capsys, "--scale", "smoke", "describe", "dyn_load_balance")
        assert code == 0
        assert "MPI_Alltoall" in out
        assert "processes" in out

    def test_evaluate(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "smoke", "evaluate", "late_sender", "--methods", "avgWave", "iter_avg"
        )
        assert code == 0
        assert "avgWave" in out and "iter_avg" in out
        assert "% file size" in out

    def test_thresholds(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "smoke", "thresholds", "absDiff", "--workloads", "late_sender"
        )
        assert code == 0
        assert "threshold" in out
        assert out.count("late_sender") >= 6

    def test_trends(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "smoke", "trends", "late_sender", "--methods", "iter_avg", "relDiff"
        )
        assert code == 0
        assert "relDiff" in out and "iter_avg" in out

    def test_figure_fig7(self, capsys):
        code, out = run_cli(capsys, "--scale", "smoke", "figure", "fig7")
        assert code == 0
        assert "MPI_Alltoall" in out
        assert "full trace" in out

    def test_pipeline(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender",
            "--executor", "process", "--workers", "2", "--method", "euclidean",
            "--merge", "--verify",
        )
        assert code == 0
        assert "euclidean" in out
        assert "segments / second" in out
        # Column padding depends on the longest stats label, so normalise it.
        assert "matches serial reducer yes" in " ".join(out.split())
        assert "cross-rank duplicates" in out

    def test_pipeline_output_file(self, capsys, tmp_path):
        target = tmp_path / "reduced.txt"
        code, out = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender",
            "--executor", "serial", "--output", str(target),
        )
        assert code == 0
        assert target.exists()
        assert target.read_text().startswith("SEG ")
        # The reduced size reported is the size of the file just written.
        size = target.stat().st_size
        assert f"reduced trace bytes {size}" in " ".join(out.split())
        assert f"({size} bytes)" in out
        _, unwritten = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender", "--executor", "serial",
        )
        assert f"reduced trace bytes {size}" in " ".join(unwritten.split())

    @pytest.mark.parametrize("method", ["euclidean", "iter_avg"])
    def test_pipeline_output_is_the_same_file_on_every_route(self, capsys, tmp_path, method):
        """``--output`` alone streams through ``write()``; ``--verify`` and
        ``--merge`` reduce to objects first.  Same bytes, every executor."""
        saved = tmp_path / "full.rpb"
        base = ["--scale", "smoke", "pipeline"]
        tail = ["--method", method]
        assert run_cli(capsys, *base, "sweep3d_8p", "--save-trace", str(saved), *tail)[0] == 0
        written = set()
        for executor in ("serial", "process"):
            for extra in ([], ["--verify"], ["--merge"]):
                target = tmp_path / f"{executor}{''.join(extra)}.out"
                code, out = run_cli(
                    capsys, *base, "--trace", str(saved), "--executor", executor,
                    "--workers", "2", "--output", str(target), *extra, *tail,
                )
                assert code == 0
                assert f"({target.stat().st_size} bytes)" in out
                assert ("merged trace bytes" in out) == (extra == ["--merge"])
                written.add(target.read_bytes())
        assert len(written) == 1 and written.pop().startswith(b"SEG ")

    def test_pipeline_save_trace_and_trace_ingest(self, capsys, tmp_path):
        saved = tmp_path / "full.rpb"
        code, out = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender",
            "--executor", "serial", "--save-trace", str(saved),
        )
        assert code == 0
        assert saved.exists()
        assert "rpb format" in out
        code, out = run_cli(
            capsys, "pipeline", "--trace", str(saved),
            "--executor", "process", "--workers", "2", "--verify",
        )
        assert code == 0
        normalized = " ".join(out.split())
        assert "task dispatch shard" in normalized
        assert "matches serial reducer yes" in normalized

    def test_pipeline_trace_and_workload_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "late_sender", "--trace", "x.txt"])
        with pytest.raises(SystemExit):
            main(["pipeline"])

    def test_sweep_table_with_verify(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "smoke", "sweep", "late_sender",
            "--methods", "euclidean", "manhattan", "--thresholds", "0.2", "0.6",
            "--verify",
        )
        assert code == 0
        normalized = " ".join(out.split())
        assert "sweep grid" in out
        assert "euclidean" in out and "manhattan" in out
        assert "feature families 1" in normalized  # minkowski layout is shared
        assert "matches serial oracle yes" in normalized

    def test_sweep_json_report(self, capsys):
        import json

        code, out = run_cli(
            capsys, "--scale", "smoke", "sweep", "late_sender",
            "--methods", "relDiff", "--thresholds", "0.8", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["configs"][0]["method"] == "relDiff"
        assert payload["stats"]["n_configs"] == 1
        assert payload["stats"]["dispatch"] == "inline"

    def test_sweep_backend_flag_is_gone(self, capsys):
        # One path: the per-config loop is the test oracle, not a CLI mode.
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "smoke", "sweep", "late_sender",
                  "--methods", "iter_avg", "--backend", "serial"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    def test_executor_defaults_to_serial(self, command):
        # The measured winner on every input (BENCH_pipeline.json pool_speedup < 1).
        args = build_parser().parse_args([command, "late_sender"])
        assert args.executor == "serial"

    def test_sweep_rpb_trace_uses_shard_dispatch(self, capsys, tmp_path):
        saved = tmp_path / "full.rpb"
        code, _ = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender",
            "--executor", "serial", "--save-trace", str(saved),
        )
        assert code == 0
        code, out = run_cli(
            capsys, "sweep", "--trace", str(saved),
            "--methods", "euclidean", "--thresholds", "0.1", "0.4",
            "--executor", "process", "--workers", "2", "--verify",
        )
        assert code == 0
        normalized = " ".join(out.split())
        assert "task dispatch shard" in normalized
        assert "matches serial oracle yes" in normalized

    def test_sweep_trace_and_workload_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "late_sender", "--trace", "x.rpb"])
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_sweep_missing_trace_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--trace", "nope.rpb"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_convert_round_trip(self, capsys, tmp_path):
        text = tmp_path / "full.txt"
        code, _ = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender",
            "--executor", "serial", "--save-trace", str(text),
        )
        assert code == 0
        rpb = tmp_path / "full.rpb"
        code, out = run_cli(capsys, "convert", str(text), str(rpb))
        assert code == 0
        assert rpb.exists()
        assert "rpb format" in out
        back = tmp_path / "back.txt"
        code, _ = run_cli(capsys, "convert", str(rpb), str(back))
        assert code == 0
        assert back.read_bytes() == text.read_bytes()

    def test_convert_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", "nope.txt", "out.rpb"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    @pytest.mark.parametrize("executor", ["gpu", "thread"])
    def test_executor_flags_offer_serial_and_process_only(self, command, executor):
        # "thread" is a PipelineConfig value for the oracles, not a CLI choice.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "late_sender", "--executor", executor])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pipeline", "late_sender", "--output", "{dir}"], "{dir}: Is a directory"),
            (["pipeline", "late_sender", "--output", "{dir}/r.rpb"],
             "{dir}/r.rpb: a reduced trace is written as text, not as rpb"),
            (["pipeline", "late_sender", "--telemetry", "{dir}/no/t.json"],
             "{dir}/no/t.json: No such file or directory"),
            (["pipeline", "late_sender", "--save-trace", "{dir}/no/s.rpb"],
             "{dir}/no/s.rpb: No such file or directory"),
            (["sweep", "late_sender", "--telemetry", "{dir}"], "{dir}: Is a directory"),
            (["serve", "late_sender", "--deltas", "{dir}/no/d.log"],
             "{dir}/no/d.log: No such file or directory"),
        ],
    )
    def test_unwritable_output_path_is_reported_before_the_run(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the workload was built before the output paths were checked")

        monkeypatch.setattr("repro.cli.build_workload", no_run)
        monkeypatch.setattr("repro.experiments.config.build_workload", no_run)
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "smoke", *(word.format(dir=tmp_path) for word in argv)])
        assert excinfo.value.code == 2
        assert f"repro-trace: error: {message.format(dir=tmp_path)}" in capsys.readouterr().err

    def test_os_error_on_an_output_path_is_a_clean_error(self, capsys, tmp_path):
        # No up-front check here: the writer's own open fails, main reports it.
        source = tmp_path / "s.txt"
        assert run_cli(capsys, "--scale", "smoke", "pipeline", "late_sender",
                       "--save-trace", str(source))[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", str(source), str(tmp_path)])
        assert excinfo.value.code == 2
        assert f"repro-trace: error: {tmp_path}" in capsys.readouterr().err

    def test_pipeline_invalid_workers_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "smoke", "pipeline", "late_sender", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "late_sender", "--tenant-budget", "0"], "--tenant-budget must be >= 1, got 0"),
            (["serve", "late_sender", "--queue-limit", "0"], "--queue-limit must be >= 1, got 0"),
            (["serve", "late_sender", "--threshold", "nan"],
             "relDiff threshold must be a finite number >= 0, got nan"),
            (["pipeline", "late_sender", "--threshold", "nan"],
             "relDiff threshold must be a finite number >= 0, got nan"),
            (["pipeline", "late_sender", "--method", "iter_k", "--threshold", "inf"],
             "iter_k threshold must be a finite number >= 0, got inf"),
            (["pipeline", "late_sender", "--method", "avgWave", "--threshold=-inf"],
             "avgWave threshold must be a finite number >= 0, got -inf"),
            (["sweep", "late_sender", "--thresholds", "0.1", "inf"],
             "euclidean threshold must be a finite number >= 0, got inf"),
        ],
    )
    def test_invalid_value_is_a_usage_error_before_the_run(
        self, capsys, monkeypatch, argv, message
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the workload was built before the values were checked")

        monkeypatch.setattr("repro.cli.build_workload", no_run)
        monkeypatch.setattr("repro.experiments.config.build_workload", no_run)
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "smoke", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro-trace: error: {message}" in err
        assert "Traceback" not in err

    def test_pipeline_verify_mismatch_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        # The oracle runs under the command's own store bound, so no flag
        # combination diverges from it: the mismatch is injected.
        monkeypatch.setattr("repro.cli._matches_serial_reducer", lambda *args: False)
        target = tmp_path / "diverged.txt"
        code = main(
            ["--scale", "smoke", "pipeline", "sweep3d_8p", "--method", "iter_avg",
             "--executor", "serial", "--verify", "--output", str(target)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "matches serial reducer NO" in " ".join(captured.out.split())
        assert "does not match" in captured.err
        # The known-divergent reduction must not be written.
        assert not target.exists()
        assert "skipped: verification failed" in captured.out
        # Nothing was written, so the size still comes from the serializer.
        assert "reduced trace bytes" in captured.out

    def test_pipeline_telemetry_export_and_report(self, capsys, tmp_path):
        saved = tmp_path / "full.rpb"
        code, _ = run_cli(
            capsys, "--scale", "smoke", "pipeline", "late_sender",
            "--executor", "serial", "--save-trace", str(saved),
        )
        assert code == 0
        telemetry = tmp_path / "telemetry.json"
        code, out = run_cli(
            capsys, "pipeline", "--trace", str(saved),
            "--executor", "process", "--workers", "4", "--telemetry", str(telemetry),
        )
        assert code == 0
        assert "telemetry written to" in out
        assert telemetry.exists()

        import json

        payload = json.loads(telemetry.read_text())
        duration_events = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        # The acceptance bar: >= 2 distinct worker tracks and spans covering
        # >= 95% of the run's wall time.
        assert len({(e["pid"], e["tid"]) for e in duration_events}) >= 2
        from repro import obs

        assert obs.span_coverage(payload) >= 0.95
        assert payload["otherData"]["metadata"]["command"] == "pipeline"

        code, out = run_cli(capsys, "report", str(telemetry))
        assert code == 0
        for section in ("telemetry run", "per-stage spans", "per-worker tracks", "metrics"):
            assert section in out
        assert "pipeline.run" in out

    def test_sweep_telemetry_table_and_json(self, capsys, tmp_path):
        telemetry = tmp_path / "sweep_telemetry.json"
        code, out = run_cli(
            capsys, "--scale", "smoke", "sweep", "late_sender",
            "--telemetry", str(telemetry),
        )
        assert code == 0
        assert "telemetry written to" in out
        assert telemetry.exists()

        import json

        json_telemetry = tmp_path / "sweep_telemetry2.json"
        code, out = run_cli(
            capsys, "--scale", "smoke", "sweep", "late_sender", "--json",
            "--telemetry", str(json_telemetry),
        )
        assert code == 0
        payload = json.loads(out)  # --json output must stay valid JSON
        assert str(json_telemetry) in payload["telemetry"]
        exported = json.loads(json_telemetry.read_text())
        names = {e["name"] for e in exported["traceEvents"] if e.get("ph") == "X"}
        assert {"pipeline.run", "pipeline.reduce", "rank.reduce"} <= names
        # --workers was defaulted: the file holds the resolved count, not null.
        assert exported["otherData"]["metadata"]["workers"] == 1

    def test_report_missing_file_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "no_such_telemetry.json"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{}", "[]", "not json"])
    def test_report_on_a_file_that_is_no_export_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "other.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(path)])
        assert excinfo.value.code == 2
        assert "is not a telemetry export" in capsys.readouterr().err


class TestServe:
    def test_serve_workload_with_verify_and_cache(self, capsys, tmp_path):
        deltas = tmp_path / "deltas.log"
        code, out = run_cli(
            capsys, "--scale", "smoke", "serve", "late_sender",
            "--sessions", "3", "--tenant-budget", "30",
            "--repeat", "2", "--verify", "--deltas", str(deltas),
        )
        assert code == 0
        flat = " ".join(out.split())
        assert "matches serial reducer yes" in flat
        # The budget binds: sessions leave for checkpoints and come back.
        assert "evicted to checkpoint" in out and "evicted to checkpoint 0 " not in flat
        assert "2 cache hits" in out
        assert deltas.exists() and deltas.read_text().startswith("DELTA ")

    def test_serve_trace_file(self, capsys, tmp_path):
        from repro.benchmarks_ats import late_sender
        from repro.trace.io import write_trace

        path = tmp_path / "trace.rpb"
        write_trace(late_sender(nprocs=2, iterations=3, seed=1).run(), path)
        code, out = run_cli(
            capsys, "serve", "--trace", str(path), "--method", "euclidean",
            "--verify", "--repeat", "1",
        )
        assert code == 0
        flat = " ".join(out.split())
        assert "matches serial reducer yes" in flat
        assert "1 cache hits" in flat

    def test_serve_telemetry_report_shows_service_counters(self, capsys, tmp_path):
        import json

        telemetry = tmp_path / "serve.json"
        code, _ = run_cli(
            capsys, "--scale", "smoke", "serve", "late_sender",
            "--sessions", "2", "--repeat", "2", "--telemetry", str(telemetry),
        )
        assert code == 0
        code, out = run_cli(capsys, "report", str(telemetry))
        assert code == 0
        assert "service.append" in out
        assert "service.sessions_opened" in out
        assert "service.deltas_emitted" in out
        # The result cache's own counters, published once under the service.
        run = json.loads(telemetry.read_text())["otherData"]["metrics"]["run"]
        assert run["service.cache_hits"]["value"] == 2
        assert run["service.cache_misses"]["value"] == 0
        assert run["service.cache_insertions"]["value"] == 2
        assert run["service.cache_evictions"]["value"] == 0

    def test_serve_trace_and_workload_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "late_sender", "--trace", "x.txt"])
        with pytest.raises(SystemExit):
            main(["serve"])
        with pytest.raises(SystemExit):
            main(["serve", "--trace", "nope.txt"])

    def test_serve_invalid_counts_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scale", "smoke", "serve", "late_sender", "--sessions", "0"])
        with pytest.raises(SystemExit):
            main(["--scale", "smoke", "serve", "late_sender", "--chunk", "0"])


#: The commands that take a trace, and the options each shares with another.
TRACE_COMMANDS = ("pipeline", "sweep", "serve")
SHARED = {
    "pipeline": ("workload", "trace", "verify", "telemetry",
                 "method", "threshold", "executor", "workers"),
    "sweep": ("workload", "trace", "verify", "telemetry", "executor", "workers"),
    "serve": ("workload", "trace", "verify", "telemetry", "method", "threshold"),
}
#: Each command's output file flag: what a failed run must leave unwritten.
OUTPUT_FLAG = {"pipeline": "--output", "sweep": "--telemetry", "serve": "--deltas"}


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert f"usage: repro-trace {command}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["late_sender"],
        ["--trace", "t.rpb", "--verify", "--telemetry"],
        ["--trace", "t.txt", "--telemetry", "x.json", "--method", "euclidean",
         "--threshold", "0.5", "--executor", "process", "--workers", "2"],
    ],
)
def test_shared_options_parse_alike_in_every_trace_command(argv):
    """An option two commands share gives both the same attribute and value."""
    parsed = {}
    for command in TRACE_COMMANDS:
        words = list(argv)
        for flag, dest in (("--method", "method"), ("--threshold", "threshold"),
                           ("--executor", "executor"), ("--workers", "workers")):
            if flag in words and dest not in SHARED[command]:
                at = words.index(flag)
                del words[at : at + 2]
        args = vars(build_parser().parse_args([command, *words]))
        parsed[command] = {dest: args[dest] for dest in SHARED[command]}
    for a in TRACE_COMMANDS:
        for b in TRACE_COMMANDS:
            for dest in set(SHARED[a]) & set(SHARED[b]):
                assert parsed[a][dest] == parsed[b][dest], (a, b, dest)


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """A small trace as text and ``.rpb``, and files that are no valid trace."""
    from repro.benchmarks_ats import late_sender
    from repro.trace.io import read_trace, write_trace

    root = tmp_path_factory.mktemp("traces")
    trace = late_sender(nprocs=2, iterations=3, seed=1).run()
    write_trace(trace, root / "good.txt")
    write_trace(trace, root / "good.rpb")
    lines = (root / "good.txt").read_text().splitlines(keepends=True)
    files = {"good": root / "good.rpb"}
    # Lines 0-3 are rank 0's SEGMENT_BEGIN, ENTER, EXIT and SEGMENT_END of
    # ``init``, which begins after 0: a time of 0 on the EXIT or the END
    # closes the event or the segment before it opened.
    kinds = [line.split(" ")[0] for line in lines[:4]]
    assert kinds == ["SEGMENT_BEGIN", "ENTER", "EXIT", "SEGMENT_END"]
    assert float(lines[0].split(" ")[2]) > 0
    for label, line, value in (
        ("negative", 2, "-1.0"),
        ("nan", 2, "nan"),
        ("exit_first", 2, "0.0"),
        ("end_first", 3, "0.0"),
    ):
        fields = lines[line].split(" ")
        fields[2] = value
        files[label] = root / f"{label}.txt"
        files[label].write_text("".join(lines[:line] + [" ".join(fields)] + lines[line + 1 :]))
    files["rpb_end_first"] = root / "end_first.rpb"
    write_trace(read_trace(files["end_first"]), files["rpb_end_first"])
    last_end = max(i for i, line in enumerate(lines) if line.startswith("SEGMENT_END 0 "))
    files["unclosed"] = root / "unclosed.txt"
    files["unclosed"].write_text("".join(lines[:last_end] + lines[last_end + 1 :]))

    def nan_time(block):
        members = split_members(block)
        time = np.load(io.BytesIO(members[1]), allow_pickle=False).copy()
        time[1] = math.nan
        members[1] = npy_bytes(time)
        return b"".join(members)

    files["rpb_nan"] = root / "nan.rpb"
    files["rpb_nan"].write_bytes((root / "good.rpb").read_bytes())
    rewrite_block(files["rpb_nan"], 0, nan_time)
    return files


BAD_RUNS = [
    (command, executor)
    for command in TRACE_COMMANDS
    for executor in (("serial", "process") if command != "serve" else (None,))
]


BAD_TRACES = ["negative", "nan", "rpb_nan", "unclosed", "exit_first", "end_first", "rpb_end_first"]


@pytest.mark.parametrize("bad", BAD_TRACES)
@pytest.mark.parametrize("command, executor", BAD_RUNS)
def test_a_bad_trace_file_is_one_error_line_and_no_output(
    capsys, tmp_path, trace_files, bad, command, executor
):
    """``convert``'s contract: exit 2, one error line naming the file, nothing written."""
    path = trace_files[bad]
    out = tmp_path / "out.txt"
    argv = [command, "--trace", str(path), OUTPUT_FLAG[command], str(out)]
    if executor is not None:
        argv += ["--executor", executor, "--workers", "2"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("repro-trace: error:")]
    assert line.startswith(f"repro-trace: error: {path}: ")
    assert line.count(str(path)) == 1
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", BAD_TRACES)
def test_convert_refuses_a_bad_trace_as_the_other_commands_do(capsys, tmp_path, trace_files, bad):
    """No file every reader refuses is written: one error line naming the input once."""
    path = trace_files[bad]
    out = tmp_path / ("out.txt" if path.suffix == ".rpb" else "out.rpb")
    with pytest.raises(SystemExit) as excinfo:
        main(["convert", str(path), str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("repro-trace: error:")]
    assert line.startswith(f"repro-trace: error: {path}: ")
    assert line.count(str(path)) == 1
    assert list(tmp_path.iterdir()) == []


SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a command has no use for, by command: a serial ``pipeline --trace``
#: reads, reduces and writes, so it loads no simulator, analysis, study,
#: service, fuzzer, sweep or pool; ``sweep --trace`` scores its grid with
#: the analysis but simulates nothing.
NOT_IMPORTED = {
    "pipeline": r"repro\.(simulator|analysis|benchmarks_ats|sweep3d|service|fuzz|sweep"
    r"|experiments\.(comparative|thresholds|trend_tables)"
    r"|core\.reconstruct|util\.(rng|stats|validation))"
    r"|concurrent\.futures\.process|multiprocessing|asyncio|hashlib",
    "sweep": r"repro\.(simulator|benchmarks_ats|sweep3d|analysis\.(profile|cube))",
}


def _python(tmp_path, *argv) -> subprocess.CompletedProcess:
    """``python ARGV`` in a fresh interpreter on this checkout's ``src``."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("command", sorted(NOT_IMPORTED))
def test_a_command_imports_only_what_it_uses(tmp_path, trace_files, command):
    argv = [command, "--trace", str(trace_files["good"]), "--executor", "serial"]
    if command == "pipeline":
        argv += ["--output", str(tmp_path / "out.txt")]
    stderr = _python(tmp_path, "-X", "importtime", "-m", "repro.cli", *argv).stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {"repro.pipeline.engine", "repro.trace.binio", "repro.core.reducer"} <= imported
    pattern = re.compile(rf"_?({NOT_IMPORTED[command]})(\..*)?")
    assert sorted(name for name in imported if pattern.fullmatch(name)) == []


#: What ``from PACKAGE import *`` binds, by name: the type of each value,
#: ``package`` for a subpackage.
_PUBLIC_TYPES = """
import importlib, json, pkgutil, sys
package = importlib.import_module(sys.argv[1])
if sys.argv[2] == "submodules first":
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)
namespace = {}
exec(f"from {package.__name__} import *", namespace)
print(json.dumps({
    name: "package" if hasattr(value, "__path__") else type(value).__name__
    for name, value in ((name, namespace[name]) for name in package.__all__)
}))
"""


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.analysis",
        "repro.core",
        "repro.evaluation",
        "repro.experiments",
        "repro.obs",
        "repro.util",
    ],
)
def test_a_lazy_package_resolves_its_public_names_in_either_order(tmp_path, package):
    """Every ``__all__`` name resolves in a fresh interpreter, ``from PACKAGE
    import *`` included, to the same kind of value whether the package's
    submodules were imported before or not — and never to a plain module,
    which is what a lazy name that shares its module's name would give
    (importing the submodule sets the module on the package)."""
    resolved = [
        json.loads(_python(tmp_path, "-c", _PUBLIC_TYPES, package, order).stdout)
        for order in ("names first", "submodules first")
    ]
    assert resolved[0] == resolved[1]
    assert set(resolved[0]) == set(importlib.import_module(package).__all__)
    assert sorted(name for name, kind in resolved[0].items() if kind == "module") == []


@pytest.fixture
def frame_faults(monkeypatch):
    """Both ways the product builds frames, each off by half a microsecond.

    The ``.rpb`` frame decoder and the segments→frame adapter get every event
    end ``+ 0.5``; the oracle's route (the segment decoder, the simulated
    segments, the segment-at-a-time reducer) goes through neither.
    """
    decode = binio._frames_from_columns
    adapt = RankFrame._from_segments.__func__

    def shifted(frame):
        frame.ev_ends = frame.ev_ends + 0.5
        frame._run = None  # a row view derives its columns from its run's
        return frame

    def faulty_decode(*args):
        frames = decode(*args)
        return None if frames is None else [shifted(frame) for frame in frames]

    monkeypatch.setattr(binio, "_frames_from_columns", faulty_decode)
    monkeypatch.setattr(
        RankFrame, "_from_segments", classmethod(lambda cls, *a: shifted(adapt(cls, *a)))
    )
    # ``sweep`` reads memoized prepared workloads: build them under the
    # fault, and let no faulty one outlive the test.
    clear_workload_cache()
    yield
    clear_workload_cache()


@pytest.mark.parametrize("source", ["rpb", "workload"])
@pytest.mark.parametrize("command", TRACE_COMMANDS)
def test_verify_is_fed_the_input_not_the_frames_it_checks(
    capsys, trace_files, frame_faults, command, source
):
    if source == "rpb":
        argv = [command, "--trace", str(trace_files["good"])]
    else:
        argv = ["--scale", "smoke", command, "late_sender"]
    if command == "sweep":
        argv += ["--methods", "relDiff", "--thresholds", "0.8"]
    code = main([*argv, "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    flat = " ".join(captured.out.split())
    assert "matches serial reducer NO" in flat or "matches serial oracle NO" in flat
    assert "does not match" in captured.err
