"""What costs a fixed amount per call is paid per run of ranks, not per rank.

A guard that counts calls, not seconds: 64 short ranks that fit one run are
reduced file → file with one ``open``, one marker split, one MPI table, one
structural-key pass and one feature-row pass — so the per-rank fixed cost the
1024-rank ATS workload used to pay cannot creep back between benchmark runs.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.benchmarks_ats import late_sender
from repro.cli import main
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.evaluation import filesize
from repro.pipeline.engine import ReductionPipeline
from repro.trace import binio
from repro.trace.io import write_trace


@pytest.fixture()
def one_run(tmp_path):
    path = tmp_path / "many.rpb"
    write_trace(late_sender(nprocs=64, iterations=3, seed=7).run(), path)
    assert [len(ranks) for ranks, _ in binio.rank_runs(path, binio.rank_ids(path))] == [64]
    return path


def test_one_run_pays_each_fixed_cost_once(one_run, tmp_path, monkeypatch):
    binio.read_index(one_run)  # the footer is parsed once per file, before any run
    calls = Counter()

    def count(owner, name, only=lambda *args: True):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += only(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Path, "open", only=lambda self, *args: self == one_run)
    count(binio, "_marker_split")
    count(binio._RankColumns, "mpi_tables")
    count(RankFrame, "_structural_keys")
    count(RankFrame, "_build_rows")
    _, stats = ReductionPipeline(create_metric("relDiff", 0.8)).write(one_run, tmp_path / "out.txt")
    assert stats.nprocs == 64 and stats.match.calls == 64  # the match step stays per rank
    assert calls == {
        "open": 1, "_marker_split": 1, "mpi_tables": 1, "_structural_keys": 1, "_build_rows": 1
    }


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_the_cli_does_not_size_an_rpb_file_in_a_pass_of_its_own(
    one_run, tmp_path, monkeypatch, capsys, executor
):
    def second_pass(path):
        raise AssertionError(f"full_trace_bytes_from_file({path}) called")

    monkeypatch.setattr(filesize, "full_trace_bytes_from_file", second_pass)
    argv = ["pipeline", "--trace", str(one_run), "--executor", executor, "--workers", "2",
            "--output", str(tmp_path / "out.txt")]
    assert main(argv) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines() if "full trace bytes" in line]
    assert int(row.split()[-1]) == binio.text_bytes(one_run)
