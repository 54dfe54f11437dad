"""Smoke test of the benchmark harness: ``run.py --quick`` end to end, and ``compare.py``."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick", *args],
                          capture_output=True, text=True, timeout=120)


def _tracked_changes() -> str:
    try:
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
    except FileNotFoundError:
        return ""
    return status.stdout


def test_quick_run_prints_every_metric_and_changes_no_tracked_file(tmp_path):
    before = _tracked_changes()
    run = _run("--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    printed = {(f[0], f[1]): f for f in map(str.split, run.stdout.splitlines()) if len(f) >= 4}
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            value, unit = printed[(workload["name"], metric["name"])][2:4]
            assert unit == metric["unit"] and float(value) == float(value)
        assert printed[(workload["name"], "ops_failed")][2] == "0"

    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results["provenance"]) >= {"python", "numpy", "nproc", "git_sha", "seed"}

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    ids = {(s["workload"], s["id"]) for s in spans}
    assert {s["workload"] for s in spans} == {w["name"] for w in SPEC["workloads"]}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        assert span["parent"] is None or (span["workload"], span["parent"]) in ids
    assert _tracked_changes() == before


def test_single_workload_ends_with_the_driver_line(tmp_path):
    run = _run("--workload", "ats1024.pool2", "--trace", "0", "--seed", "1", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    line = json.loads(run.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_out_directory_with_tracked_files_is_refused():
    if not (ROOT / ".git").exists():
        return  # the check only exists inside a git checkout
    run = _run("--out", str(ROOT / "src"))
    assert run.returncode != 0 and "tracked by git" in run.stderr


def _summary(value: float, spread: float = 0.0) -> dict:
    return {"value": value, "q1": value * (1 - spread), "q3": value * (1 + spread)}


def test_compare_verdicts():
    assert compare.verdict(_summary(1.0), _summary(1.05), "lower", 0.1) == "same"
    assert compare.verdict(_summary(1.0), _summary(1.2), "lower", 0.1) == "worse"
    assert compare.verdict(_summary(1.0), _summary(0.8), "lower", 0.1) == "better"
    assert compare.verdict(_summary(1.0), _summary(0.8), "higher", 0.1) == "worse"
    assert compare.verdict(_summary(1.0), _summary(1.2), "higher", 0.1) == "better"
    # Wide, overlapping quartile ranges cannot resolve a 20% move ...
    assert compare.verdict(_summary(1.0, 0.15), _summary(1.2, 0.15), "lower", 0.1) == "unresolved"
    # ... but wide ranges that do not overlap still can.
    assert compare.verdict(_summary(1.0, 0.15), _summary(2.0, 0.15), "lower", 0.1) == "worse"


def test_compare_exit_status(tmp_path, capsys):
    workload = {
        "ops_failed": 0,
        "end_to_end": {m["name"]: _summary(1.0) for m in SPEC["end_to_end"]},
        "per_layer": {m["name"]: {"value": 2.0} for m in SPEC["per_layer"]},
    }
    base = {"workloads": {"w": workload}}
    slower = copy.deepcopy(base)
    slower["workloads"]["w"]["end_to_end"]["wall_s"] = _summary(1.5)
    recount = copy.deepcopy(base)
    recount["workloads"]["w"]["per_layer"]["reducer.kernel_calls"]["value"] = 3.0
    paths = {}
    for name, data in (("base", base), ("slower", slower), ("recount", recount)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))

    def status(*args: str) -> int:
        return compare.main([*args])

    assert status("--same-code", str(paths["base"]), str(paths["base"])) == 0
    assert status(str(paths["base"]), str(paths["slower"])) == 1
    assert status(str(paths["slower"]), str(paths["base"])) == 0  # better, not worse
    assert status(str(paths["base"]), str(paths["recount"])) == 0  # flagged, not fatal
    assert status("--same-code", str(paths["base"]), str(paths["recount"])) == 1
    assert "EXACT COUNT CHANGED" in capsys.readouterr().out
