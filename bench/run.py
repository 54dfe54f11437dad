"""File -> file wall clock of the CLI on the paper's workloads, attributed to layers.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

For each workload: simulate its input from ``--seed`` (set-up, repeated so its
median can be gated), compute the reference off the timed path (check), make
one untimed warm-up op, then run closed loops of one client — one
``python -m repro.cli`` subprocess at a time on the freshly written file (warm
page cache; disk reads are not measured), every op's output checked against
the reference:

* the untraced loop (``--trace 0``) runs ops for ``--seconds`` and gives the
  end-to-end metrics;
* the traced loop (``--trace 1``) runs for ``--seconds`` too, and follows each
  op with an in-process replay that times the calls into each layer's public
  functions; it gives the per-layer metrics.

Without ``--trace`` both loops run.  The sandbox's CPUs change speed by tens
of percent from minute to minute, so a fixed interpreter + numpy loop is timed
between ops and every gated time is scaled to a box on which that loop takes
``REFERENCE_LOOP_S`` (see README.md).  The unscaled medians are printed beside
them as ``raw_*``.

Every metric is printed by name with its unit.  With one ``--workload`` and a
``--trace`` the last line of standard output is the driver's JSON object: the
end-to-end metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
Files are written only under ``--out`` (default ``bench/out``, git-ignored).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"bench/run.py: {SRC}/repro not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

from layers import Recorder, cli_startup, layer_metrics, replay  # noqa: E402
from workloads import WORKLOADS, build_input, op_result, reference  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(SRC)}  # of every process started here
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OP_TIMEOUT_S = 60.0
#: Gated times are reported as on a box where :func:`reference_loop` takes this long.
REFERENCE_LOOP_S = 0.15


@dataclass(frozen=True)
class Repeats:
    """How often each stage of a run repeats."""

    setups: int = 3  # ``setup_s`` is their median
    warm_ups: int = 1  # compiles the program's bytecode in a fresh checkout
    timed_ops: int = 5  # at least, however short ``--seconds`` is
    traced_iterations: int = 3  # at least
    startups: int = 5  # ``cli.interp_s`` and ``cli.import_s`` are their min


QUICK = Repeats(setups=1, warm_ups=0, timed_ops=1, traced_iterations=1, startups=1)


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop: how fast this box is right now.

    Dict stores, object allocation, small-array numpy calls and a few
    large-array passes — what the reducer and the evaluation spend their time
    on; nothing from ``repro``, so no change to the program can move it.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    total, table = 0, {}
    for i in range(200_000):
        table[i & 1023] = total
        total += (i * i) % 7
    for _ in range(4):
        _ = [(i, str(i), [i]) for i in range(30_000)]
    small = numpy.arange(16.0)
    for _ in range(20_000):
        numpy.abs(small - 3.0).max()
    large = numpy.arange(400_000.0)
    for _ in range(8):
        numpy.sqrt(large * large + 1.0).sum()
    return time.perf_counter() - wall, time.process_time() - cpu


def speed_scaled(samples: list[float], loops: list[float]) -> list[float]:
    """Each sample as on the reference box, from the loops timed before and after it."""
    return [sample * 2.0 * REFERENCE_LOOP_S / (before + after)
            for sample, before, after in zip(samples, loops, loops[1:])]


def summarize(values: list[float], unit: str) -> dict:
    """Median with the spread it was taken from."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def closed_loop(step, seconds: float, at_least: int) -> None:
    """Call ``step`` back to back for ``seconds``, and ``at_least`` times."""
    started, steps = time.perf_counter(), 0
    while steps < at_least or time.perf_counter() - started < seconds:
        step()
        steps += 1


class Spawner:
    """The helper process that starts and times every op (``spawn.py`` says why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "spawn.py")], env=ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], stdout: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())


class Client:
    """The closed loops' one client: runs the workload's command and checks what it wrote."""

    def __init__(self, workload, trace: Path, scratch: Path, spawner: Spawner, rec: Recorder,
                 expected) -> None:
        self.workload, self.trace, self.spawner, self.rec = workload, trace, spawner, rec
        self.expected = expected
        self.output, self.stdout = scratch / "op.reduced", scratch / "op.stdout"
        self.attempted = self.failed = 0

    def op(self) -> dict:
        """One op: have the CLI run to its end, then check what it wrote."""
        self.output.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "repro.cli", *self.workload.argv(self.trace, self.output)]
        with self.rec.span("op"):
            op = self.spawner.run(argv, self.stdout)
        op.update(teardown=0.0, reduced_bytes=0)
        ok = op["returncode"] == 0
        if ok:
            # The CLI prints its report last: from then to the exit is teardown.
            op["teardown"] = op["exited"] - self.stdout.stat().st_mtime
            try:
                produced, op["reduced_bytes"] = op_result(self.workload, self.output, self.stdout)
            except (OSError, ValueError, KeyError):
                ok = False
            else:
                ok = produced == self.expected
        self.count(ok)
        return op

    def count(self, ok: bool) -> None:
        """One more output compared with the reference."""
        self.attempted += 1
        self.failed += not ok


def end_to_end_metrics(ops: list[dict], loops: list[tuple], setup: list[float],
                       records: int, full_bytes: int) -> dict:
    """The gated metrics of one untraced loop; ``loops`` were timed around each op."""
    wall = speed_scaled([op["wall"] for op in ops], [wall for wall, _ in loops])
    samples = {
        "wall_s": wall,
        "cpu_s": speed_scaled([op["cpu"] for op in ops], [cpu for _, cpu in loops]),
        "peak_rss_mb": [op["peak_rss_mb"] for op in ops],
        "records_per_s": [records / seconds for seconds in wall],
        "reduced_pct": [100.0 * op["reduced_bytes"] / full_bytes for op in ops],
        "setup_s": setup,
    }
    return {m["name"]: summarize(samples[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}


def run_workload(workload, args, scratch: Path, rec: Recorder, spawner: Spawner, startup: dict) -> dict:
    """Set up, check, and run the loops ``--trace`` asks for on one workload."""
    trace = scratch / f"{workload.input}.rpb"
    loops = [reference_loop()]
    for _ in range(args.repeats.setups):
        with rec.span("setup"):
            records = build_input(workload, args.seed, trace, rec, args.quick)
        loops.append(reference_loop())
    setup = speed_scaled(rec.durations("setup"), [wall for wall, _ in loops])
    with rec.span("check"):
        expected, full_bytes = reference(workload, trace)
    result = {"records": records, "input_bytes": trace.stat().st_size}

    client = Client(workload, trace, scratch, spawner, rec, expected)
    for _ in range(args.repeats.warm_ups):
        client.op()

    if args.trace != 1:
        ops, loops = [], [reference_loop()]

        def timed_op() -> None:
            ops.append(client.op())
            loops.append(reference_loop())

        closed_loop(timed_op, args.seconds, args.repeats.timed_ops)
        result["end_to_end"] = end_to_end_metrics(ops, loops, setup, records, full_bytes)
        result["raw"] = {
            "raw_wall_s": summarize([op["wall"] for op in ops], "s"),
            "raw_cpu_s": summarize([op["cpu"] for op in ops], "s"),
            "raw_setup_s": summarize(rec.durations("setup"), "s"),
            "reference_loop_s": summarize([wall for wall, _ in loops], "s"),
        }

    if args.trace != 0:
        ops, values = [], []

        def traced_iteration() -> None:
            ops.append(client.op())
            replayed, digest = replay(workload, trace, scratch / "replay.reduced", rec)
            values.append(replayed)
            if digest is not None:
                client.count(digest == expected)

        closed_loop(traced_iteration, args.seconds, args.repeats.traced_iterations)
        measured = layer_metrics(rec, values, ops, startup, records, result["input_bytes"])
        unknown = set(measured) - {m["name"] for m in SPEC["per_layer"]}
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A metric the workload's command never reaches reads 0.
        result["per_layer"] = {
            m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }

    result.update(ops_attempted=client.attempted, ops_failed=client.failed)
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}: {result['records']} records, {result['input_bytes']} input bytes")
    for group in ("end_to_end", "raw", "per_layer"):
        for metric, stats in result.get(group, {}).items():
            spread = ""
            if stats.get("n", 1) > 1:
                spread = "  (q1 {q1:.4g} q3 {q3:.4g} min {min:.4g} max {max:.4g} n {n})".format(**stats)
            print(f"{name:<26} {metric:<30} {stats['value']:>14.6g} {stats['unit']}{spread}")
    print(f"{name:<26} {'ops_failed':<30} {result['ops_failed']:>14} count of "
          f"{result['ops_attempted']} ops_attempted")


def provenance(args) -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except FileNotFoundError:
        sha = ""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": sha or "unknown", "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "quick": args.quick}


def refuse_tracked(out: Path) -> None:
    """Benchmark runs must never dirty the tree: no output into tracked paths."""
    try:
        listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "--", str(out)],
                                capture_output=True, text=True)
    except FileNotFoundError:
        return
    if listed.returncode == 0 and listed.stdout.strip():
        sys.exit(f"bench/run.py: --out {out} holds files tracked by git; choose another directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS),
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the simulated inputs")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long each closed loop runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: the untraced loop only (end-to-end metrics); 1: the traced "
                        "loop only (per-layer metrics); default: both")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="directory for results.json, spans.jsonl and scratch files")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-scale inputs, one op per loop, no warm-up (for the smoke test)")
    args = parser.parse_args(argv)
    args.repeats = Repeats()
    if args.quick:
        args.repeats, args.seconds = QUICK, 0.0
    args.out = args.out.resolve()
    refuse_tracked(args.out)
    args.out.mkdir(parents=True, exist_ok=True)

    startup = {} if args.trace == 0 else cli_startup(ENV, args.repeats.startups)
    results, spans = {}, []
    with Spawner() as spawner:
        for name in args.workload:
            rec = Recorder(name)
            with tempfile.TemporaryDirectory(dir=args.out) as scratch:
                results[name] = run_workload(WORKLOADS[name], args, Path(scratch), rec, spawner, startup)
            spans.append(rec)
            report(name, results[name])
    (args.out / "results.json").write_text(
        json.dumps({"provenance": provenance(args), "workloads": results}, indent=1))
    with (args.out / "spans.jsonl").open("w") as handle:
        for rec in spans:
            rec.write(handle)

    if len(args.workload) == 1 and args.trace is not None:
        result = results[args.workload[0]]
        group = result["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": result["ops_failed"] == 0,
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": {n: {"value": s["value"], "unit": s["unit"]} for n, s in group.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
