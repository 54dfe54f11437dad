#!/usr/bin/env python3
"""Count the traffic: which functions of ``src/`` does no product command reach?

Runs every command of ``COMMANDS`` — all CLI subcommands, the ``examples/``
and ``bench/run.py --quick`` — at smoke scale under ``hook.py`` and lists the
functions of ``src/repro`` that were never called, one ``module:qualname
lines`` row each.  A zero-hit function must have a line in ``kept.txt``
(``module:qualname  reason``) or the run exits 1: dead surface is either
deleted or kept for a stated reason.

Below that list, the report names the statements of *called* functions that
no command executed, one ``file:line  module:qualname  source`` row each —
raw, for reading, not gated.  Error paths are left out: ``raise`` and
``assert`` statements, a block that ends in ``raise``, and ``except`` bodies.

    python tests/traffic/run.py [--out unhit.txt] [--keep DIR]

``--keep DIR`` runs the commands in ``DIR`` instead of a temporary directory
and leaves everything there — each command's stdout as ``DIR/stdout/NN.txt``
next to the reduced traces, delta logs and converted files — so two trees'
products can be compared with ``cmp``.

Takes minutes under the profile hook, so tier-1 does not collect it (CI's
``traffic`` job runs it); ``tests/test_public_surface.py`` holds ``kept.txt``
to names that exist.  Needs Python >= 3.11 (``co_qualname``).
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
KEPT = HERE / "kept.txt"

METHODS = (
    "relDiff", "absDiff", "manhattan", "euclidean", "chebyshev",
    "avgWave", "haarWave", "iter_k", "iter_avg",
)

# ``cli …`` is ``python -m repro.cli …``, ``py …`` a script under the repo root;
# ``{tmp}`` is the scratch directory every command runs in, ``{root}`` the
# repo.  Every command must exit 0.
COMMANDS = [
    "cli list",
    "cli describe late_sender",
    "cli --scale smoke evaluate late_sender",
    "cli --scale smoke thresholds euclidean --workloads late_sender sweep3d_8p",
    "cli --scale smoke trends late_sender",
    *(f"cli --scale smoke figure fig{n}" for n in (5, 6, 7, 8)),
    # the three sources: in-memory, text, .rpb
    "cli --scale smoke pipeline sweep3d_8p --save-trace {tmp}/s.txt",
    "cli --scale smoke pipeline sweep3d_8p --save-trace {tmp}/saved.rpb --merge",
    "cli --scale smoke pipeline sweep3d_8p --executor process --workers 2 --verify",
    "cli convert {tmp}/s.txt {tmp}/s.rpb",
    "cli convert {tmp}/s.rpb {tmp}/back.txt",
    "cli convert {tmp}/s.txt {tmp}/copy.trace --from-format text --to-format rpb",
    "cli pipeline --trace {tmp}/s.txt --output {tmp}/text_serial.txt",
    "cli pipeline --trace {tmp}/s.txt --method euclidean --threshold 0.001"
    " --executor process --workers 2 --telemetry {tmp}/text_pool.json"
    " --output {tmp}/text_pool.txt",
    *(
        command
        for method in METHODS
        for command in (
            f"cli pipeline --trace {{tmp}}/s.rpb --method {method} --output {{tmp}}/{method}.txt",
            f"cli pipeline --trace {{tmp}}/s.rpb --method {method} --executor process"
            f" --workers 2 --telemetry {{tmp}}/{method}.json --output {{tmp}}/{method}_pool.txt",
        )
    ),
    "cli pipeline --trace {tmp}/s.rpb --method iter_k --verify",
    "cli pipeline --trace {tmp}/s.rpb --method iter_avg --verify",
    "cli pipeline --trace {tmp}/s.rpb --verify --output {tmp}/verified.txt",
    "cli report {tmp}/relDiff.json",
    "cli --scale smoke sweep late_sender",
    "cli --scale smoke sweep late_sender --verify --methods iter_k iter_avg",
    "cli --scale smoke sweep late_sender --json --thresholds 0.1 0.5",
    "cli --scale smoke sweep late_sender --methods relDiff iter_k avgWave --telemetry {tmp}/sweep.json",
    "cli sweep --trace {tmp}/s.rpb --executor process --workers 2 --verify",
    "cli sweep --trace {tmp}/s.rpb --verify --json --telemetry {tmp}/sweep_verify.json",
    "cli sweep --trace {tmp}/s.rpb --methods euclidean iter_avg",
    "cli sweep --trace {tmp}/s.txt --executor process --workers 2",
    "cli report {tmp}/sweep.json --top 3",
    "cli --scale smoke serve late_sender",
    "cli --scale smoke serve late_sender --sessions 3"
    " --tenant-budget 30 --repeat 2 --deltas {tmp}/deltas.log --verify",
    "cli serve --trace {tmp}/s.rpb --method euclidean --chunk 4 --flush-every 2 --repeat 2",
    "cli serve --trace {tmp}/s.txt --sessions 2 --queue-limit 2 --repeat 0",
    "cli --scale smoke serve sweep3d_8p --method avgWave --telemetry {tmp}/serve.json",
    "cli fuzz --cases 9 --seed 0 --shrink --save-failures --corpus {tmp}/corpus",
    "cli fuzz --cases 4 --seed 1 --families threshold_edge malformed --time-budget 120",
    "cli fuzz --replay 4d115fe3a894 --corpus {root}/tests/regression_corpus",
    *(f"py {path.relative_to(ROOT)}" for path in sorted((ROOT / "examples").glob("*.py"))),
    "py bench/run.py --quick --out {tmp}/bench",
]


def src_functions() -> dict[str, int]:
    """``module:qualname`` -> source lines, for every ``def`` under ``src/repro``."""
    found: dict[str, int] = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = f"{module}:{qualname}"
                found[key] = found.get(key, 0) + child.end_lineno - start + 1
                walk(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), _module_of(path), "")
    return found


def kept_names() -> dict[str, str]:
    """``module:qualname`` -> reason, from ``kept.txt`` (``#`` starts a comment)."""
    kept = {}
    for line in KEPT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            kept[name] = reason.strip()
    return kept


def _statements(body):
    """``(first line, lines)`` of each statement of ``body`` a line event can
    show running: a compound statement by its header, nested defs left to
    their own rows, error paths left out."""
    if body and isinstance(body[-1], ast.Raise):
        return  # an error-path block
    for stmt in body:
        if isinstance(stmt, _SILENT) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        ):
            continue
        if isinstance(stmt, (ast.Try, ast.TryStar)):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):  # not the handlers
                yield from _statements(block)
            continue
        blocks = [case.body for case in stmt.cases] if isinstance(stmt, ast.Match) else [
            block for block in (getattr(stmt, "body", None), getattr(stmt, "orelse", None)) if block
        ]
        if not blocks:
            yield stmt.lineno, range(stmt.lineno, stmt.end_lineno + 1)
            continue
        header_end = (stmt.cases[0].pattern if isinstance(stmt, ast.Match) else blocks[0][0]).lineno
        yield stmt.lineno, range(stmt.lineno, max(stmt.lineno + 1, header_end))
        for block in blocks:
            yield from _statements(block)


#: Statements that raise no line event (nor do docstrings and ``...``), or
#: that another row or an error path covers.
_SILENT = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Raise, ast.Assert,
    ast.Pass, ast.Global, ast.Nonlocal,
)


def unrun_statements(hit: set[str], executed: dict[str, set[int]]) -> list[str]:
    """Rows for the statements of called functions that ``executed`` never saw."""
    rows = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        text = path.read_text()
        source, module = text.splitlines(), _module_of(path)
        seen = executed.get(str(path.relative_to(SRC)), set())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    if f"{module}:{qualname}" in hit:
                        for first, lines in _statements(child.body):
                            if seen.isdisjoint(lines):
                                rows.append(f"{path.relative_to(ROOT)}:{first}  "
                                            f"{module}:{qualname}  {source[first - 1].strip()}")
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(text), "")
    return rows


def _module_of(filename: str | Path) -> str:
    """Dotted module name of a file under ``src/``."""
    parts = Path(filename).relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def run_commands(tmp: Path) -> tuple[set[str], dict[str, set[int]]]:
    """Run ``COMMANDS`` under the hook: the ``module:qualname`` of every code
    object called, and per file under ``src/`` the lines executed."""
    version = f"python{sys.version_info.major}.{sys.version_info.minor}"
    site = tmp / "userbase" / "lib" / version / "site-packages"
    site.mkdir(parents=True)
    shutil.copy(HERE / "hook.py", site / "usercustomize.py")
    log, lines_log = tmp / "calls.log", tmp / "lines.log"
    stdout = tmp / "stdout"
    stdout.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "PYTHONUSERBASE": str(tmp / "userbase"),
        "REPRO_TRAFFIC_LOG": str(log),
        "REPRO_TRAFFIC_LINES": str(lines_log),
        "REPRO_TRAFFIC_ROOT": str(SRC) + os.sep,
    }
    for number, command in enumerate(COMMANDS, 1):
        kind, *words = shlex.split(command.format(tmp=tmp, root=ROOT))
        if kind == "cli":
            argv = [sys.executable, "-m", "repro.cli", *words]
        else:
            argv = [sys.executable, str(ROOT / words[0]), *words[1:]]
        print(f"[{number}/{len(COMMANDS)}] {command}", file=sys.stderr, flush=True)
        with open(stdout / f"{number:02d}.txt", "wb") as sink:
            done = subprocess.run(argv, cwd=tmp, env=env, stdout=sink,
                                  stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"traffic: exit {done.returncode} from: {command}\n{done.stderr}")
    hit = set()
    for line in log.read_text().splitlines():
        filename, _, qualname = line.rpartition(":")
        hit.add(f"{_module_of(filename)}:{qualname}")
    executed: dict[str, set[int]] = {}
    for line in lines_log.read_text().splitlines():
        filename, _, lineno = line.rpartition(":")
        executed.setdefault(filename, set()).add(int(lineno))
    return hit, executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report here (default: stdout)")
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="run in DIR (new or empty) and keep the commands' products there")
    args = parser.parse_args(argv)

    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        hit, executed = run_commands(args.keep.resolve())
    else:
        with tempfile.TemporaryDirectory(prefix="repro-traffic-") as tmp:
            hit, executed = run_commands(Path(tmp))
    functions = src_functions()
    kept = kept_names()
    unhit = {name: lines for name, lines in functions.items() if name not in hit}
    rows = [f"{name}  {lines}" + ("" if name in kept else "  UNLISTED")
            for name, lines in sorted(unhit.items())]
    summary = (f"# {len(unhit)} of {len(functions)} functions "
               f"({sum(unhit.values())} of {sum(functions.values())} function lines) never called "
               f"by {len(COMMANDS)} commands")
    unrun = unrun_statements(hit, executed)
    text = "\n".join([
        summary, *rows, "",
        f"# {len(unrun)} statements of called functions never executed (error paths left out)",
        *unrun,
    ]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    unlisted = sorted(set(unhit) - set(kept))
    for name in sorted(set(kept) & set(functions) - set(unhit)):
        print(f"traffic: note: {name} is in kept.txt but was called", file=sys.stderr)
    if unlisted:
        print(f"traffic: {len(unlisted)} zero-hit function(s) with no line in "
              f"{KEPT.relative_to(ROOT)}:", file=sys.stderr)
        for name in unlisted:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(summary[2:], file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
