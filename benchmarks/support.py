"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs the
corresponding experiment once (timed by pytest-benchmark), prints the rows or
series the paper reports, and also writes them to ``results/<experiment>.txt``
so the numbers recorded in ``EXPERIMENTS.md`` can be re-checked.

The workload scale is selected with the ``REPRO_SCALE`` environment variable
(``smoke`` / ``default`` / ``paper``); the ``default`` profile is used when it
is unset.  See ``repro.experiments.config`` for what each profile means.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.config import ExperimentScale, get_scale
from repro.obs import provenance

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_scale() -> ExperimentScale:
    """Scale profile used by the benchmark harness (env ``REPRO_SCALE``)."""
    return get_scale(os.environ.get("REPRO_SCALE", "default"))


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and moderately expensive, so a single
    round gives a representative wall-clock figure without re-simulating the
    same workloads over and over.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(experiment_id: str, text: str) -> None:
    """Print a table under its id: what a ``BENCH_*`` gate does with its
    table, whose numbers its JSON report (:func:`write_bench_json`) keeps."""
    print(f"\n{'=' * 78}\n{experiment_id}\n{'=' * 78}\n{text}\n")


def emit(experiment_id: str, text: str) -> None:
    """Print an experiment's table and persist it under ``results/``."""
    show(experiment_id, text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n", encoding="utf-8")


def write_bench_json(path: Path, report: dict) -> None:
    """Write a ``BENCH_*.json`` gate report with the shared provenance block.

    Every benchmark gate embeds the same machine/interpreter/commit stamp so
    recorded numbers can be compared across environments.  The provenance key
    is added to a copy — callers keep their report dict unchanged.
    """
    stamped = dict(report)
    stamped["provenance"] = provenance()
    path.write_text(json.dumps(stamped, indent=2) + "\n", encoding="utf-8")
