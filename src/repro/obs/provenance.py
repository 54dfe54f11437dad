"""Run provenance: who/where/when a measurement was taken.

Benchmark JSON reports (``BENCH_*.json``) and exported telemetry files embed
one shared provenance block so the perf trajectory stays attributable across
runners: a 4.7x on one machine and a 3.9x on another are different facts, and
without the interpreter/cpu/sha context the numbers cannot be compared run
over run.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

__all__ = ["provenance"]

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _git_sha() -> str | None:
    """Current commit sha, or None outside a git checkout / without git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def provenance() -> dict:
    """The shared provenance block embedded in benchmark and telemetry files."""
    import platform

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
    }
