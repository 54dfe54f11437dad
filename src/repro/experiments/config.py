"""Workload registry and experiment scaling profiles.

The paper's exact runs (8/32 processes, long traces, a full Sweep3D problem)
would take a while to regenerate on every benchmark invocation, so every
experiment accepts an :class:`ExperimentScale`:

* ``paper``   — the paper's process counts and iteration counts;
* ``default`` — the same programs at reduced iteration counts / grid sizes
  (what the benchmark harness uses);
* ``smoke``   — tiny runs for unit tests.

The scale changes how *much* trace is generated, never the structure of the
programs, so the qualitative comparisons between methods are unaffected.
Select a scale globally through the ``REPRO_SCALE`` environment variable.

The registry (names, scales) loads nothing else: the simulator and the
benchmark programs are imported when the first workload is built, so a
command that only parses a workload name does not pay for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.benchmarks_ats import Workload
    from repro.evaluation.runner import PreparedWorkload

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "BENCHMARK_NAMES",
    "REGULAR_BENCHMARK_NAMES",
    "INTERFERENCE_PATTERN_NAMES",
    "INTERFERENCE_BENCHMARK_NAMES",
    "SWEEP3D_NAMES",
    "ALL_WORKLOAD_NAMES",
    "build_workload",
    "prepared_workload",
    "prepared_cache_size",
    "clear_workload_cache",
]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """How much trace to generate for each workload family."""

    name: str
    benchmark_nprocs: int
    benchmark_iterations: int
    interference_nprocs: int
    interference_iterations: int
    sweep3d_8p_scale: float
    sweep3d_8p_timesteps: int
    sweep3d_32p_scale: float
    sweep3d_32p_timesteps: int
    seed: int = 0


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        benchmark_nprocs=4,
        benchmark_iterations=8,
        interference_nprocs=4,
        interference_iterations=10,
        sweep3d_8p_scale=0.2,
        sweep3d_8p_timesteps=2,
        sweep3d_32p_scale=0.1,
        sweep3d_32p_timesteps=1,
    ),
    "default": ExperimentScale(
        name="default",
        benchmark_nprocs=8,
        benchmark_iterations=60,
        interference_nprocs=16,
        interference_iterations=60,
        sweep3d_8p_scale=0.5,
        sweep3d_8p_timesteps=4,
        sweep3d_32p_scale=0.25,
        sweep3d_32p_timesteps=3,
    ),
    "paper": ExperimentScale(
        name="paper",
        benchmark_nprocs=8,
        benchmark_iterations=100,
        interference_nprocs=32,
        interference_iterations=100,
        sweep3d_8p_scale=1.0,
        sweep3d_8p_timesteps=6,
        sweep3d_32p_scale=1.0,
        sweep3d_32p_timesteps=4,
    ),
}


def get_scale(name: Optional[str] = None) -> ExperimentScale:
    """Return a scale profile by name.

    When ``name`` is None the ``REPRO_SCALE`` environment variable is
    consulted, falling back to ``"default"``.
    """
    if name is None:
        name = os.environ.get("REPRO_SCALE", "default")
    if name not in SCALES:
        raise ValueError(f"unknown scale {name!r}; expected one of {sorted(SCALES)}")
    return SCALES[name]


REGULAR_BENCHMARK_NAMES: tuple[str, ...] = (
    "late_sender",
    "late_receiver",
    "early_gather",
    "late_broadcast",
    "imbalance_at_mpi_barrier",
)

#: The interference suite's communication patterns: the keys of
#: :data:`repro.benchmarks_ats.INTERFERENCE_PATTERNS`, in its order.
INTERFERENCE_PATTERN_NAMES: tuple[str, ...] = ("Nto1", "1toN", "1to1r", "1to1s", "NtoN")

INTERFERENCE_BENCHMARK_NAMES: tuple[str, ...] = tuple(
    f"{pattern}_{simulated}"
    for simulated in (32, 1024)
    for pattern in INTERFERENCE_PATTERN_NAMES
)

#: The 16 benchmark programs of the paper (everything except Sweep3D).
BENCHMARK_NAMES: tuple[str, ...] = (
    "dyn_load_balance",
    *REGULAR_BENCHMARK_NAMES,
    *INTERFERENCE_BENCHMARK_NAMES,
)

SWEEP3D_NAMES: tuple[str, ...] = ("sweep3d_8p", "sweep3d_32p")

ALL_WORKLOAD_NAMES: tuple[str, ...] = (*BENCHMARK_NAMES, *SWEEP3D_NAMES)


def _benchmark_factory(name: str) -> Callable[[ExperimentScale], Workload]:
    def build(scale: ExperimentScale) -> Workload:
        from repro import benchmarks_ats

        return getattr(benchmarks_ats, name)(
            nprocs=scale.benchmark_nprocs,
            iterations=scale.benchmark_iterations,
            seed=scale.seed,
        )

    return build


def _interference_factory(pattern: str, simulated: int) -> Callable[[ExperimentScale], Workload]:
    def build(scale: ExperimentScale) -> Workload:
        from repro.benchmarks_ats import interference

        return interference(
            pattern,
            simulated,
            nprocs=scale.interference_nprocs,
            iterations=scale.interference_iterations,
            seed=scale.seed,
        )

    return build


def _sweep3d_8p(scale: ExperimentScale) -> Workload:
    from repro.sweep3d import sweep3d_8p

    return sweep3d_8p(
        scale=scale.sweep3d_8p_scale, timesteps=scale.sweep3d_8p_timesteps, seed=scale.seed
    )


def _sweep3d_32p(scale: ExperimentScale) -> Workload:
    from repro.sweep3d import sweep3d_32p

    return sweep3d_32p(
        scale=scale.sweep3d_32p_scale, timesteps=scale.sweep3d_32p_timesteps, seed=scale.seed
    )


_FACTORIES: dict[str, Callable[[ExperimentScale], Workload]] = {
    **{name: _benchmark_factory(name) for name in ("dyn_load_balance", *REGULAR_BENCHMARK_NAMES)},
    **{
        f"{pattern}_{simulated}": _interference_factory(pattern, simulated)
        for simulated in (32, 1024)
        for pattern in INTERFERENCE_PATTERN_NAMES
    },
    "sweep3d_8p": _sweep3d_8p,
    "sweep3d_32p": _sweep3d_32p,
}


def build_workload(name: str, scale: ExperimentScale | str | None = None) -> Workload:
    """Build one of the paper's workloads at the given scale."""
    if isinstance(scale, str) or scale is None:
        scale = get_scale(scale)
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; expected one of {ALL_WORKLOAD_NAMES}")
    return _FACTORIES[name](scale)


# Prepared workloads (simulated, segmented, analyzed) are memoized per
# (workload, scale) because every figure, table, and sweep grid re-uses the
# same full trace: a multi-method study prepares each workload once, however
# many methods and thresholds it evaluates.  The key is the *full* scale
# profile (ExperimentScale is frozen and hashable), not just its name, so two
# custom profiles that happen to share a name can never alias each other's
# traces.
_PREPARED_CACHE: dict[tuple[str, ExperimentScale], PreparedWorkload] = {}


def prepared_workload(name: str, scale: ExperimentScale | str | None = None) -> PreparedWorkload:
    """Return (and memoize) the shared evaluation artefacts for one workload."""
    from repro.evaluation.runner import PreparedWorkload

    if isinstance(scale, str) or scale is None:
        scale = get_scale(scale)
    key = (name, scale)
    if key not in _PREPARED_CACHE:
        _PREPARED_CACHE[key] = PreparedWorkload.from_workload(build_workload(name, scale))
    return _PREPARED_CACHE[key]


def prepared_cache_size() -> int:
    """Number of (workload, scale) entries currently memoized."""
    return len(_PREPARED_CACHE)


def clear_workload_cache() -> None:
    """Drop all cached prepared workloads (mainly for tests)."""
    _PREPARED_CACHE.clear()
