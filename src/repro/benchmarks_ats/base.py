"""Common infrastructure for benchmark generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.program import Program
from repro.trace.trace import SegmentedTrace, Trace

__all__ = ["Workload", "jittered"]


@dataclass(slots=True)
class Workload:
    """A runnable evaluation workload.

    Attributes
    ----------
    name:
        Workload name as used in the paper (e.g. ``"late_sender"``,
        ``"1to1r_1024"``, ``"sweep3d_8p"``).
    program:
        The SPMD program to simulate.
    config:
        Simulator configuration (machine model, noise, seed).
    description:
        One-line description of the behaviour the workload exhibits.
    expected_metric:
        The KOJAK-style metric the workload is designed to trigger (used by
        tests and by the trend tables to label the "major" diagnosis).
    expected_location:
        The traced function name where that metric should show up.
    """

    name: str
    program: Program
    config: SimulatorConfig
    description: str = ""
    expected_metric: Optional[str] = None
    expected_location: Optional[str] = None

    @property
    def nprocs(self) -> int:
        return self.program.nprocs

    def run(self) -> Trace:
        """Simulate the workload and return its raw trace."""
        return simulate(self.program, self.config)

    def run_segmented(self) -> SegmentedTrace:
        """Simulate the workload and return the segmented trace."""
        return self.run().segmented()


def jittered(rng: np.random.Generator, nominal: float, jitter: float) -> float:
    """Return ``nominal`` µs with multiplicative Gaussian jitter.

    Measured durations of "identical" work are never exactly equal; the paper
    relies on this (otherwise exact matching would suffice).  The jitter is a
    relative standard deviation (e.g. 0.02 = 2 %), truncated so a duration can
    never drop below half or grow beyond twice its nominal value.
    """
    if nominal <= 0:
        return 0.0
    if jitter <= 0:
        return float(nominal)
    factor = min(max(1.0 + rng.normal(0.0, jitter), 0.5), 2.0)
    return float(nominal * factor)
