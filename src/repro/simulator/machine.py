"""Virtual machine / interconnect cost model.

The cost model is deliberately simple (latency + bandwidth point-to-point,
log-P collectives): the trace-reduction study only needs timings with the
right *structure* (waits dominated by application imbalance, communication
costs small relative to ~1 ms work periods), not cycle accuracy.
All times are microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive

__all__ = ["MachineModel"]


@dataclass(frozen=True, slots=True)
class MachineModel:
    """Interconnect and MPI software cost parameters.

    Attributes
    ----------
    latency:
        One-way point-to-point latency in µs.
    bandwidth:
        Point-to-point bandwidth in bytes/µs (1000 bytes/µs = 1 GB/s).
    mpi_overhead:
        Local software overhead charged to every MPI call, in µs.
    collective_base:
        Base cost of a collective, in µs.
    collective_log_factor:
        Additional per-``log2(nprocs)`` cost of a collective, in µs.
    """

    latency: float = 5.0
    bandwidth: float = 1000.0
    mpi_overhead: float = 2.0
    collective_base: float = 5.0
    collective_log_factor: float = 3.0

    def __post_init__(self) -> None:
        check_non_negative("latency", self.latency)
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("mpi_overhead", self.mpi_overhead)
        check_non_negative("collective_base", self.collective_base)
        check_non_negative("collective_log_factor", self.collective_log_factor)

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` between two ranks (latency + payload)."""
        return self.latency + nbytes / self.bandwidth

    def local_send_cost(self, nbytes: int) -> float:
        """Local cost of an eager (standard-mode) send: overhead + injection."""
        return self.mpi_overhead + nbytes / self.bandwidth

    def collective_cost(self, nprocs: int, nbytes: int) -> float:
        """Cost of a collective once every participant has arrived."""
        if nprocs < 1:
            raise ValueError(f"collective requires at least one rank, got {nprocs}")
        stages = math.log2(nprocs) if nprocs > 1 else 0.0
        return (
            self.collective_base
            + self.collective_log_factor * stages
            + (nbytes / self.bandwidth) * max(1.0, stages)
        )
