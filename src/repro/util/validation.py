"""Argument validation helpers.

The public API raises :class:`ValueError`/:class:`TypeError` with descriptive
messages rather than letting malformed configurations propagate into the
simulator or reducer, where the failure mode would be far harder to diagnose.
"""

from __future__ import annotations

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_rank",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_rank(rank: int, nprocs: int) -> int:
    """Require ``0 <= rank < nprocs``."""
    if not isinstance(rank, int):
        raise TypeError(f"rank must be an int, got {type(rank).__name__}")
    if not 0 <= rank < nprocs:
        raise ValueError(f"rank {rank} out of range for {nprocs} processes")
    return rank
