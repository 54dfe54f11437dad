"""Shared utilities: deterministic RNG helpers, statistics, validation, tables.

These helpers are deliberately dependency-light (NumPy only) so that every
other subpackage can rely on them without import cycles.
"""

from repro.util.rng import derive_seed, rng_for
from repro.util.stats import percentile
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    check_rank,
)

__all__ = [
    "derive_seed",
    "rng_for",
    "percentile",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_rank",
]
