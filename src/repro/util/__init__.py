"""Shared utilities: deterministic RNG helpers, statistics, validation, tables.

These helpers are deliberately dependency-light (NumPy only) so that every
other subpackage can rely on them without import cycles.  The names below
import their module when first read, so a module that needs one helper
(``repro.util.cut``) loads no other.
"""

from repro._lazy import lazy_getattr

__all__ = [
    "derive_seed",
    "rng_for",
    "percentile",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_rank",
]

__getattr__ = lazy_getattr(
    __name__,
    {
        ".rng": ("derive_seed", "rng_for"),
        ".stats": ("percentile",),
        ".validation": ("check_non_negative", "check_positive", "check_probability", "check_rank"),
    },
)
