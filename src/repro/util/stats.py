"""Small statistics helpers used by the evaluation criteria."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["percentile", "pearson", "coefficient_of_variation"]


def percentile(values: Iterable[float], q: float) -> float:
    """Return the ``q``-th percentile (0..100) of ``values``.

    Uses linear interpolation (NumPy's default).  An empty input returns 0.0,
    which is the natural value for "approximation distance of an empty trace".
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.size == 0:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return float(np.percentile(arr, q))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation, defined as 1.0 for degenerate (constant) inputs.

    Two constant vectors are "perfectly similar profiles" for the purposes of
    diagnosis comparison, so the degenerate case maps to 1.0 when both are
    constant and 0.0 when only one is.
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape:
        raise ValueError("pearson requires equal-length inputs")
    if ax.size < 2:
        return 1.0
    sx = ax.std()
    sy = ay.std()
    if sx == 0.0 and sy == 0.0:
        return 1.0
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.corrcoef(ax, ay)[0, 1])


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Std / |mean|; 0.0 when the mean is (near) zero."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    mean = arr.mean()
    if abs(mean) < 1e-12:
        return 0.0
    return float(arr.std() / abs(mean))
