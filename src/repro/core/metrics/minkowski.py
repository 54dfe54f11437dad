"""Minkowski distance methods: Manhattan, Euclidean, Chebyshev.

The distance between the two segments' measurement vectors is compared against
``threshold × (largest measurement in the pair of vectors)`` — the worked
example of Section 3.2.1: vectors (49, 1, 17, 18, 48) and (51, 1, 40, 41, 50)
have Manhattan/Euclidean/Chebyshev distances 50 / 32.6 / 23 and the match
limit for threshold 0.2 is ``0.2 × 51 = 10.2``.
"""

from __future__ import annotations

import math

from typing import Hashable, Optional

import numpy as np

from repro.core.metrics.base import DistanceMetric
from repro.core.metrics.vectors import minkowski_vector
from repro.trace.segments import Segment

__all__ = ["MinkowskiMetric", "Manhattan", "Euclidean", "Chebyshev", "minkowski_distance"]


def minkowski_distance(a: np.ndarray, b: np.ndarray, order: float) -> float:
    """Minkowski distance of order ``order`` (``math.inf`` for Chebyshev)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"vectors must have equal length, got {a.size} and {b.size}")
    diff = np.abs(a - b)
    if math.isinf(order):
        return float(diff.max()) if diff.size else 0.0
    if order <= 0:
        raise ValueError(f"Minkowski order must be positive, got {order}")
    return float(np.power(np.power(diff, order).sum(), 1.0 / order))


class MinkowskiMetric(DistanceMetric):
    """Common implementation for the three Minkowski variants."""

    #: Minkowski order (1, 2, or inf); set by subclasses.
    order: float = 1.0

    def distance(self, new_segment: Segment, stored_segment: Segment) -> float:
        """Distance between the two segments' Minkowski measurement vectors."""
        return minkowski_distance(
            minkowski_vector(new_segment), minkowski_vector(stored_segment), self.order
        )

    def limit(self, new_segment: Segment, stored_segment: Segment) -> float:
        """Maximum distance still considered a match for this segment pair.

        The scale is the largest measurement *magnitude* in the pair of
        vectors.  A signed ``max(initial=0.0)`` would clamp the limit to zero
        whenever every measurement is <= 0, making near-identical segments
        unmatchable; magnitudes keep the limit meaningful for any sign.
        """
        v1 = minkowski_vector(new_segment)
        v2 = minkowski_vector(stored_segment)
        largest = max(float(np.abs(v1).max(initial=0.0)), float(np.abs(v2).max(initial=0.0)))
        return self.threshold * largest

    def similar(
        self,
        new_ts: np.ndarray,
        stored_ts: np.ndarray,
        new_segment: Segment,
        stored_segment: Segment,
    ) -> bool:
        return self.distance(new_segment, stored_segment) <= self.limit(
            new_segment, stored_segment
        )

    # -- batched matching ------------------------------------------------------

    def vector_key(self) -> Hashable:
        return "minkowski"

    def build_vector(self, segment: Segment) -> np.ndarray:
        return minkowski_vector(segment)

    def row_scale(self, rows: np.ndarray):
        """Largest measurement magnitude of one row, or of each row of a stack."""
        return np.abs(rows).max(axis=-1, initial=0.0)

    def frame_vectors(self, frame):
        return frame.minkowski_vectors()

    def match_stats(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        diff = np.abs(matrix - vector)
        if math.isinf(self.order):
            distances = diff.max(axis=-1, initial=0.0)
        else:
            # Row-wise Minkowski norm; the power/sum/power sequence mirrors
            # minkowski_distance so per-row results match the scan exactly.
            distances = np.power(np.power(diff, self.order).sum(axis=-1), 1.0 / self.order)
        if row_scales is None:
            row_scales = self.row_scale(matrix)
        return distances, np.maximum(row_scales, self.row_scale(vector))


class Manhattan(MinkowskiMetric):
    """Minkowski distance with m = 1 (sum of absolute differences)."""

    name = "manhattan"
    order = 1.0


class Euclidean(MinkowskiMetric):
    """Minkowski distance with m = 2."""

    name = "euclidean"
    order = 2.0


class Chebyshev(MinkowskiMetric):
    """Minkowski distance with m = ∞ (largest single difference)."""

    name = "chebyshev"
    order = math.inf
