"""Wavelet-transform methods: average transform and Haar transform.

The segment's timestamp vector (leading 0, event start/end pairs, segment end,
zero-padded to a power of two) is decomposed with the discrete wavelet
transform; the Euclidean distance between the transformed vectors is compared
against ``threshold × (largest value in the pair of transformed vectors)``.

The *average* transform computes pairwise trends ``(x + y) / 2`` and
fluctuations ``(y - x) / 2``; the *Haar* transform multiplies both by √2,
which preserves the Euclidean norm (a property verified by the test suite).
The worked example of Figure 3 in the paper is reproduced in the unit tests:
the transformed vectors of segments s0 and s2 have Euclidean distance ≈ 1.9
and the match limit for threshold 0.2 is ``0.2 × 17.625 ≈ 3.5``.
"""

from __future__ import annotations

import math

from typing import Hashable, Optional

import numpy as np

from repro.core.metrics.base import DistanceMetric
from repro.core.metrics.vectors import wavelet_vector
from repro.trace.segments import Segment

__all__ = [
    "average_transform",
    "haar_transform",
    "WaveletMetric",
    "AvgWave",
    "HaarWave",
]


def _pyramid(values: np.ndarray, scale: float) -> np.ndarray:
    """Full multi-level DWT: repeatedly split into trends and fluctuations.

    The output layout is ``[final trend, coarsest details, ..., finest
    details]``; only the set of coefficients matters for the Euclidean
    distance and maximum used by the matching test.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return values.copy()
    if n & (n - 1):
        raise ValueError(f"wavelet transform requires a power-of-two length, got {n}")
    details: list[np.ndarray] = []
    current = values
    while current.size > 1:
        pairs = current.reshape(-1, 2)
        trends = (pairs[:, 0] + pairs[:, 1]) * scale
        # Fluctuations use the (second - first) convention: with it, the worked
        # example of the paper's Figure 3 yields 17.625 (the final trend of s0)
        # as the largest value of the transformed vectors, exactly as printed.
        fluctuations = (pairs[:, 1] - pairs[:, 0]) * scale
        details.append(fluctuations)
        current = trends
    return np.concatenate([current] + details[::-1])


def average_transform(values: np.ndarray) -> np.ndarray:
    """Average wavelet transform: trends/fluctuations are (x ± y) / 2."""
    return _pyramid(values, 0.5)


def haar_transform(values: np.ndarray) -> np.ndarray:
    """Haar wavelet transform: trends/fluctuations are (x ± y) / √2."""
    return _pyramid(values, 1.0 / math.sqrt(2.0))


#: Pyramid scale of each known transform — the key the columnar bulk path
#: uses to reproduce ``transform`` row-batched (``frames.pyramid_rows``).
_TRANSFORM_SCALES = {average_transform: 0.5, haar_transform: 1.0 / math.sqrt(2.0)}


class WaveletMetric(DistanceMetric):
    """Common implementation for the two wavelet variants."""

    #: Set by subclasses to one of the transform functions above.
    transform = staticmethod(average_transform)

    def __init__(self, threshold: float, *, pad: bool = True):
        super().__init__(threshold)
        self.pad = pad

    def transformed(self, segment: Segment) -> np.ndarray:
        """Transformed measurement vector of ``segment``."""
        vector = wavelet_vector(segment, pad=self.pad)
        if not self.pad:
            # Truncate to a power of two instead of padding (ablation variant).
            usable = 1 << max(0, vector.size.bit_length() - 1)
            if usable != vector.size:
                vector = vector[:usable]
            if vector.size == 0:
                vector = np.zeros(1)
        return type(self).transform(vector)

    def similar(
        self,
        new_ts: np.ndarray,
        stored_ts: np.ndarray,
        new_segment: Segment,
        stored_segment: Segment,
    ) -> bool:
        t1 = self.transformed(new_segment)
        t2 = self.transformed(stored_segment)
        # sqrt(sum of squares) rather than np.linalg.norm: BLAS dot products
        # may sum in a different order, and the batched kernel must reproduce
        # this distance bit-for-bit.
        distance = float(np.sqrt(np.square(t1 - t2).sum()))
        # The match limit scales with the largest coefficient *magnitude*:
        # fluctuations are signed, so a signed max would clamp the limit to
        # zero for vectors whose coefficients are all <= 0 and near-identical
        # segments could never match.
        largest = max(float(np.abs(t1).max(initial=0.0)), float(np.abs(t2).max(initial=0.0)))
        return distance <= self.threshold * largest

    # -- batched matching ------------------------------------------------------

    def vector_key(self) -> Hashable:
        # Rows hold *transformed* coefficients, so the cache key must pin the
        # transform variant and the padding ablation.
        return ("wavelet", self.name, self.pad)

    def build_vector(self, segment: Segment) -> np.ndarray:
        return self.transformed(segment)

    def row_scale(self, rows: np.ndarray):
        """Largest coefficient magnitude of one transformed row, or of each row of a stack."""
        return np.abs(rows).max(axis=-1, initial=0.0)

    def frame_vectors(self, frame):
        # The bulk path re-derives the pyramid scale from the transform function.
        return frame.wavelet_vectors(scale=_TRANSFORM_SCALES[type(self).transform], pad=self.pad)

    def match_stats(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        distances = np.sqrt(np.square(matrix - vector).sum(axis=-1))
        if row_scales is None:
            row_scales = self.row_scale(matrix)
        return distances, np.maximum(row_scales, self.row_scale(vector))


class AvgWave(WaveletMetric):
    """Average wavelet transform method (the paper's overall winner)."""

    name = "avgWave"
    transform = staticmethod(average_transform)


class HaarWave(WaveletMetric):
    """Haar wavelet transform method."""

    name = "haarWave"
    transform = staticmethod(haar_transform)
