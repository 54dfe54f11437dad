"""Pairwise distance methods: relative difference and absolute difference.

Both methods compare each measurement with its paired counterpart in
isolation; a single pair exceeding the threshold fails the whole match.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.metrics.base import DistanceMetric
from repro.trace.segments import Segment

__all__ = ["RelDiff", "AbsDiff", "relative_differences"]


def relative_differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise relative differences ``|a - b| / max(|a|, |b|)``.

    Pairs where both values are (near) zero have zero relative difference.
    This matches the paper's worked example: comparing 17 and 40 gives
    ``23 / 40 = 0.58``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(denom > 0.0, diff / np.where(denom > 0.0, denom, 1.0), 0.0)
    return rel


class RelDiff(DistanceMetric):
    """Relative difference of every paired measurement against a threshold.

    Because every pair is judged in isolation and differences are scaled by
    the pair's own magnitude, this is one of the strictest criteria in the
    set; the paper expects (and finds) low error but comparatively little file
    size reduction.
    """

    name = "relDiff"

    def similar(
        self,
        new_ts: np.ndarray,
        stored_ts: np.ndarray,
        new_segment: Segment,
        stored_segment: Segment,
    ) -> bool:
        rel = relative_differences(new_ts, stored_ts)
        return bool(np.all(rel <= self.threshold))

    def match_stats(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        # relative_differences broadcasts (rows, n) against (n,) element-wise
        # and is symmetric in its operands; "every pair within threshold" is
        # exactly "the row's largest relative difference within threshold"
        # (the values are finite and non-negative), so each row's decision is
        # bit-identical to the scalar scan.
        rel = relative_differences(matrix, vector)
        return rel.max(axis=-1, initial=0.0), None


class AbsDiff(DistanceMetric):
    """Absolute difference of every paired measurement against a threshold.

    The threshold is in µs.  Unlike relDiff this has no bias against events
    that occur early in the segment (small timestamps), so the paper expects
    fairly accurate timing across processes.
    """

    name = "absDiff"

    def similar(
        self,
        new_ts: np.ndarray,
        stored_ts: np.ndarray,
        new_segment: Segment,
        stored_segment: Segment,
    ) -> bool:
        return bool(np.all(np.abs(new_ts - stored_ts) <= self.threshold))

    def match_stats(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        # "Every pair within threshold" == "largest absolute difference of
        # the row within threshold"; values are finite, so max() and all()
        # decide identically.
        return np.abs(matrix - vector).max(axis=-1, initial=0.0), None
