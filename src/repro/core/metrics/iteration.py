"""Iteration-based methods: keep k copies (iter_k) or keep the average (iter_avg).

These methods ignore the measurements entirely: structural equality (which the
reducer has already established) is all that matters.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.metrics.base import SimilarityMetric, check_threshold
from repro.core.reduced import StoredSegment
from repro.trace.segments import Segment

__all__ = ["IterK", "IterAvg"]


class IterK(SimilarityMetric):
    """Keep only the first ``k`` executions of each traced segment of code.

    Once ``k`` copies of a structural pattern are stored, every further
    execution "matches" and is recorded only in the execution list.  Following
    the paper's footnote, reconstruction fills those executions with the last
    collected copy by default (the mean of the k copies is available as an
    option, see :func:`repro.core.reconstruct.reconstruct`).
    """

    name = "iter_k"

    def __init__(self, k: int):
        check_threshold(self.name, k)
        if k < 1:
            raise ValueError(f"iter_k requires k >= 1, got {k}")
        self.k = int(k)
        self.threshold = float(k)

    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        if len(stored) >= self.k:
            return stored[-1]
        return None

    def new_rows(self, seen: np.ndarray) -> np.ndarray:
        # A key's first k executions are stored; every later one matches the k-th.
        return seen < self.k


class IterAvg(SimilarityMetric):
    """Keep one copy per traced segment of code holding average measurements.

    Every structurally identical segment matches, and each match folds the new
    measurements into the stored representative's running mean.  This gives
    the smallest possible files (exactly one stored segment per pattern) at
    the cost of smoothing away any behaviour variability.
    """

    name = "iter_avg"
    averages = True

    def __init__(self) -> None:
        self.threshold = None

    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        return stored[0] if stored else None

    def on_match(self, timestamps: np.ndarray, chosen: StoredSegment) -> None:
        # update_mean() also increments the execution count.
        chosen.update_mean(timestamps)

    def new_rows(self, seen: np.ndarray) -> np.ndarray:
        return seen == 0
