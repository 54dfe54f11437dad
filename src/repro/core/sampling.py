"""Trace sampling — the paper's "future directions" extension.

Section 6 of the paper names *trace sampling* (Carrington et al., Vetter,
Gamblin et al.) as the next difference method to investigate.  This module
provides two sampling strategies expressed in the same reducer framework, so
they can be compared against the nine similarity methods with the exact same
evaluation criteria:

* :class:`PeriodicSampling` — keep every ``period``-th execution of each traced
  segment of code (systematic sampling);
* :class:`RandomSampling` — keep each execution independently with probability
  ``rate`` (Vetter-style statistical sampling), always keeping the first
  execution of each pattern so reconstruction has a representative.

Executions that are not kept are recorded only in the execution list, exactly
like a matched segment in the similarity methods; reconstruction fills them in
with the most recently kept execution of the same pattern.

These strategies are intentionally *not* part of
:data:`repro.core.metrics.METRIC_NAMES` — the paper evaluates nine methods and
the reproduction keeps that set intact — but they plug into
:class:`~repro.core.reducer.TraceReducer`, :mod:`repro.evaluation`, and the
benchmark harness unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.metrics.base import SimilarityMetric
from repro.core.reduced import StoredSegment
from repro.trace.segments import Segment
from repro.util.rng import rng_for
from repro.util.validation import check_probability

__all__ = ["PeriodicSampling", "RandomSampling"]


class PeriodicSampling(SimilarityMetric):
    """Keep every ``period``-th execution of each traced segment of code.

    ``period`` = 1 keeps everything (no reduction); ``period`` = 10 keeps one
    execution in ten.  The first execution of every pattern is always kept.
    """

    name = "sample_period"

    def __init__(self, period: int):
        if period < 1:
            raise ValueError(f"sampling period must be >= 1, got {period}")
        self.period = int(period)
        self.threshold = float(period)

    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        if not stored:
            return None
        executions_so_far = sum(entry.count for entry in stored)
        if executions_so_far % self.period == 0:
            return None  # keep this execution as a new stored segment
        return stored[-1]

    def new_rows(self, seen: np.ndarray) -> np.ndarray:
        return seen % self.period == 0


class RandomSampling(SimilarityMetric):
    """Keep each execution independently with probability ``rate``.

    The sampling decisions are drawn from a deterministic per-instance stream
    (seeded), so reductions are reproducible.
    """

    name = "sample_random"
    stream_across_ranks = True

    def __init__(self, rate: float, seed: int = 0):
        check_probability("rate", rate)
        self.rate = float(rate)
        self.threshold = float(rate)
        self._rng = rng_for(seed, "random_sampling", rate)

    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        if not stored:
            return None
        if self._rng.random() < self.rate:
            return None  # sampled: keep the real measurements
        return stored[-1]

    def new_rows(self, seen: np.ndarray) -> np.ndarray:
        # One draw per execution after a key's first, in segment order: one
        # ``random(n)`` call yields the doubles n scalar ``random()`` calls do.
        new = seen == 0
        later = np.flatnonzero(~new)
        if later.size:
            new[later] = self._rng.random(later.size) < self.rate
        return new
