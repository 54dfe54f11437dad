"""Similarity-metric interface.

The reducer performs the structural checks itself (same context, same events
in the same order, same MPI parameters — the ``compareSegments`` pre-checks of
the paper) and hands the metric only *structurally identical* candidates.  The
metric then decides whether the measurements are similar enough for a match.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable, Optional, Sequence

import numpy as np

from repro.core.reduced import StoredSegment
from repro.trace.segments import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.core.frames import RankFrame

__all__ = ["SimilarityMetric", "DistanceMetric", "check_threshold"]


def check_threshold(method: str, threshold: float) -> float:
    """``threshold`` as a float, or the one ``ValueError`` of every method
    unless it is a finite number >= 0 (NaN fails both comparisons)."""
    if not 0 <= threshold < math.inf:
        raise ValueError(f"{method} threshold must be a finite number >= 0, got {threshold}")
    return float(threshold)


class SimilarityMetric(ABC):
    """Decides whether a new segment matches one of the stored representatives."""

    #: Paper name of the method (e.g. ``"relDiff"``); set by subclasses.
    name: str = "abstract"

    #: Threshold value (method specific meaning); ``None`` for iter_avg.
    threshold: Optional[float] = None

    @abstractmethod
    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        """Return the stored segment the candidate matches, or None.

        ``candidate`` has already been normalised (timestamps relative to the
        segment start) and every element of ``stored`` has the same structure
        as the candidate.  Implementations must scan ``stored`` in order and
        return the *first* match, mirroring the paper's algorithm.

        This is the scalar reference's statement of the method
        (:meth:`~repro.core.reducer.TraceReducer.reduce_segments`); the
        columnar core states it over frame columns, as
        :meth:`DistanceMetric.match_stats` for a distance metric and as
        :meth:`new_rows` for any other.
        """

    def on_match(self, timestamps: np.ndarray, chosen: StoredSegment) -> None:
        """Hook the scalar reference invokes after a match (default: count it).

        ``timestamps`` is the matched segment's timestamp vector
        (``relative.timestamps()``).
        """
        chosen.count += 1

    #: Whether a match folds the matched row into its representative's
    #: running mean (``iter_avg``): the columnar core's form of that
    #: metric's :meth:`on_match`.
    averages = False

    #: Whether the metric's decisions draw on one stream that runs on from
    #: rank to rank (``RandomSampling``'s generator): a reduction under it
    #: takes its ranks in order, in one process, or its bytes depend on how
    #: the ranks were cut into tasks.
    stream_across_ranks = False

    def new_rows(self, seen: np.ndarray) -> np.ndarray:
        """Which rows of a frame are new representatives, for a method that
        decides on execution counts alone: the columnar core's statement of
        every method that is not a :class:`DistanceMetric`.

        ``seen[i]`` is the number of executions of row ``i``'s structural key
        before it (in segment order, across the frames a reduction has
        taken).  Returns a boolean mask: True where the row is stored as a
        new representative.  Every other row matches its key's latest
        representative, the one :meth:`match` would return.
        """
        raise NotImplementedError(f"{self.name} decides by distance, not by counts")

    # -- vector layout ---------------------------------------------------------

    def vector_key(self) -> Hashable:
        """Name of this metric's vector layout: the sweep's feature-family key.

        Metrics sharing a layout (e.g. relDiff, absDiff and the iteration
        methods, which all use the canonical pairwise vector) share one bulk
        vector pass per frame.
        """
        return "pairwise"

    def build_vector(self, segment: Segment) -> np.ndarray:
        """This metric's feature vector of one (normalised) segment."""
        return np.asarray(segment.timestamps(), dtype=float)

    def frame_vectors(self, frame: "RankFrame") -> list[np.ndarray]:
        """Every segment's :meth:`build_vector`, built in bulk from a columnar
        frame: the probe rows the reducer steps this metric with."""
        return frame.pairwise_vectors()

    def describe(self) -> str:
        """Human-readable method description, e.g. ``"relDiff(0.8)"``."""
        if self.threshold is None:
            return self.name
        return f"{self.name}({self.threshold:g})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class DistanceMetric(SimilarityMetric):
    """Base class for threshold-based distance methods.

    Subclasses implement :meth:`similar`, which receives the two segments'
    timestamp vectors (canonical layout: event start/end pairs followed by the
    segment end, all relative to the segment start) plus the segments
    themselves for methods that need a different vector layout.
    """

    def __init__(self, threshold: float):
        self.threshold = check_threshold(self.name, threshold)

    @abstractmethod
    def similar(
        self,
        new_ts: np.ndarray,
        stored_ts: np.ndarray,
        new_segment: Segment,
        stored_segment: Segment,
    ) -> bool:
        """Return True if the two measurement vectors are similar enough."""

    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        new_ts = np.asarray(candidate.timestamps(), dtype=float)
        for entry in stored:
            stored_ts = entry.timestamps()
            if self.similar(new_ts, stored_ts, candidate, entry.segment):
                return entry
        return None

    # -- batched matching ------------------------------------------------------

    #: Optional hook ``row_scale(rows)``: the scale of one candidate row — or,
    #: reducing over the last axis, of each row of a stack — stored next to
    #: the row with the representative and handed to :meth:`match_stats` as
    #: ``row_scales``.  None (the default) means the metric's limit does not
    #: depend on a per-row statistic, so no scale vector is maintained.
    row_scale = None

    @abstractmethod
    def match_stats(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Threshold-independent per-row match statistics.

        Returns ``(stat, base)`` such that candidate row ``i`` matches the
        probe ``vector`` at threshold ``t`` iff ``stat[i] <= t * base[i]``
        (``base is None`` means a unit base: ``stat[i] <= t``).

        ``matrix`` holds one candidate feature vector per row, in insertion
        order, all built by :meth:`build_vector`; ``row_scales`` carries the
        cached :attr:`row_scale` of each row when the metric declares the
        hook.  Implementations evaluate every row in one NumPy broadcast
        using only row-wise operations and must reproduce :meth:`similar`'s
        decision for each row exactly, so batched and scanned reductions stay
        byte-identical.  Four hard requirements let the reducer's step
        (:func:`~repro.core.reducer.step_families`) resolve many probes per
        call and share a key's rows among the thresholds of one kernel:

        * the result must not depend on :attr:`threshold` (only the final
          ``stat <= t * base`` comparison does);
        * row ``i``'s results must not depend on the other rows;
        * the reduction runs over the *last* axis, so a stack of probes
          shaped ``(p, 1, n)`` broadcasts against ``matrix`` to ``(p, rows)``
          results whose row ``k`` is bitwise the 1-D call on probe ``k``;
        * probe and row are interchangeable: ``match_stats(matrix[j], probes,
          probe_scales)`` is bitwise column ``j`` of that result.

        ``TestBroadcastKernels`` holds every shipped kernel to the last two.
        """
