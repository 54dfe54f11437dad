"""Similarity metrics for segment matching.

The nine methods evaluated by the paper, grouped as in Section 3.2:

* pairwise distance methods: :class:`~repro.core.metrics.distance.RelDiff`,
  :class:`~repro.core.metrics.distance.AbsDiff`;
* Minkowski distances: :class:`~repro.core.metrics.minkowski.Manhattan`,
  :class:`~repro.core.metrics.minkowski.Euclidean`,
  :class:`~repro.core.metrics.minkowski.Chebyshev`;
* wavelet transforms: :class:`~repro.core.metrics.wavelet.AvgWave`,
  :class:`~repro.core.metrics.wavelet.HaarWave`;
* iteration-based methods: :class:`~repro.core.metrics.iteration.IterK`,
  :class:`~repro.core.metrics.iteration.IterAvg`.

Use :func:`create_metric` to instantiate a metric by its paper name, with the
paper's "best" threshold by default.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metrics.base import DistanceMetric, SimilarityMetric, check_threshold
from repro.core.metrics.distance import AbsDiff, RelDiff
from repro.core.metrics.iteration import IterAvg, IterK
from repro.core.metrics.minkowski import Chebyshev, Euclidean, Manhattan, MinkowskiMetric
from repro.core.metrics.wavelet import AvgWave, HaarWave, WaveletMetric

__all__ = [
    "SimilarityMetric",
    "DistanceMetric",
    "RelDiff",
    "AbsDiff",
    "Manhattan",
    "Euclidean",
    "Chebyshev",
    "MinkowskiMetric",
    "AvgWave",
    "HaarWave",
    "WaveletMetric",
    "IterK",
    "IterAvg",
    "METRIC_CLASSES",
    "METRIC_NAMES",
    "DEFAULT_THRESHOLDS",
    "THRESHOLD_STUDY",
    "create_metric",
]

#: Metric classes keyed by the names used throughout the paper.
METRIC_CLASSES: dict[str, type[SimilarityMetric]] = {
    "relDiff": RelDiff,
    "absDiff": AbsDiff,
    "manhattan": Manhattan,
    "euclidean": Euclidean,
    "chebyshev": Chebyshev,
    "avgWave": AvgWave,
    "haarWave": HaarWave,
    "iter_k": IterK,
    "iter_avg": IterAvg,
}

#: All metric names, in the order the paper lists them.
METRIC_NAMES: tuple[str, ...] = tuple(METRIC_CLASSES)

#: The "best" thresholds selected by the paper's threshold study (Section 5.1)
#: and used throughout the comparative study (Section 5.2).  ``iter_avg``
#: takes no threshold.
DEFAULT_THRESHOLDS: dict[str, Optional[float]] = {
    "relDiff": 0.8,
    "absDiff": 1000.0,
    "manhattan": 0.4,
    "euclidean": 0.2,
    "chebyshev": 0.2,
    "avgWave": 0.2,
    "haarWave": 0.2,
    "iter_k": 10,
    "iter_avg": None,
}

#: Threshold values swept in the paper's threshold study (Section 5.1).
THRESHOLD_STUDY: dict[str, tuple[float, ...]] = {
    "relDiff": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "absDiff": (1e1, 1e2, 1e3, 1e4, 1e5, 1e6),
    "manhattan": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "euclidean": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "chebyshev": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "avgWave": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "haarWave": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    "iter_k": (1, 10, 50, 100, 500, 1000),
}


def create_metric(name: str, threshold: Optional[float] = None) -> SimilarityMetric:
    """Instantiate a similarity metric by paper name.

    Parameters
    ----------
    name:
        One of :data:`METRIC_NAMES`.
    threshold:
        Method threshold; if omitted, the paper's best threshold
        (:data:`DEFAULT_THRESHOLDS`) is used.  ``iter_avg`` ignores it.
    """
    if name not in METRIC_CLASSES:
        raise ValueError(f"unknown similarity metric {name!r}; expected one of {METRIC_NAMES}")
    if threshold is not None:
        # Before any conversion: int(inf) overflows, int(nan) names no method.
        check_threshold(name, threshold)
    cls = METRIC_CLASSES[name]
    if name == "iter_avg":
        if threshold is not None:
            raise ValueError("iter_avg does not take a threshold")
        return cls()
    value = DEFAULT_THRESHOLDS[name] if threshold is None else threshold
    if name == "iter_k":
        return cls(int(value))
    return cls(float(value))
