"""Randomized core-vs-scan equivalence: the columnar core must produce
byte-identical reduced traces to the scalar per-candidate scan for all 9
metrics, across thresholds and workload shapes.

The scalar reference (``TraceReducer.reduce_segments``, through
``tests.support.reference_reduce``) is the oracle: it is the paper's
algorithm as originally implemented, one candidate at a time.  The core
(``TraceReducer.reduce`` = ``reduce_frame`` over ``RankFrame.from_segments``)
replays the same reduction through bulk feature rows, per-key candidate
matrices, and the metrics' ``match_stats`` kernels — any
drift in vector layout, first-match ordering, limit math, or cache
invalidation shows up as a serialization mismatch here.
"""

import numpy as np
import pytest

from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reducer import TraceReducer
from repro.pipeline.engine import PipelineConfig, reduce_pipeline
from repro.trace.io import serialize_reduced_trace
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

from tests.conftest import make_segment
from tests.support import reference_reduce

#: Per-metric threshold sweep: the paper default plus a strict and a loose
#: setting, to cover high-, mid-, and low-match-rate regimes.
THRESHOLDS = {
    "relDiff": (0.01, 0.8, 1.0),
    "absDiff": (1.0, 1000.0, 1e6),
    "manhattan": (0.01, 0.4, 1.0),
    "euclidean": (0.001, 0.2, 1.0),
    "chebyshev": (0.001, 0.2, 1.0),
    "avgWave": (0.01, 0.2, 1.0),
    "haarWave": (0.01, 0.2, 1.0),
    "iter_k": (1, 10),
    "iter_avg": (None,),
}


def _random_rank(rng: np.random.Generator, rank: int, n_segments: int) -> SegmentedRankTrace:
    """A rank of jittered loop iterations over a few structural patterns."""
    patterns = [
        ("main.1", [("do_work", 1.0, 40.0), ("MPI_Barrier", 41.0, 50.0)], 55.0),
        ("main.2", [("exchange", 2.0, 12.0)], 20.0),
        ("main.2.1", [("solve", 0.5, 8.0), ("reduce", 9.0, 15.0), ("sync", 15.5, 18.0)], 19.0),
    ]
    segments = []
    t = 0.0
    for index in range(n_segments):
        context, events, end = patterns[int(rng.integers(len(patterns)))]
        # Multiplicative jitter keeps orderings valid while varying scale
        # enough that every threshold regime sees both matches and misses.
        scale = float(rng.choice([1.0, 1.0, 1.0, 1.5, 4.0])) * (
            1.0 + 0.1 * float(rng.standard_normal())
        )
        scale = max(scale, 0.05)
        jittered = [(name, s * scale, e * scale) for name, s, e in events]
        seg = make_segment(context, jittered, start=0.0, end=end * scale, index=index).shifted(t)
        segments.append(seg)
        t += end * scale + float(rng.uniform(1.0, 10.0))
    return SegmentedRankTrace(rank=rank, segments=segments)


def _random_trace(seed: int, nprocs: int = 3, n_segments: int = 60) -> SegmentedTrace:
    rng = np.random.default_rng(seed)
    return SegmentedTrace(
        name=f"random_{seed}",
        ranks=[_random_rank(rng, rank, n_segments) for rank in range(nprocs)],
    )


@pytest.fixture(scope="module", params=[11, 23])
def random_trace(request):
    return _random_trace(request.param)


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestBatchScanEquivalence:
    def test_byte_identical_across_thresholds(self, random_trace, metric_name):
        for threshold in THRESHOLDS[metric_name]:
            scanned = reference_reduce(create_metric(metric_name, threshold), random_trace)
            batched = TraceReducer(create_metric(metric_name, threshold)).reduce(random_trace)
            assert serialize_reduced_trace(batched) == serialize_reduced_trace(scanned), (
                f"{metric_name}({threshold}) batched output diverged from the scan"
            )

    def test_pipeline_default_path_matches_scan(self, random_trace, metric_name):
        scanned = reference_reduce(create_metric(metric_name), random_trace)
        piped = reduce_pipeline(
            random_trace, create_metric(metric_name), PipelineConfig(executor="serial")
        )
        assert serialize_reduced_trace(piped.reduced) == serialize_reduced_trace(scanned)


class TestIterAvgInvalidation:
    """iter_avg mutates stored timestamps: the scan through update_mean at
    every match, the core once per frame in occurrence rounds, so its averaged
    bytes equal the scan's."""

    def test_iter_avg_batch_equals_scan(self, random_trace):
        scanned = reference_reduce(create_metric("iter_avg"), random_trace)
        batched = TraceReducer(create_metric("iter_avg")).reduce(random_trace)
        assert serialize_reduced_trace(batched) == serialize_reduced_trace(scanned)
