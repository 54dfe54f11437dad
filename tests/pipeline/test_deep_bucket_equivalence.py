"""Columnar core vs scalar-scan byte identity on deep candidate buckets.

The randomized core-vs-scan suite (``test_match_equivalence``) runs on
shallow buckets.  This suite builds single-structure traces whose
representative stores grow to a few hundred rows (``medium``) and past 512
rows (``deep``) — an order of magnitude deeper than any paper workload's
bucket — and checks that the columnar core (``TraceReducer.reduce``: the
batch step's blocked broadcast calls and leader rounds, the per-row step's
dense probe) reproduces the paper's scalar scan byte for byte, from the
in-memory trace and from text/``.rpb`` files.

Timestamps are multiples of 0.25 µs, which the two-decimal text format
round-trips exactly, so every source holds identical float64 values and one
reference serialization covers them all.
"""

import numpy as np
import pytest

from repro.core.frametrace import FrameTrace
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.trace.events import MpiCallInfo
from repro.trace.io import serialize_reduced_trace, write_trace
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.trace import RankTrace, Trace

from tests.support import reference_reduce

#: (metric, threshold) grid for the medium workload: strict settings match
#: only exact duplicates, loose ones also accept near misses, so both the
#: match and store branches run at every bucket depth.
MEDIUM_CONFIGS = [
    ("relDiff", 0.01),
    ("relDiff", 0.9),
    ("absDiff", 0.1),
    ("absDiff", 5.0),
    ("manhattan", 0.01),
    ("manhattan", 0.5),
    ("euclidean", 0.001),
    ("euclidean", 0.5),
    ("chebyshev", 0.001),
    ("chebyshev", 0.5),
    ("avgWave", 0.01),
    ("avgWave", 0.5),
    ("haarWave", 0.01),
    ("haarWave", 0.5),
    ("iter_k", 10),
    ("iter_avg", None),
]

#: One strict config per metric: all nine run across every source.
ALL_METRICS = [
    ("relDiff", 0.01),
    ("absDiff", 0.1),
    ("manhattan", 0.01),
    ("euclidean", 0.001),
    ("chebyshev", 0.001),
    ("avgWave", 0.01),
    ("haarWave", 0.01),
    ("iter_k", 10),
    ("iter_avg", None),
]

#: Deep-workload configs: the seven distance metrics (the ones with a kernel).
DEEP_CONFIGS = ALL_METRICS[:7]


def _jittered_records(
    rng: np.random.Generator, rank: int, n_segments: int, pool_size: int
) -> list[TraceRecord]:
    """One rank of loop iterations drawn from a pool of jitter patterns.

    Drawing measurement patterns from a finite pool makes exact repeats occur
    at controllable depth — matches land deep inside the bucket, where the
    blocked broadcast calls must preserve first-match order.  All
    timestamps are multiples of 0.25 µs (see module docstring).
    """
    pool = rng.integers(1, 33, size=(pool_size, 7))
    records: list[TraceRecord] = []
    t = 0.0
    for _ in range(n_segments):
        steps = pool[int(rng.integers(pool_size))]
        records.append(TraceRecord(RecordKind.SEGMENT_BEGIN, rank, t, "main.1"))
        cursor = t
        for e in range(3):
            start = cursor + 0.25 * int(steps[2 * e])
            end = start + 0.25 * int(steps[2 * e + 1])
            name = f"loop_f{e}"
            mpi = MpiCallInfo(op="barrier") if e == 2 else None
            records.append(TraceRecord(RecordKind.ENTER, rank, start, name, mpi=mpi))
            records.append(TraceRecord(RecordKind.EXIT, rank, end, name))
            cursor = end
        seg_end = cursor + 0.25 * int(steps[6])
        records.append(TraceRecord(RecordKind.SEGMENT_END, rank, seg_end, "main.1"))
        t = seg_end + 0.25
    return records


def _pooled_trace(seed: int, n_segments: int, pool_size: int, name: str) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(
        name=name,
        ranks=[RankTrace(rank=0, records=_jittered_records(rng, 0, n_segments, pool_size))],
    )


@pytest.fixture(scope="module")
def medium_trace():
    # Pool of 192 patterns: the store grows to a few hundred rows.
    return _pooled_trace(seed=42, n_segments=360, pool_size=192, name="medium")


@pytest.fixture(scope="module")
def deep_trace():
    # Pool of 712 patterns over 912 segments: the store passes 512 rows.
    return _pooled_trace(seed=43, n_segments=912, pool_size=712, name="deep")


def _core_bytes(trace, metric_name, threshold):
    """Serialized product reduction: the columnar core over the source's frames."""
    segmented = trace.segmented() if isinstance(trace, Trace) else trace
    reducer = TraceReducer(create_metric(metric_name, threshold))
    return serialize_reduced_trace(reducer.reduce(segmented))


def _scan_bytes(trace, metric_name, threshold):
    """Serialized scalar reference: the paper's O(n²) per-candidate scan."""
    reduced = reference_reduce(create_metric(metric_name, threshold), trace.segmented())
    return serialize_reduced_trace(reduced)


class TestMediumBuckets:
    @pytest.mark.parametrize("metric_name,threshold", MEDIUM_CONFIGS)
    def test_core_equals_scan(self, medium_trace, metric_name, threshold):
        scanned = _scan_bytes(medium_trace, metric_name, threshold)
        assert _core_bytes(medium_trace, metric_name, threshold) == scanned

    def test_buckets_are_deep_enough(self, medium_trace):
        # Guard the fixture's premise: the store must outgrow 64 rows or this
        # suite silently degenerates into the shallow-bucket tests.
        reduced = TraceReducer(create_metric("euclidean", 0.001)).reduce(
            medium_trace.segmented()
        )
        assert reduced.n_stored > 64


class TestDeepBuckets:
    @pytest.mark.parametrize("metric_name,threshold", DEEP_CONFIGS)
    def test_columnar_core_equals_scalar_scan(self, deep_trace, metric_name, threshold):
        scanned = _scan_bytes(deep_trace, metric_name, threshold)
        assert _core_bytes(deep_trace, metric_name, threshold) == scanned

    def test_store_outgrows_512_rows(self, deep_trace):
        reduced = TraceReducer(create_metric("euclidean", 0.001)).reduce(
            deep_trace.segmented()
        )
        assert reduced.n_stored >= 512


class TestAcrossSources:
    @pytest.fixture(scope="class")
    def medium_sources(self, medium_trace, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep_bucket_sources")
        text = root / "medium.txt"
        rpb = root / "medium.rpb"
        write_trace(medium_trace, text)
        write_trace(medium_trace, rpb)
        return {
            "memory": medium_trace.segmented(),
            "text": FrameTrace.from_file(text),
            "rpb": FrameTrace.from_file(rpb),
        }

    @pytest.mark.parametrize("metric_name,threshold", ALL_METRICS)
    def test_all_sources_byte_identical(
        self, medium_trace, medium_sources, metric_name, threshold
    ):
        reference = _scan_bytes(medium_trace, metric_name, threshold)
        for label, source in medium_sources.items():
            got = _core_bytes(source, metric_name, threshold)
            assert got == reference, f"{label} source diverged"
