"""FrameTrace: the SegmentedTrace read protocol over columnar frames.

Every reader the evaluation criteria use — flat timestamps, absolute event
iteration, duration, the absolute-segment fallback — must reproduce the
segment-backed trace bit for bit, because the criteria compare traces
element-wise and the reducers' outputs are byte-compared across sources.
"""

import numpy as np
import pytest

from repro.benchmarks_ats import dyn_load_balance, late_sender
from repro.core.frames import RankFrame
from repro.core.frametrace import FrameRankTrace, FrameTrace
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reducer import TraceReducer
from repro.trace.io import serialize_reduced_trace, write_trace

from tests.conftest import stored_view
from tests.support import reference_reduce


@pytest.fixture(scope="module")
def segmented():
    return late_sender(nprocs=4, iterations=6, seed=11).run().segmented()


@pytest.fixture(scope="module")
def frame_trace(segmented):
    return FrameTrace.from_frames(
        segmented.name,
        (
            RankFrame.from_segments(rank.rank, rank.segments)
            for rank in segmented.ranks
        ),
    )


class TestReadProtocol:
    def test_shape_properties(self, segmented, frame_trace):
        assert frame_trace.nprocs == segmented.nprocs
        assert frame_trace.num_segments == segmented.num_segments
        assert frame_trace.num_events == segmented.num_events
        for rank, frame_rank in zip(segmented.ranks, frame_trace.ranks):
            assert frame_rank.rank == rank.rank
            assert len(frame_rank) == len(rank)
            assert frame_rank.num_events == rank.num_events

    def test_timestamps_bit_identical(self, segmented, frame_trace):
        # The approximation-distance criterion compares these element-wise,
        # so the vectorized layout must place every value exactly where the
        # segment walk does.
        for rank, frame_rank in zip(segmented.ranks, frame_trace.ranks):
            a = rank.timestamps()
            b = frame_rank.timestamps()
            assert a.shape == b.shape
            assert np.array_equal(a, b)
        assert np.array_equal(segmented.timestamps(), frame_trace.timestamps())

    def test_events_absolute_and_ordered(self, segmented, frame_trace):
        for rank, frame_rank in zip(segmented.ranks, frame_trace.ranks):
            expected = list(rank.events())
            got = list(frame_rank.events())
            assert got == expected

    def test_duration(self, segmented, frame_trace):
        assert frame_trace.duration() == segmented.duration()

    def test_rank_lookup_bounds(self, frame_trace):
        assert frame_trace.rank(0) is frame_trace.ranks[0]
        with pytest.raises(IndexError):
            frame_trace.rank(frame_trace.nprocs)

    def test_segments_fallback_is_absolute_and_counted(self, segmented, frame_trace):
        frame_rank = FrameRankTrace(
            RankFrame.from_segments(
                segmented.ranks[0].rank, segmented.ranks[0].segments
            )
        )
        before = frame_rank.frame.materialized
        rebuilt = frame_rank.segments
        assert rebuilt == segmented.ranks[0].segments
        assert frame_rank.frame.materialized == before + len(rebuilt)
        # Cached: a second access is free.
        assert frame_rank.segments is rebuilt
        assert frame_rank.frame.materialized == before + len(rebuilt)

    def test_empty_rank(self):
        trace = FrameTrace.from_frames("empty", [RankFrame.from_segments(0, [])])
        assert trace.num_segments == 0
        assert trace.duration() == 0.0
        assert trace.timestamps().size == 0
        assert list(trace.ranks[0].events()) == []


class TestReduction:
    @pytest.mark.parametrize("metric_name", METRIC_NAMES)
    def test_reduce_byte_identical(self, segmented, frame_trace, metric_name):
        reference = serialize_reduced_trace(
            reference_reduce(create_metric(metric_name), segmented)
        )
        # Frame-backed ranks hand their frame over; segment-list ranks are adapted.
        for trace in (frame_trace, segmented):
            reduced = TraceReducer(create_metric(metric_name)).reduce(trace)
            assert serialize_reduced_trace(reduced) == reference

    def test_distance_reduction_stays_lazy(self, segmented):
        trace = FrameTrace.from_frames(
            segmented.name,
            (
                RankFrame.from_segments(rank.rank, rank.segments)
                for rank in segmented.ranks
            ),
        )
        reduced = TraceReducer(create_metric("euclidean")).reduce(trace)
        assert 0 < reduced.n_stored < trace.num_segments
        assert trace.materialized == 0  # representatives stay rows of their frames
        reduced.size_bytes()
        assert trace.materialized == 0  # and are sized from the columns
        expected = reference_reduce(create_metric("euclidean"), segmented)
        assert [stored_view(rank) for rank in reduced.ranks] == [
            stored_view(rank) for rank in expected.ranks
        ]
        assert trace.materialized == reduced.n_stored  # reading a ``Segment`` is what builds one

    def test_iteration_reduction_materializes_nothing(self, frame_trace):
        before = frame_trace.materialized
        TraceReducer(create_metric("iter_k")).reduce(frame_trace)
        assert frame_trace.materialized == before  # iter_k decides on the bucket's length
        reduced = TraceReducer(create_metric("iter_avg")).reduce(frame_trace)
        # iter_avg writes its means into rows of its own.
        assert frame_trace.materialized == before
        assert 0 < sum(int((rank.counts > 1).sum()) for rank in reduced.ranks)


class TestFromFile:
    @pytest.mark.parametrize("suffix", [".txt", ".rpb"])
    def test_round_trip(self, tmp_path, suffix):
        raw = dyn_load_balance(nprocs=3, iterations=4, seed=7).run()
        path = tmp_path / f"trace{suffix}"
        write_trace(raw, path)
        from repro.trace.io import read_trace

        expected = read_trace(path).segmented()
        trace = FrameTrace.from_file(path)
        assert trace.name == path.stem
        assert trace.nprocs == expected.nprocs
        assert np.array_equal(trace.timestamps(), expected.timestamps())
        for rank, frame_rank in zip(expected.ranks, trace.ranks):
            assert list(frame_rank.events()) == list(rank.events())
