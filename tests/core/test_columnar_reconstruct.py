"""The columnar reconstruction against the object replay it replaced.

``repro.core.reconstruct`` gathers frame columns; the reference in
``tests/criteria_reference.py`` shifts the stored representative's
``Segment``/``Event`` objects once per execution.  They share no code, and
every comparison here is exact (``array_equal`` / ``==``): the columnar add is
the same IEEE-754 operation the object shift performs.
"""

import numpy as np
import pytest

from repro.core.candidates import RepresentativeStore
from repro.core.frames import RankFrame
from repro.core.frametrace import FrameRankTrace, FrameTrace
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.metrics.distance import AbsDiff
from repro.core.metrics.iteration import IterK
from repro.core.reconstruct import reconstruct, reconstruct_rank
from repro.core.reduced import ReducedRankTrace
from repro.core.reducer import TraceReducer, reduce_trace
from repro.experiments.config import ALL_WORKLOAD_NAMES, build_workload
from repro.trace.events import MpiCallInfo

from tests.conftest import make_segment
from tests.core.test_reducer import _iteration_segments
from tests.criteria_reference import reference_reconstruct, reference_reconstruct_rank

FILLS = ("last", "mean")


def assert_same_rank(rebuilt: FrameRankTrace, reference) -> None:
    """Bit-identical timestamps first (no objects built), then equal objects."""
    assert rebuilt.rank == reference.rank
    assert len(rebuilt) == len(reference)
    assert np.array_equal(rebuilt.timestamps(), reference.timestamps(), equal_nan=True)
    assert rebuilt.frame.materialized == 0
    assert rebuilt.segments == reference.segments
    assert list(rebuilt.events()) == list(reference.events())


@pytest.mark.parametrize("workload", ALL_WORKLOAD_NAMES)
def test_every_workload_method_and_fill_policy(workload):
    trace = build_workload(workload, "smoke").run_segmented()
    for method in METRIC_NAMES:
        reduced = reduce_trace(trace, create_metric(method))
        for fill in FILLS:
            rebuilt = reconstruct(reduced, iter_k_fill=fill)
            reference = reference_reconstruct(reduced, iter_k_fill=fill)
            assert isinstance(rebuilt, FrameTrace)
            assert rebuilt.name == reference.name
            assert rebuilt.nprocs == reference.nprocs
            assert rebuilt.duration() == reference.duration()
            for rebuilt_rank, reference_rank in zip(rebuilt.ranks, reference.ranks):
                assert_same_rank(rebuilt_rank, reference_rank)


class TestRowBackedRepresentatives:
    """A reduction's representatives are rows of its frame: the replay gathers
    them from the columns (``RankFrame.take``) and builds no object."""

    def segments(self):
        return build_workload("sweep3d_8p", "smoke").run_segmented().ranks[3].segments

    @pytest.mark.parametrize("method", [m for m in METRIC_NAMES if not m.startswith("iter")])
    def test_replay_reads_the_frame_and_materializes_nothing(self, method):
        frame = RankFrame.from_segments(3, self.segments())
        reduced = TraceReducer(create_metric(method)).reduce_frame(frame)
        rebuilt = reconstruct_rank(reduced)
        assert frame.materialized == 0
        assert [chunk_frame for chunk_frame, _ in reduced.chunks] == [frame]
        assert_same_rank(rebuilt, reference_reconstruct_rank(reduced))

    def test_mean_fill_reads_the_rows_too(self):
        frame = RankFrame.from_segments(3, self.segments())
        reduced = TraceReducer(create_metric("euclidean")).reduce_frame(frame)
        rebuilt = reconstruct_rank(reduced, iter_k_fill="mean")
        assert frame.materialized == 0
        assert_same_rank(rebuilt, reference_reconstruct_rank(reduced, iter_k_fill="mean"))

    @pytest.mark.parametrize("own_first", [False, True])
    def test_rank_continued_over_two_frames(self, own_first):
        """A session's rank: representatives of two chunk frames (string tables of
        their own), the first chunk's possibly owned already (a flush in between)."""
        segments = self.segments()
        cut = len(segments) // 2
        reducer, store = TraceReducer(create_metric("euclidean", 0.001)), RepresentativeStore()
        first, second = (
            RankFrame.from_segments(3, part) for part in (segments[:cut], segments[cut:])
        )
        reduced = reducer.reduce_frame(first, store=store)
        if own_first:
            reduced.own()
            assert reduced.chunks[0][0] is not first
        reducer.reduce_frame(second, store=store, into=reduced)
        assert reduced.chunks[-1][0] is second
        whole = reducer.reduce_frame(RankFrame.from_segments(3, segments))
        assert_same_rank(reconstruct_rank(reduced), reference_reconstruct_rank(whole))


class TestHandBuilt:
    def test_mean_fill_replays_mean_rows_only_for_matched_executions(self):
        segments = _iteration_segments([50.0, 60.0, 70.0, 80.0, 90.0])
        reduced = TraceReducer(IterK(2)).reduce_segments(segments)
        assert reduced.exec_columns()[2].tolist() == [False, False, True, True, True]
        for fill in FILLS:
            assert_same_rank(
                reconstruct_rank(reduced, iter_k_fill=fill),
                reference_reconstruct_rank(reduced, iter_k_fill=fill),
            )

    def test_representative_with_nonzero_start_and_mpi_call(self):
        """Hand-built reduced rank: a chunk row that starts at 0.25 is read normalised."""
        info = MpiCallInfo(op="send", peer=1, tag=3, nbytes=8)
        first = make_segment(
            "main.1", [("f", 0.5, 1.25), ("MPI_Send", 1.5, 2.75)], start=0.25, end=3.0,
            mpi_for={"MPI_Send": info},
        )
        second = make_segment("main.2", [], start=0.0, end=0.1)
        reduced = ReducedRankTrace(
            rank=5,
            chunks=[(RankFrame.from_segments(5, [first, second]), np.arange(2))],
            counts=np.array([3, 1]),
            exec_chunks=[
                (
                    np.array([0, 1, 0, 0]),
                    np.array([0.1, 1e9 + 0.3, 3.3, -2.7]),
                    np.array([False, False, True, True]),
                )
            ],
            n_segments=4,
        )
        for fill in FILLS:
            rebuilt = reconstruct_rank(reduced, iter_k_fill=fill)
            assert_same_rank(rebuilt, reference_reconstruct_rank(reduced, iter_k_fill=fill))
            assert {event.rank for event in rebuilt.events()} == {5}
            assert [segment.index for segment in rebuilt.segments] == [0, 1, 2, 3]

    def test_rank_without_executions(self):
        reduced = ReducedRankTrace(rank=2)
        for fill in FILLS:
            rebuilt = reconstruct_rank(reduced, iter_k_fill=fill)
            assert_same_rank(rebuilt, reference_reconstruct_rank(reduced, iter_k_fill=fill))
            assert rebuilt.num_events == 0 and rebuilt.segments == []

    def test_unknown_segment_id_message(self):
        segments = _iteration_segments([50.0, 51.0])
        reduced = TraceReducer(AbsDiff(100.0)).reduce_segments(segments)
        ids, starts, matched = reduced.exec_columns()
        reduced.exec_chunks = [
            (
                np.insert(ids, [1, 2], [99, 98]),
                np.insert(starts, [1, 2], [1000.0, 2000.0]),
                np.insert(matched, [1, 2], True),
            )
        ]
        with pytest.raises(KeyError) as reference_error:
            reference_reconstruct_rank(reduced)
        with pytest.raises(KeyError) as error:
            reconstruct_rank(reduced)
        assert error.value.args == reference_error.value.args
        assert error.value.args == (
            "execution entry references unknown segment id 99 on rank 0",
        )

    def test_invalid_fill_policy_message(self):
        reduced = TraceReducer(AbsDiff(1.0)).reduce_segments(_iteration_segments([50.0]))
        with pytest.raises(ValueError, match="iter_k_fill must be 'last' or 'mean', got 'median'"):
            reconstruct_rank(reduced, iter_k_fill="median")
