"""Tests for the trace reducer (the paper's Section 3.1 algorithm)."""

import pytest

from repro.core.metrics import create_metric
from repro.core.metrics.distance import AbsDiff, RelDiff
from repro.core.metrics.iteration import IterAvg, IterK
from repro.core.reducer import TraceReducer, reduce_trace
from repro.trace.events import MpiCallInfo
from repro.trace.segments import Segment

from tests.conftest import make_segment


def _iteration_segments(values, context="main.1", start_gap=100.0):
    """Segments mimicking repeated loop iterations with slightly varying times."""
    segments = []
    t = 0.0
    for i, value in enumerate(values):
        seg = make_segment(
            context,
            [("do_work", 1.0, value), ("MPI_Barrier", value + 1.0, value + 10.0)],
            start=0.0,
            end=value + 11.0,
            index=i,
            mpi_for={"MPI_Barrier": MpiCallInfo(op="barrier")},
        ).shifted(t)
        segments.append(seg)
        t += start_gap
    return segments


class TestReducerBasics:
    def test_requires_metric(self):
        with pytest.raises(TypeError):
            TraceReducer("relDiff")

    def test_first_segment_always_stored(self):
        reduced = TraceReducer(RelDiff(1.0)).reduce_segments(_iteration_segments([50.0]))
        assert reduced.n_stored == 1
        assert reduced.n_segments == 1
        assert reduced.n_matches == 0
        assert reduced.n_possible_matches == 0

    def test_identical_segments_collapse_to_one(self):
        reduced = TraceReducer(RelDiff(0.5)).reduce_segments(_iteration_segments([50.0] * 5))
        assert reduced.n_stored == 1
        assert reduced.n_matches == 4
        assert reduced.n_possible_matches == 4
        assert len(reduced.execs) == 5

    def test_execs_record_absolute_start_times(self):
        segments = _iteration_segments([50.0] * 3, start_gap=200.0)
        reduced = TraceReducer(RelDiff(0.5)).reduce_segments(segments)
        starts = [start for _, start in reduced.execs]
        assert starts == [0.0, 200.0, 400.0]

    def test_stored_segments_are_normalised(self):
        segments = _iteration_segments([50.0] * 3, start_gap=200.0)
        reduced = TraceReducer(RelDiff(0.5)).reduce_segments(segments)
        stored = reduced.segments()[0]
        assert stored.start == 0.0
        assert stored.events[0].start == pytest.approx(1.0)

    def test_different_contexts_never_match(self):
        a = _iteration_segments([50.0], context="main.1")
        b = _iteration_segments([50.0], context="main.2")
        reduced = TraceReducer(RelDiff(1.0)).reduce_segments(a + b)
        assert reduced.n_stored == 2
        assert reduced.n_possible_matches == 0

    def test_different_event_counts_never_match(self):
        a = make_segment("c", [("f", 1.0, 2.0)], end=3.0)
        b = make_segment("c", [("f", 1.0, 2.0), ("g", 2.0, 3.0)], end=4.0)
        reduced = TraceReducer(RelDiff(1.0)).reduce_segments([a, b])
        assert reduced.n_stored == 2

    def test_different_mpi_parameters_never_match(self):
        a = make_segment("c", [("MPI_Send", 1.0, 2.0)], end=3.0,
                         mpi_for={"MPI_Send": MpiCallInfo(op="send", peer=1)})
        b = make_segment("c", [("MPI_Send", 1.0, 2.0)], end=3.0,
                         mpi_for={"MPI_Send": MpiCallInfo(op="send", peer=2)})
        reduced = TraceReducer(AbsDiff(1e9)).reduce_segments([a, b])
        assert reduced.n_stored == 2
        assert reduced.n_possible_matches == 0

    def test_dissimilar_measurements_stored_separately(self):
        reduced = TraceReducer(AbsDiff(10.0)).reduce_segments(
            _iteration_segments([50.0, 500.0, 51.0, 501.0])
        )
        assert reduced.n_stored == 2
        assert reduced.n_matches == 2
        assert reduced.n_possible_matches == 3

    def test_segment_ids_unique_and_sequential(self):
        reduced = TraceReducer(AbsDiff(10.0)).reduce_segments(
            _iteration_segments([50.0, 500.0, 5000.0])
        )
        assert list(range(reduced.n_stored)) == [0, 1, 2]

    def test_exec_matched_flags(self):
        reduced = TraceReducer(AbsDiff(10.0)).reduce_segments(
            _iteration_segments([50.0, 500.0, 51.0])
        )
        assert reduced.exec_columns()[2].tolist() == [False, False, True]


class TestIterationMethodsInReducer:
    def test_iter_avg_every_possible_match_matches(self):
        reduced = TraceReducer(IterAvg()).reduce_segments(
            _iteration_segments([50.0, 500.0, 5000.0, 70.0])
        )
        assert reduced.n_stored == 1
        assert reduced.n_matches == reduced.n_possible_matches == 3

    def test_iter_avg_stored_segment_holds_mean(self):
        reduced = TraceReducer(IterAvg()).reduce_segments(_iteration_segments([40.0, 60.0]))
        assert reduced.segments()[0].events[0].end == pytest.approx(50.0)
        assert reduced.counts.tolist() == [2]

    def test_iter_k_keeps_k_copies(self):
        reduced = TraceReducer(IterK(3)).reduce_segments(_iteration_segments([50.0] * 10))
        assert reduced.n_stored == 3
        assert reduced.n_matches == 7

    def test_iter_k_larger_than_executions_keeps_all(self):
        reduced = TraceReducer(IterK(100)).reduce_segments(_iteration_segments([50.0] * 10))
        assert reduced.n_stored == 10
        assert reduced.n_matches == 0


class TestWholeTraceReduction:
    def test_reduces_every_rank(self, small_late_sender_trace):
        reduced = reduce_trace(small_late_sender_trace, create_metric("avgWave"))
        assert reduced.nprocs == small_late_sender_trace.nprocs
        assert reduced.n_segments == small_late_sender_trace.num_segments
        assert reduced.method == "avgWave"
        assert reduced.threshold == 0.2

    def test_reduced_size_smaller_than_full(self, small_late_sender_trace):
        from repro.trace.io import segmented_trace_size_bytes

        reduced = reduce_trace(small_late_sender_trace, create_metric("avgWave"))
        assert reduced.size_bytes() < segmented_trace_size_bytes(small_late_sender_trace)

    def test_degree_of_matching_bounds(self, small_late_sender_trace):
        for name in ("relDiff", "iter_k", "iter_avg"):
            reduced = reduce_trace(small_late_sender_trace, create_metric(name))
            assert 0.0 <= reduced.degree_of_matching() <= 1.0

    def test_iter_avg_gives_best_case_size(self, small_late_sender_trace):
        """Section 5.2.1: iter_avg is the best case for the size category."""
        sizes = {}
        for name in ("relDiff", "absDiff", "manhattan", "iter_avg"):
            reduced = reduce_trace(small_late_sender_trace, create_metric(name))
            sizes[name] = reduced.size_bytes()
        assert sizes["iter_avg"] == min(sizes.values())

    def test_metric_state_not_shared_across_reductions(self, small_late_sender_trace):
        metric = create_metric("iter_avg")
        reducer = TraceReducer(metric)
        first = reducer.reduce(small_late_sender_trace)
        second = reducer.reduce(small_late_sender_trace)
        assert first.n_stored == second.n_stored
        assert first.size_bytes() == second.size_bytes()
