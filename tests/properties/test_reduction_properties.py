"""Property-based tests for the reducer / reconstruction invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics.distance import AbsDiff, RelDiff
from repro.core.metrics.iteration import IterAvg, IterK
from repro.core.reconstruct import reconstruct_rank
from repro.core.reducer import TraceReducer
from repro.evaluation.approximation import timestamp_errors
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

from tests.properties.strategies import iteration_segments


def _as_trace(segments, name="t"):
    return SegmentedTrace(name=name, ranks=[SegmentedRankTrace(rank=0, segments=segments)])


metrics = st.one_of(
    st.builds(AbsDiff, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.builds(RelDiff, st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    st.builds(IterK, st.integers(min_value=1, max_value=20)),
    st.builds(IterAvg),
)


class TestReducerInvariants:
    @given(iteration_segments(), metrics)
    @settings(max_examples=60, deadline=None)
    def test_accounting_identities(self, segments, metric):
        reduced = TraceReducer(metric).reduce_segments(segments)
        assert reduced.n_segments == len(segments)
        assert len(reduced.execs) == len(segments)
        assert len(reduced.exec_columns()[2]) == len(segments)
        assert reduced.n_stored + reduced.n_matches == len(segments)
        assert reduced.n_matches <= reduced.n_possible_matches <= max(0, len(segments) - 1)
        assert 0 <= reduced.n_matches

    @given(iteration_segments(), metrics)
    @settings(max_examples=60, deadline=None)
    def test_exec_ids_reference_stored_segments(self, segments, metric):
        reduced = TraceReducer(metric).reduce_segments(segments)
        assert all(0 <= sid < reduced.n_stored for sid, _ in reduced.execs)

    @given(iteration_segments())
    @settings(max_examples=40, deadline=None)
    def test_absdiff_threshold_monotone_in_stored_count(self, segments):
        strict = TraceReducer(AbsDiff(1.0)).reduce_segments(segments)
        loose = TraceReducer(AbsDiff(1e6)).reduce_segments(segments)
        assert loose.n_stored <= strict.n_stored

    @given(iteration_segments(), st.integers(min_value=1, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_iter_k_stores_at_most_k_per_pattern(self, segments, k):
        reduced = TraceReducer(IterK(k)).reduce_segments(segments)
        assert reduced.n_stored == min(k, len(segments))

    @given(iteration_segments())
    @settings(max_examples=40, deadline=None)
    def test_iter_avg_stores_exactly_one_per_pattern(self, segments):
        reduced = TraceReducer(IterAvg()).reduce_segments(segments)
        assert reduced.n_stored == 1
        assert reduced.n_matches == reduced.n_possible_matches == len(segments) - 1

    @given(iteration_segments())
    @settings(max_examples=40, deadline=None)
    def test_iter_avg_representative_is_mean(self, segments):
        reduced = TraceReducer(IterAvg()).reduce_segments(segments)
        expected = np.mean(
            [np.asarray(s.relative_to_start().timestamps()) for s in segments], axis=0
        )
        mean = reduced.segments()[0].timestamps()
        np.testing.assert_allclose(mean, expected, rtol=1e-9, atol=1e-6)


class TestReconstructionInvariants:
    @given(iteration_segments(), metrics)
    @settings(max_examples=60, deadline=None)
    def test_structure_preserved(self, segments, metric):
        reduced = TraceReducer(metric).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        assert len(rebuilt.segments) == len(segments)
        for original, rebuilt_seg in zip(segments, rebuilt.segments):
            assert rebuilt_seg.context == original.context
            assert rebuilt_seg.start == pytest.approx(original.start)
            assert [e.name for e in rebuilt_seg.events] == [e.name for e in original.events]

    @given(iteration_segments(), metrics)
    @settings(max_examples=60, deadline=None)
    def test_timestamps_comparable_and_finite(self, segments, metric):
        reduced = TraceReducer(metric).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        errors = timestamp_errors(_as_trace(segments), _as_trace(rebuilt.segments))
        assert errors.size == _as_trace(segments).timestamps().size
        assert np.all(np.isfinite(errors))

    @given(iteration_segments(), st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_absdiff_bounds_reconstruction_error(self, segments, threshold):
        reduced = TraceReducer(AbsDiff(threshold)).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        errors = timestamp_errors(_as_trace(segments), _as_trace(rebuilt.segments))
        assert errors.max(initial=0.0) <= threshold + 1e-6

    @given(iteration_segments())
    @settings(max_examples=40, deadline=None)
    def test_zero_threshold_reconstruction_error_is_negligible(self, segments):
        reduced = TraceReducer(AbsDiff(0.0)).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        errors = timestamp_errors(_as_trace(segments), _as_trace(rebuilt.segments))
        assert errors.max(initial=0.0) <= 1e-9
