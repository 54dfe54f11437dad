"""Tests for reconstruction of approximate full traces."""

import numpy as np
import pytest

from repro.core.metrics import create_metric
from repro.core.metrics.distance import AbsDiff
from repro.core.metrics.iteration import IterAvg, IterK
from repro.core.reconstruct import reconstruct, reconstruct_rank
from repro.core.reducer import TraceReducer, reduce_trace
from repro.evaluation.approximation import timestamp_errors
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

from tests.core.test_reducer import _iteration_segments


def _as_trace(segments, rank=0, name="t"):
    return SegmentedTrace(name=name, ranks=[SegmentedRankTrace(rank=rank, segments=segments)])


class TestStructurePreservation:
    def test_same_segment_and_event_counts(self, small_late_sender_trace):
        reduced = reduce_trace(small_late_sender_trace, create_metric("avgWave"))
        rebuilt = reconstruct(reduced)
        assert rebuilt.num_segments == small_late_sender_trace.num_segments
        assert rebuilt.num_events == small_late_sender_trace.num_events

    def test_contexts_and_names_preserved(self, small_late_sender_trace):
        reduced = reduce_trace(small_late_sender_trace, create_metric("euclidean"))
        rebuilt = reconstruct(reduced)
        original_rank = small_late_sender_trace.rank(1)
        rebuilt_rank = rebuilt.rank(1)
        assert [s.context for s in rebuilt_rank.segments] == [
            s.context for s in original_rank.segments
        ]
        assert [e.name for e in rebuilt_rank.events()] == [e.name for e in original_rank.events()]

    def test_mpi_parameters_preserved(self, small_late_sender_trace):
        reduced = reduce_trace(small_late_sender_trace, create_metric("iter_avg"))
        rebuilt = reconstruct(reduced)
        original = [e.mpi for e in small_late_sender_trace.rank(0).events() if e.mpi]
        rebuilt_mpi = [e.mpi for e in rebuilt.rank(0).events() if e.mpi]
        assert original == rebuilt_mpi

    def test_rank_attribute_rewritten(self, small_late_sender_trace):
        reduced = reduce_trace(small_late_sender_trace, create_metric("iter_avg"))
        rebuilt = reconstruct(reduced)
        assert all(e.rank == 2 for e in rebuilt.rank(2).events())


class TestAccuracy:
    def test_exact_when_nothing_matched(self):
        """If every segment is stored (no matches), reconstruction is lossless."""
        segments = _iteration_segments([50.0, 500.0, 5000.0])
        reduced = TraceReducer(AbsDiff(0.0)).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        original = _as_trace(segments).rank(0)
        np.testing.assert_allclose(rebuilt.timestamps(), original.timestamps())

    def test_segment_starts_always_exact(self, small_late_sender_trace):
        """Execution start times are recorded exactly in segmentExecs."""
        reduced = reduce_trace(small_late_sender_trace, create_metric("iter_avg"))
        rebuilt = reconstruct(reduced)
        for orig_rank, new_rank in zip(small_late_sender_trace.ranks, rebuilt.ranks):
            np.testing.assert_allclose(
                [s.start for s in new_rank.segments], [s.start for s in orig_rank.segments]
            )

    def test_matched_segments_use_representative_measurements(self):
        segments = _iteration_segments([50.0, 58.0])
        reduced = TraceReducer(AbsDiff(10.0)).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        # the second execution re-uses the first segment's measurements
        assert rebuilt.segments[1].events[0].end == pytest.approx(
            rebuilt.segments[1].start + 50.0
        )

    def test_error_bounded_by_threshold_for_absdiff(self):
        """absDiff guarantees every stored-vs-actual timestamp differs by at most
        the threshold, so reconstruction error per timestamp is bounded too."""
        values = [50.0, 54.0, 58.0, 52.0, 56.0]
        threshold = 10.0
        segments = _iteration_segments(values)
        reduced = TraceReducer(AbsDiff(threshold)).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        errors = timestamp_errors(_as_trace(segments), _as_trace(rebuilt.segments))
        assert errors.max() <= threshold + 1e-9


class TestIterKFillPolicies:
    def _reduced(self):
        # k = 2, five executions: the last three are filled in
        segments = _iteration_segments([50.0, 60.0, 70.0, 80.0, 90.0])
        return segments, TraceReducer(IterK(2)).reduce_segments(segments)

    def test_last_fill_uses_last_collected_copy(self):
        segments, reduced = self._reduced()
        rebuilt = reconstruct_rank(reduced, iter_k_fill="last")
        # executions 2..4 replay the second collected copy (value 60)
        assert rebuilt.segments[4].events[0].end == pytest.approx(
            rebuilt.segments[4].start + 60.0
        )

    def test_mean_fill_uses_mean_of_collected_copies(self):
        segments, reduced = self._reduced()
        rebuilt = reconstruct_rank(reduced, iter_k_fill="mean")
        assert rebuilt.segments[4].events[0].end == pytest.approx(
            rebuilt.segments[4].start + 55.0
        )

    def test_collected_copies_always_replayed_exactly(self):
        segments, reduced = self._reduced()
        for policy in ("last", "mean"):
            rebuilt = reconstruct_rank(reduced, iter_k_fill=policy)
            assert rebuilt.segments[0].events[0].end == pytest.approx(
                rebuilt.segments[0].start + 50.0
            )
            assert rebuilt.segments[1].events[0].end == pytest.approx(
                rebuilt.segments[1].start + 60.0
            )

    def test_invalid_policy_rejected(self):
        _, reduced = self._reduced()
        with pytest.raises(ValueError):
            reconstruct_rank(reduced, iter_k_fill="median")


class TestIterAvgReconstruction:
    def test_reconstruction_uses_averaged_measurements(self):
        segments = _iteration_segments([40.0, 60.0])
        reduced = TraceReducer(IterAvg()).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        for segment in rebuilt.segments:
            assert segment.events[0].end == pytest.approx(segment.start + 50.0)


class TestErrors:
    def test_unknown_segment_id_rejected(self):
        segments = _iteration_segments([50.0])
        reduced = TraceReducer(AbsDiff(1.0)).reduce_segments(segments)
        reduced.exec_chunks.append((np.array([99]), np.array([1000.0]), np.array([True])))
        with pytest.raises(KeyError):
            reconstruct_rank(reduced)
