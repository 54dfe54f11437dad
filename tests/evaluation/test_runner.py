"""Tests for the study runner."""

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.evaluation import runner
from repro.evaluation.runner import (
    EvaluationResult,
    PreparedWorkload,
    evaluate_method,
)
from repro.pipeline.engine import sweep_pipeline
from repro.sweep.plan import SweepPlan
from repro.trace.io import write_trace


@pytest.fixture(scope="module")
def prepared():
    return PreparedWorkload.from_workload(late_sender(nprocs=4, iterations=8, seed=2))


class TestPreparedWorkload:
    def test_artifacts_present(self, prepared):
        assert prepared.name == "late_sender"
        assert prepared.full_bytes > 0
        assert prepared.full_report.nprocs == 4
        assert prepared.segmented.num_segments > 0

    def test_evaluation_never_rebuilds_segments_to_reduce(self):
        """A simulated workload is adapted to frames once; a method and its four
        criteria build no segment, but for one per representative iter_avg averages."""
        fresh = PreparedWorkload.from_workload(late_sender(nprocs=4, iterations=8, seed=2))
        assert fresh.segmented.materialized == 0
        result = evaluate_method(fresh, create_metric("euclidean"))
        assert fresh.segmented.materialized == 0
        assert 0 < result.n_stored < result.n_segments
        evaluate_method(fresh, create_metric("iter_k"))
        assert fresh.segmented.materialized == 0
        averaged = TraceReducer(create_metric("iter_avg")).reduce(fresh.segmented)
        assert fresh.segmented.materialized == 0
        assert 0 < sum(int((rank.counts > 1).sum()) for rank in averaged.ranks)


class TestEvaluateMethod:
    def test_result_fields(self, prepared):
        result = evaluate_method(prepared, create_metric("avgWave"))
        assert isinstance(result, EvaluationResult)
        assert result.workload == "late_sender"
        assert result.method == "avgWave"
        assert result.threshold == 0.2
        assert 0.0 < result.pct_file_size <= 100.0
        assert 0.0 <= result.degree_of_matching <= 1.0
        assert result.approx_distance_us >= 0.0
        assert result.reduced_bytes < result.full_bytes
        assert result.n_stored <= result.n_segments

    def test_trend_comparison_attached(self, prepared):
        result = evaluate_method(prepared, create_metric("relDiff"))
        assert result.trend_comparison is not None
        assert result.trend_comparison.retained == result.trends_retained

    def test_comparison_can_be_dropped(self, prepared):
        result = evaluate_method(prepared, create_metric("relDiff"), keep_comparison=False)
        assert result.trend_comparison is None

    def test_as_row_length(self, prepared):
        row = evaluate_method(prepared, create_metric("iter_avg")).as_row()
        assert len(row) == 7
        assert row[2] == "-"


class TestCriteriaStayColumnar:
    def test_grid_builds_no_segment_for_any_criterion(self, tmp_path, monkeypatch):
        """Twelve configs, four criteria each: not one ``Segment`` or ``Event`` is built.

        The sweep decodes the file itself, so the prepared trace serves the
        criteria only; every reconstructed trace is captured on its way out
        of ``reconstruct``.
        """
        path = tmp_path / "late_sender.rpb"
        write_trace(late_sender(nprocs=4, iterations=8, seed=2).run(), path)
        prepared = PreparedWorkload.from_file(path)
        reconstructed = []

        def capturing(reduced):
            reconstructed.append(reconstruct(reduced))
            return reconstructed[-1]

        reconstruct = runner.reconstruct
        monkeypatch.setattr(runner, "reconstruct", capturing)
        plan = SweepPlan.from_grid(("euclidean", "manhattan"))
        results = sweep_pipeline(path, plan, name=prepared.name).evaluation_results(prepared)

        assert len(results) == len(reconstructed) == 12
        assert prepared.segmented.materialized == 0
        assert [trace.materialized for trace in reconstructed] == [0] * 12
        assert any(result.approx_distance_us > 0.0 for result in results)

    def test_original_timestamps_are_laid_out_once(self, prepared):
        """The distance criterion's original side is memoised on the frame-backed rank."""
        rank = prepared.segmented.ranks[1]
        first = rank.timestamps()
        evaluate_method(prepared, create_metric("relDiff"))
        assert rank.timestamps() is first
        assert not first.flags.writeable
