"""End-to-end integration tests: simulate → segment → reduce → reconstruct → analyze.

These tests exercise the full pipeline on scaled-down versions of the paper's
workloads and check the *qualitative* findings the paper reports, which is the
level at which this reproduction claims fidelity.
"""

import numpy as np
import pytest

from repro.analysis.expert import analyze
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reconstruct import reconstruct
from repro.core.reducer import reduce_trace
from repro.benchmarks_ats import dyn_load_balance, interference, late_sender
from repro.evaluation.runner import PreparedWorkload, evaluate_method
from repro.sweep3d import sweep3d_8p


@pytest.fixture(scope="module")
def late_sender_prepared():
    return PreparedWorkload.from_workload(late_sender(nprocs=4, iterations=20, seed=11))


@pytest.fixture(scope="module")
def dynlb_prepared():
    return PreparedWorkload.from_workload(
        dyn_load_balance(nprocs=4, iterations=24, rebalance_period=8, drift=80.0, seed=11)
    )


@pytest.fixture(scope="module")
def sweep3d_prepared():
    return PreparedWorkload.from_workload(sweep3d_8p(scale=0.2, timesteps=2, seed=11))


class TestFullPipelineAllMethods:
    @pytest.mark.parametrize("method", METRIC_NAMES)
    def test_pipeline_runs_and_criteria_sane(self, late_sender_prepared, method):
        result = evaluate_method(late_sender_prepared, create_metric(method))
        assert 0.0 < result.pct_file_size <= 110.0
        assert 0.0 <= result.degree_of_matching <= 1.0
        assert result.approx_distance_us >= 0.0
        assert isinstance(result.trends_retained, bool)

    @pytest.mark.parametrize("method", METRIC_NAMES)
    def test_reconstruction_structure_for_every_method(self, dynlb_prepared, method):
        reduced = reduce_trace(dynlb_prepared.segmented, create_metric(method))
        rebuilt = reconstruct(reduced)
        assert rebuilt.num_events == dynlb_prepared.segmented.num_events
        analyze(rebuilt)  # must not raise


class TestPaperFindingsQualitative:
    def test_regular_benchmark_high_matching(self, late_sender_prepared):
        """Section 5.2.1: on the regular benchmarks most methods match > 90 %."""
        for method in ("absDiff", "manhattan", "euclidean", "chebyshev", "avgWave", "haarWave"):
            result = evaluate_method(late_sender_prepared, create_metric(method))
            assert result.degree_of_matching > 0.9, method

    def test_regular_benchmark_trends_retained_by_most_methods(self, late_sender_prepared):
        retained = {
            method: evaluate_method(late_sender_prepared, create_metric(method)).trends_retained
            for method in METRIC_NAMES
        }
        assert sum(retained.values()) >= 7, retained

    def test_iter_avg_best_file_size(self, dynlb_prepared):
        """Section 5.2.1: iter_avg gives the best-case (smallest) files."""
        sizes = {
            method: evaluate_method(dynlb_prepared, create_metric(method)).pct_file_size
            for method in METRIC_NAMES
        }
        assert sizes["iter_avg"] == min(sizes.values())

    def test_reldiff_strictest_at_equal_threshold(self, dynlb_prepared):
        """Section 3.2.1: because every measurement pair is judged in isolation,
        relDiff is one of the strictest criteria — at the same threshold it
        admits no more error (and usually much less) than the Minkowski
        distances, at the cost of a larger file."""
        reldiff = evaluate_method(dynlb_prepared, create_metric("relDiff", 0.2))
        chebyshev = evaluate_method(dynlb_prepared, create_metric("chebyshev", 0.2))
        iter_avg = evaluate_method(dynlb_prepared, create_metric("iter_avg"))
        assert reldiff.approx_distance_us <= chebyshev.approx_distance_us + 1e-9
        assert reldiff.approx_distance_us <= iter_avg.approx_distance_us + 1e-9
        assert reldiff.pct_file_size >= chebyshev.pct_file_size - 1e-9

    def test_iter_avg_smooths_time_varying_behaviour(self, dynlb_prepared):
        """Section 5.2.3: averaging washes out the dynamic imbalance; the
        per-iteration variation of the reconstructed alltoall waits collapses."""
        reduced = reduce_trace(dynlb_prepared.segmented, create_metric("iter_avg"))
        rebuilt = reconstruct(reduced)

        def iteration_durations(trace, rank):
            return np.asarray(
                [s.duration for s in trace.rank(rank).segments if s.context == "main.1"]
            )

        original_spread = iteration_durations(dynlb_prepared.segmented, 0).std()
        rebuilt_spread = iteration_durations(rebuilt, 0).std()
        assert rebuilt_spread < 0.2 * original_spread

    def test_interference_spikes_survive_strict_thresholds(self):
        """With a strict threshold, disturbed iterations are stored separately,
        so the reconstructed trace keeps the interference spikes."""
        workload = interference("NtoN", 1024, nprocs=4, iterations=30, seed=7)
        prepared = PreparedWorkload.from_workload(workload)
        reduced = reduce_trace(prepared.segmented, create_metric("absDiff", 100.0))
        rebuilt = reconstruct(reduced)
        original = prepared.segmented.rank(0)
        rebuilt_rank = rebuilt.rank(0)
        orig_max = max(s.duration for s in original.segments if s.context == "main.1")
        rebuilt_max = max(s.duration for s in rebuilt_rank.segments if s.context == "main.1")
        assert rebuilt_max == pytest.approx(orig_max, rel=0.2)

    def test_sweep3d_structure_limits_matching(self, sweep3d_prepared):
        """Section 5.2.1: sweep3d has more segment diversity (message parameters
        differ), so even a permissive method stores more distinct segments per
        rank than the simple benchmarks do."""
        sweep_reduced = reduce_trace(sweep3d_prepared.segmented, create_metric("iter_avg"))
        per_rank_stored = [r.n_stored for r in sweep_reduced.ranks]
        assert min(per_rank_stored) >= 5

    def test_iter_k_poor_on_sweep3d(self, sweep3d_prepared):
        """Section 5.2.1: iter_k keeps k copies of every distinct segment
        regardless of similarity, so its files are larger than avgWave's."""
        iter_k = evaluate_method(sweep3d_prepared, create_metric("iter_k"))
        avgwave = evaluate_method(sweep3d_prepared, create_metric("avgWave"))
        assert iter_k.pct_file_size > avgwave.pct_file_size

    def test_wavelets_retain_dynlb_imbalance_direction(self, dynlb_prepared):
        """Figure 7: avgWave keeps the Wait-at-NxN disparity between the lower
        and upper half of the ranks."""
        reduced = reduce_trace(dynlb_prepared.segmented, create_metric("avgWave"))
        rebuilt = reconstruct(reduced)
        report = analyze(rebuilt)
        waits = report.per_rank("Wait at NxN", "MPI_Alltoall")
        assert waits[:2].mean() > waits[2:].mean()


class TestCrossMethodConsistency:
    def test_all_methods_share_full_trace_artifacts(self, late_sender_prepared):
        results = [
            evaluate_method(late_sender_prepared, create_metric(m)) for m in ("relDiff", "iter_k")
        ]
        assert results[0].full_bytes == results[1].full_bytes
        assert results[0].n_segments == results[1].n_segments

    def test_results_deterministic(self, late_sender_prepared):
        a = evaluate_method(late_sender_prepared, create_metric("haarWave"))
        b = evaluate_method(late_sender_prepared, create_metric("haarWave"))
        assert a.pct_file_size == b.pct_file_size
        assert a.approx_distance_us == b.approx_distance_us
