"""Tests for the experiment drivers (comparative study, threshold study, trend tables)."""

import pytest

from repro.analysis.patterns import EXECUTION_TIME, WAIT_AT_NXN
from repro.core.metrics import METRIC_NAMES
from repro.experiments.comparative import (
    comparative_study,
    fig5_size_and_matching,
    fig6_approximation_distance,
    fig7_dyn_load_balance_trends,
    trend_chart_for_methods,
)
from repro.experiments.formatting import (
    format_comparative_results,
    format_rows,
    format_trend_table,
)
from repro.experiments.thresholds import threshold_study, threshold_study_rows
from repro.experiments.trend_tables import TREND_TABLE_INDEX, trend_table

SMALL_WORKLOADS = ("late_sender", "dyn_load_balance")
FEW_METHODS = ("relDiff", "avgWave", "iter_avg")


class TestComparativeStudy:
    def test_result_grid(self):
        results = comparative_study(SMALL_WORKLOADS, FEW_METHODS, scale="smoke")
        assert len(results) == len(SMALL_WORKLOADS) * len(FEW_METHODS)
        assert {r.workload for r in results} == set(SMALL_WORKLOADS)
        assert {r.method for r in results} == set(FEW_METHODS)

    def test_fig5_rows(self):
        rows = fig5_size_and_matching(SMALL_WORKLOADS, FEW_METHODS, scale="smoke")
        assert all(set(r) == {"workload", "method", "pct_file_size", "degree_of_matching"} for r in rows)

    def test_fig6_rows(self):
        rows = fig6_approximation_distance(("late_sender",), FEW_METHODS, scale="smoke")
        assert all("approx_distance_us" in r for r in rows)

    def test_default_methods_are_all_nine(self):
        rows = fig5_size_and_matching(("late_sender",), scale="smoke")
        assert {r["method"] for r in rows} == set(METRIC_NAMES)

    def test_formatting(self):
        results = comparative_study(("late_sender",), FEW_METHODS, scale="smoke")
        text = format_comparative_results(results, title="fig5")
        assert "fig5" in text and "late_sender" in text


class TestTrendCharts:
    def test_fig7_contains_full_trace_and_methods(self):
        charts = fig7_dyn_load_balance_trends(methods=("iter_avg",), scale="smoke")
        assert set(charts) == {"full trace", "iter_avg"}
        assert "MPI_Alltoall" in charts["full trace"]

    def test_generic_chart_driver(self):
        charts = trend_chart_for_methods(
            "late_sender",
            [("Late Sender", "MPI_Recv"), (EXECUTION_TIME, "do_work")],
            methods=("avgWave",),
            scale="smoke",
        )
        assert "MPI_Recv" in charts["avgWave"]


class TestThresholdStudy:
    def test_shape(self):
        study = threshold_study(
            "absDiff", workloads=("late_sender",), thresholds=(10.0, 1e5), scale="smoke"
        )
        assert set(study) == {"late_sender"}
        assert [r.threshold for r in study["late_sender"]] == [10.0, 1e5]

    def test_looser_threshold_not_larger_file(self):
        study = threshold_study(
            "absDiff", workloads=("dyn_load_balance",), thresholds=(1.0, 1e6), scale="smoke"
        )
        results = study["dyn_load_balance"]
        assert results[1].pct_file_size <= results[0].pct_file_size + 1e-9

    def test_rows_flat_format(self):
        rows = threshold_study_rows(
            "relDiff", workloads=("late_sender",), thresholds=(0.1, 0.8), scale="smoke"
        )
        assert len(rows) == 2
        assert set(rows[0]) == {
            "workload",
            "method",
            "threshold",
            "pct_file_size",
            "approx_distance_us",
            "degree_of_matching",
        }
        assert format_rows(rows)

    def test_iter_avg_rejected(self):
        with pytest.raises(ValueError):
            threshold_study("iter_avg", scale="smoke")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            threshold_study("dtw", scale="smoke")


class TestTrendTables:
    def test_index_covers_all_18_tables(self):
        assert set(TREND_TABLE_INDEX) == set(range(1, 19))
        assert TREND_TABLE_INDEX[1] == "dyn_load_balance"
        assert TREND_TABLE_INDEX[18] == "sweep3d_32p"

    def test_table_shape(self):
        table = trend_table(
            "late_sender",
            methods=("relDiff", "iter_avg"),
            thresholds_per_method={"relDiff": (0.1, 0.8)},
            scale="smoke",
        )
        assert set(table) == {"relDiff", "iter_avg"}
        assert set(table["relDiff"]) == {0.1, 0.8}
        assert set(table["iter_avg"]) == {None}
        assert all(isinstance(v, bool) for cells in table.values() for v in cells.values())

    def test_formatting(self):
        table = trend_table(
            "late_sender",
            methods=("absDiff",),
            thresholds_per_method={"absDiff": (1e3,)},
            scale="smoke",
        )
        text = format_trend_table(table, title="Table 6")
        assert "Table 6" in text and "absDiff" in text
