"""Tests for the metric registry and default thresholds."""

import pytest

from repro.core.metrics import (
    DEFAULT_THRESHOLDS,
    METRIC_CLASSES,
    METRIC_NAMES,
    THRESHOLD_STUDY,
    create_metric,
)
from repro.core.metrics.base import SimilarityMetric


class TestRegistry:
    def test_nine_methods(self):
        assert len(METRIC_NAMES) == 9

    def test_paper_names_present(self):
        expected = {
            "relDiff",
            "absDiff",
            "manhattan",
            "euclidean",
            "chebyshev",
            "avgWave",
            "haarWave",
            "iter_k",
            "iter_avg",
        }
        assert set(METRIC_NAMES) == expected

    def test_every_metric_instantiable_with_defaults(self):
        for name in METRIC_NAMES:
            metric = create_metric(name)
            assert isinstance(metric, SimilarityMetric)
            assert metric.name == name

    def test_default_thresholds_match_paper(self):
        assert DEFAULT_THRESHOLDS["relDiff"] == 0.8
        assert DEFAULT_THRESHOLDS["absDiff"] == 1000.0
        assert DEFAULT_THRESHOLDS["manhattan"] == 0.4
        assert DEFAULT_THRESHOLDS["euclidean"] == 0.2
        assert DEFAULT_THRESHOLDS["chebyshev"] == 0.2
        assert DEFAULT_THRESHOLDS["avgWave"] == 0.2
        assert DEFAULT_THRESHOLDS["haarWave"] == 0.2
        assert DEFAULT_THRESHOLDS["iter_k"] == 10
        assert DEFAULT_THRESHOLDS["iter_avg"] is None

    def test_threshold_study_values_match_paper(self):
        assert THRESHOLD_STUDY["relDiff"] == (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert THRESHOLD_STUDY["absDiff"] == (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
        assert THRESHOLD_STUDY["iter_k"] == (1, 10, 50, 100, 500, 1000)
        assert "iter_avg" not in THRESHOLD_STUDY

    def test_explicit_threshold(self):
        assert create_metric("relDiff", 0.3).threshold == 0.3

    def test_iter_k_threshold_cast_to_int(self):
        metric = create_metric("iter_k", 5.0)
        assert metric.k == 5

    def test_iter_avg_rejects_threshold(self):
        with pytest.raises(ValueError):
            create_metric("iter_avg", 0.5)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown similarity metric"):
            create_metric("dtw")

    def test_classes_and_names_consistent(self):
        assert tuple(METRIC_CLASSES) == METRIC_NAMES

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("method", METRIC_NAMES)
    def test_non_finite_threshold_rejected(self, method, threshold):
        # NaN passed ``threshold < 0`` and made every comparison fail; inf
        # overflowed iter_k's int().  One text for every method.
        with pytest.raises(ValueError) as raised:
            create_metric(method, threshold)
        assert str(raised.value) == (
            f"{method} threshold must be a finite number >= 0, got {threshold}"
        )

    @pytest.mark.parametrize("cls", [c for c in METRIC_CLASSES.values() if c.__name__ != "IterAvg"])
    def test_constructors_reject_non_finite_thresholds(self, cls):
        with pytest.raises(ValueError, match="must be a finite number"):
            cls(float("nan"))
        with pytest.raises(ValueError, match="must be a finite number"):
            cls(float("inf"))
