"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.util.stats import (
    coefficient_of_variation,
    pearson,
    percentile,
)


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 90) == 0.0

    def test_single_value(self):
        assert percentile([5.0], 90) == 5.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_90th(self):
        values = list(range(1, 101))
        assert percentile(values, 90) == pytest.approx(90.1)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_accepts_numpy_array(self):
        assert percentile(np.array([1.0, 3.0]), 100) == 3.0


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_both_constant(self):
        assert pearson([1, 1, 1], [2, 2, 2]) == 1.0

    def test_one_constant(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_single_element(self):
        assert pearson([1.0], [5.0]) == 1.0


class TestCoefficientOfVariation:
    def test_uniform_is_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_empty_is_zero(self):
        assert coefficient_of_variation([]) == 0.0

    def test_zero_mean_is_zero(self):
        assert coefficient_of_variation([-1, 1]) == 0.0

    def test_known_value(self):
        assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)
