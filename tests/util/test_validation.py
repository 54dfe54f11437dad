"""Tests for argument validation helpers."""

import pytest

from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    check_rank,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_message_contains_name(self):
        with pytest.raises(ValueError, match="iterations"):
            check_positive("iterations", -2)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckRank:
    def test_accepts_valid(self):
        assert check_rank(3, 4) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_rank(4, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_rank(-1, 4)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            check_rank(1.5, 4)
