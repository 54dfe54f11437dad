"""Tests for plain-text table formatting."""

import pytest

from repro.util.tables import format_matrix, format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert lines[2].split() == ["1", "2"]

    def test_title_prepended(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_floats_formatted(self):
        text = format_table(["x"], [[3.14159]], float_fmt=".2f")
        assert "3.14" in text

    def test_bools_rendered_as_yes_no(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_column_alignment(self):
        text = format_table(["name", "v"], [["longer_name", 1], ["x", 22]])
        lines = text.splitlines()
        # all rows have the same position for the second column
        assert lines[2].index("1") == lines[3].index("2")


class TestFormatMatrix:
    def test_missing_cells_dash(self):
        text = format_matrix(["r1"], ["c1", "c2"], {("r1", "c1"): 1})
        assert "-" in text.splitlines()[2]

    def test_corner_label(self):
        text = format_matrix(["r"], ["c"], {}, corner="corner")
        assert text.splitlines()[0].startswith("corner")
