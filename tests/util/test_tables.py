"""Tests for table/series rendering."""

import pytest

from repro.util.tables import format_table, sparkline


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title_first_line(self):
        out = format_table(["x"], [[1]], title="hello")
        assert out.splitlines()[0] == "hello"

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_precision(self):
        out = format_table(["v"], [[1.23456]], precision=2)
        assert "1.23" in out
        assert "1.235" not in out

    def test_bool_and_str_cells(self):
        out = format_table(["v"], [[True], ["x"]])
        assert "True" in out and "x" in out


class TestSparkline:
    def test_length_bounded(self):
        assert len(sparkline(list(range(100)), width=20)) <= 21

    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) != ""
