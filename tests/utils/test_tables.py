"""ASCII table rendering used by the paper runner's result files."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from paper.tables import format_cell, render_series, render_table


class TestFormatCell:
    def test_float_precision(self):
        assert format_cell(0.12345, precision=3) == "0.123"

    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_int_passthrough(self):
        assert format_cell(42) == "42"


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["k", "F1"], [[1, 0.5], [100, 0.25]])
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert "100" in out and "0.50" in out

    def test_title(self):
        out = render_table(["a"], [[1]], title="My table")
        assert out.splitlines()[0] == "My table"

    def test_empty_rows(self):
        out = render_table(["a", "b"], [])
        assert "a" in out and "b" in out


class TestRenderSeries:
    def test_columns(self):
        out = render_series("x", [1, 2], {"y": [0.1, 0.2], "z": [3, 4]})
        assert "y" in out and "z" in out and "0.200" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], {"y": [0.1]})
