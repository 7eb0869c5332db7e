"""Tests for analysis helpers: suite speedup, tables, charts."""

from __future__ import annotations

import pytest

from repro.analysis.plots import bar_chart
from repro.analysis.speedup import suite_average_speedup_pct
from repro.common.errors import AnalysisError
from repro.sim.results import SimResult
from repro.sim.tables import TextTable


def result(bench, config, cycles):
    return SimResult(
        benchmark=bench, config=config, n_tus=8,
        total_cycles=cycles, parallel_cycles=cycles / 2,
        sequential_cycles=cycles / 2, instructions=1000,
        seed=1, scale=0.1,
    )


@pytest.fixture
def grid():
    return {
        ("a", "orig"): result("a", "orig", 100.0),
        ("a", "wec"): result("a", "wec", 80.0),
        ("b", "orig"): result("b", "orig", 200.0),
        ("b", "wec"): result("b", "wec", 100.0),
    }


class TestSpeedupHelpers:
    def test_suite_average_is_harmonic(self, grid):
        # speedups 1.25 and 2.0 -> harmonic mean = 2/(0.8+0.5) ≈ 1.538.
        avg = suite_average_speedup_pct(grid, "orig", "wec")
        assert avg == pytest.approx((2 / (1 / 1.25 + 1 / 2.0) - 1) * 100)

    def test_missing_label_raises(self, grid):
        with pytest.raises(AnalysisError, match=r"a for 'ghost'"):
            suite_average_speedup_pct(grid, "orig", "ghost")

    def test_table_rows_incomplete_grid_raises_named(self, grid):
        # An incomplete grid must raise AnalysisError naming the missing
        # (benchmark, label) cell, not a bare KeyError.
        del grid[("b", "wec")]
        with pytest.raises(AnalysisError, match=r"b for 'wec'"):
            suite_average_speedup_pct(grid, "orig", "wec")

    def test_table_rows_missing_baseline_raises_named(self, grid):
        del grid[("a", "orig")]
        with pytest.raises(AnalysisError, match=r"a for 'orig'"):
            suite_average_speedup_pct(grid, "orig", "wec")


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable("Figure X", ["bench", "speedup"])
        t.add_row(["mcf", "+18.5%"])
        t.add_row(["vpr", None])
        out = t.render()
        assert "Figure X" in out
        assert "+18.5%" in out
        assert "-" in out
        lines = out.splitlines()
        assert all(len(l) <= max(len(x) for x in lines) for l in lines)

    def test_row_width_mismatch(self):
        t = TextTable("t", ["a", "b"])
        with pytest.raises(AnalysisError):
            t.add_row(["only-one"])

    def test_float_formatting(self):
        t = TextTable("t", ["a"])
        t.add_row([1.23456])
        assert "1.23" in t.render()

    def test_no_columns_rejected(self):
        with pytest.raises(AnalysisError):
            TextTable("t", [])


class TestCharts:
    def test_bar_chart(self):
        out = bar_chart("speedups", {"mcf": 18.5, "vpr": -2.0})
        assert "mcf" in out and "+18.5%" in out
        assert "-2.0%" in out
        # negative bars use a distinct fill
        assert "-" in out.splitlines()[2]

    def test_bar_chart_empty(self):
        with pytest.raises(AnalysisError):
            bar_chart("x", {})
