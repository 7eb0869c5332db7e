"""Golden-output tests for the ASCII bar chart renderer.

These tests pin :func:`repro.analysis.plots.bar_chart`'s exact output
for fixed inputs so formatting changes are deliberate, reviewed diffs
rather than silent drift.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.plots import bar_chart
from repro.common.errors import AnalysisError


def golden(text: str) -> str:
    return textwrap.dedent(text).strip("\n")


class TestBarChartGolden:
    def test_bar_chart(self):
        out = bar_chart(
            "traffic (%)",
            {"mcf": 20.0, "vpr": -10.0, "gzip": 5.0},
            width=10,
        )
        assert out == golden("""
            traffic (%)
              mcf  |########## +20.0%
              vpr  |----- -10.0%
              gzip |## +5.0%
        """)  # 5/20 of width 10 rounds half-to-even: two fill chars.

    def test_bar_chart_custom_unit(self):
        out = bar_chart("ipc", {"a": 2.0}, width=4, unit="")
        assert out == golden("""
            ipc
              a |#### +2.0
        """)

    def test_bar_chart_all_zero_values(self):
        # The max-abs guard must not divide by zero.
        out = bar_chart("z", {"a": 0.0}, width=10)
        assert out == golden("""
            z
              a | +0.0%
        """)

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(AnalysisError, match="no values"):
            bar_chart("t", {})
