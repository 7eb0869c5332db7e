"""Tests for counters and summary statistics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import AnalysisError
from repro.common.stats import (
    Counter,
    CounterGroup,
    geometric_mean,
    normalized_time,
    relative_speedup_pct,
    speedup,
    weighted_mean_speedup,
)


class TestCounter:
    def test_add_default(self):
        c = Counter("x")
        c.add()
        c.add(5)
        assert c.value == 6
        assert int(c) == 6

    def test_reset(self):
        c = Counter("x", 10)
        c.reset()
        assert c.value == 0

    def test_repr(self):
        assert "x" in repr(Counter("x", 3))


class TestCounterGroup:
    def test_lazy_creation_and_getitem(self):
        g = CounterGroup("tu0")
        assert g["misses"] == 0  # absent -> 0, not KeyError
        g.counter("misses").add(3)
        assert g["misses"] == 3

    def test_counter_identity(self):
        g = CounterGroup("tu0")
        assert g.counter("a") is g.counter("a")

    def test_as_dict_qualified(self):
        g = CounterGroup("tu0")
        g.counter("hits").add(2)
        assert g.as_dict() == {"tu0.hits": 2}
        assert g.as_dict(qualified=False) == {"hits": 2}

    def test_reset(self):
        g = CounterGroup("g")
        g.counter("x").add(5)
        g.reset()
        assert g["x"] == 0

    def test_iteration(self):
        g = CounterGroup("g")
        g.counter("a")
        g.counter("b")
        assert sorted(c.name for c in g) == ["a", "b"]


class TestSpeedupMath:
    def test_speedup(self):
        assert speedup(200.0, 100.0) == pytest.approx(2.0)

    def test_speedup_nonpositive(self):
        with pytest.raises(AnalysisError):
            speedup(100.0, 0.0)

    def test_relative_speedup_pct(self):
        assert relative_speedup_pct(110.0, 100.0) == pytest.approx(10.0)
        assert relative_speedup_pct(100.0, 110.0) == pytest.approx(-9.0909, abs=1e-3)

    def test_normalized_time(self):
        assert normalized_time(200.0, 100.0) == pytest.approx(0.5)
        with pytest.raises(AnalysisError):
            normalized_time(0.0, 100.0)

    def test_weighted_mean_is_harmonic(self):
        # Two benchmarks with speedups 2 and 4: harmonic mean = 2.667.
        result = weighted_mean_speedup([100.0, 100.0], [50.0, 25.0])
        assert result == pytest.approx(2 / (1 / 2 + 1 / 4))

    def test_weighted_mean_equal_importance(self):
        # A long benchmark must not dominate: identical per-benchmark
        # speedups give that speedup regardless of absolute run length.
        result = weighted_mean_speedup([1e9, 10.0], [5e8, 5.0])
        assert result == pytest.approx(2.0)

    def test_weighted_mean_errors(self):
        with pytest.raises(AnalysisError):
            weighted_mean_speedup([], [])
        with pytest.raises(AnalysisError):
            weighted_mean_speedup([1.0], [1.0, 2.0])
        with pytest.raises(AnalysisError):
            weighted_mean_speedup([0.0], [1.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e6),
                st.floats(min_value=1.0, max_value=1e6),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_weighted_mean_bounded_by_extremes(self, pairs):
        base = [b for b, _ in pairs]
        new = [n for _, n in pairs]
        speedups = [b / n for b, n in pairs]
        m = weighted_mean_speedup(base, new)
        assert min(speedups) - 1e-9 <= m <= max(speedups) + 1e-9


class TestMeans:
    def test_geometric(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(AnalysisError):
            geometric_mean([])
        with pytest.raises(AnalysisError):
            geometric_mean([1.0, -1.0])
