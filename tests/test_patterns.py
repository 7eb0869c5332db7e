"""Tests for the deterministic address-pattern generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.workloads.patterns import (
    HotColdPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    mix64,
)

KB = 1024


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_sensitive_to_each_argument(self):
        base = mix64(1, 2, 3)
        assert base != mix64(2, 2, 3)
        assert base != mix64(1, 3, 3)
        assert base != mix64(1, 2, 4)

    def test_64bit_range(self):
        for args in [(0, 0, 0), (2**40, 2**40, 2**40)]:
            assert 0 <= mix64(*args) < 2**64

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_always_in_range(self, a, b, c):
        assert 0 <= mix64(a, b, c) < 2**64


class TestStagger:
    def test_stagger_offsets_base(self):
        p1 = SequentialPattern("a", 0x1000, 4 * KB, stagger=True)
        p2 = SequentialPattern("a", 0x1000, 4 * KB, stagger=False)
        assert p2.base == 0x1000
        assert p1.base >= 0x1000
        assert (p1.base - 0x1000) % 128 == 0  # L2-block multiples

    def test_distinct_names_distinct_offsets(self):
        bases = {
            SequentialPattern(f"arr{i}", 0, 4 * KB).base for i in range(30)
        }
        assert len(bases) > 25  # staggering spreads starting sets


def all_pattern_instances():
    return [
        SequentialPattern("s", 0x1000, 8 * KB, stride=8, per_iter=16, stagger=False),
        StridedPattern("t", 0x1000, 8 * KB, stride=256, per_iter=4, stagger=False),
        RandomPattern("r", 0x1000, 8 * KB, granule=8, salt=5, stagger=False),
        PointerChasePattern("c", 0x1000, n_nodes=64, node_size=64, per_iter=4,
                            stagger=False),
        HotColdPattern("h", 0x1000, hot_size=1 * KB, cold_size=7 * KB,
                       p_hot=0.8, stagger=False),
    ]


@pytest.mark.parametrize("pat", all_pattern_instances(), ids=lambda p: p.name)
class TestCommonProperties:
    def test_deterministic(self, pat):
        assert pat.addr(3, 7) == pat.addr(3, 7)

    def test_addresses_within_region(self, pat):
        for it in (0, 1, 17, 10_000):
            for occ in (0, 1, 33):
                a = pat.addr(it, occ)
                assert pat.base <= a < pat.base + pat.size

    def test_repr(self, pat):
        assert pat.name in repr(pat)


class TestSequentialPattern:
    def test_advances_by_stride(self):
        p = SequentialPattern("s", 0, 1 * KB, stride=8, per_iter=4, stagger=False)
        assert p.addr(0, 0) == 0
        assert p.addr(0, 1) == 8
        assert p.addr(1, 0) == 32  # per_iter * stride

    def test_wraps(self):
        p = SequentialPattern("s", 0, 64, stride=8, per_iter=4, stagger=False)
        assert p.addr(2, 0) == p.addr(0, 0)  # 8 elements: wraps at iter 2

    def test_iteration_continuity(self):
        """Iteration i+1 continues exactly where i's per_iter window ends —
        the property wrong-thread extrapolation relies on."""
        p = SequentialPattern("s", 0, 64 * KB, stride=8, per_iter=4, stagger=False)
        assert p.addr(5, 0) == p.addr(4, 4)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SequentialPattern("s", 0, 64, stride=0)
        with pytest.raises(WorkloadError):
            SequentialPattern("s", 0, 0)
        with pytest.raises(WorkloadError):
            SequentialPattern("s", -1, 64)


class TestRandomPattern:
    def test_granule_alignment(self):
        p = RandomPattern("r", 0, 4 * KB, granule=32, stagger=False)
        for occ in range(50):
            assert p.addr(0, occ) % 32 == 0

    def test_salt_decorrelates(self):
        a = RandomPattern("r", 0, 64 * KB, granule=8, salt=1, stagger=False)
        b = RandomPattern("r", 0, 64 * KB, granule=8, salt=2, stagger=False)
        same = sum(a.addr(0, o) == b.addr(0, o) for o in range(100))
        assert same < 10

    def test_coverage_is_roughly_uniform(self):
        p = RandomPattern("r", 0, 1 * KB, granule=64, stagger=False)  # 16 slots
        seen = {p.addr(i, o) for i in range(50) for o in range(10)}
        assert len(seen) == 16  # all slots hit with 500 draws


class TestPointerChase:
    def test_visits_follow_permutation(self):
        p = PointerChasePattern("c", 0, n_nodes=16, node_size=64, per_iter=4,
                                seed=3, stagger=False)
        walk = [p.addr(0, o) for o in range(16)]
        assert len(set(walk)) == 16  # a full cycle visits every node once

    def test_low_spatial_locality(self):
        p = PointerChasePattern("c", 0, n_nodes=256, node_size=64, per_iter=8,
                                stagger=False)
        seq_pairs = sum(
            abs(p.addr(0, o + 1) - p.addr(0, o)) == 64 for o in range(100)
        )
        assert seq_pairs < 10

    def test_same_seed_same_walk(self):
        a = PointerChasePattern("c", 0, 64, per_iter=4, seed=9, stagger=False)
        b = PointerChasePattern("c", 0, 64, per_iter=4, seed=9, stagger=False)
        assert all(a.addr(2, o) == b.addr(2, o) for o in range(20))

    def test_extrapolation_matches_future(self):
        """Wrong-thread extrapolation: iteration n's addresses equal what
        the real iteration n would touch."""
        p = PointerChasePattern("c", 0, 128, per_iter=4, stagger=False)
        assert p.addr(100, 2) == p.addr(100, 2)
        # continuity across iterations
        assert p.addr(3, 4) == p.addr(4, 0)

    def test_bad_geometry(self):
        with pytest.raises(WorkloadError):
            PointerChasePattern("c", 0, 0)


class TestHotCold:
    def test_hot_fraction(self):
        p = HotColdPattern("h", 0, hot_size=1 * KB, cold_size=63 * KB,
                           p_hot=0.9, stagger=False)
        hot = sum(p.addr(i, o) < 1 * KB for i in range(40) for o in range(25))
        assert 0.85 < hot / 1000 < 0.95

    def test_p_hot_zero_and_one(self):
        hot0 = HotColdPattern("h", 0, 1 * KB, 1 * KB, p_hot=0.0, stagger=False)
        assert all(hot0.addr(0, o) >= 1 * KB for o in range(50))
        hot1 = HotColdPattern("h", 0, 1 * KB, 1 * KB, p_hot=1.0, stagger=False)
        assert all(hot1.addr(0, o) < 1 * KB for o in range(50))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HotColdPattern("h", 0, 0, 1 * KB)
        with pytest.raises(WorkloadError):
            HotColdPattern("h", 0, 1 * KB, 1 * KB, p_hot=1.5)


@settings(max_examples=40, deadline=None)
@given(
    it=st.integers(min_value=0, max_value=10**7),
    occ=st.integers(min_value=0, max_value=10**5),
)
def test_all_patterns_stay_in_bounds(it, occ):
    for pat in all_pattern_instances():
        a = pat.addr(it, occ)
        assert pat.base <= a < pat.base + pat.size
