"""Tests for the set-associative cache and the fully-associative buffer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError
from repro.mem.cache import DIRTY, PF_FAR, PREFETCHED, WRONG, SetAssocCache
from repro.mem.fully_assoc import FullyAssocBuffer


def make_cache(size=256, assoc=1, block=64):
    return SetAssocCache(CacheConfig(size=size, assoc=assoc, block_size=block, name="t"))


class TestGeometry:
    def test_block_of(self):
        c = make_cache()
        assert c.block_of(0) == 0
        assert c.block_of(63) == 0
        assert c.block_of(64) == 1

    def test_set_index_wraps(self):
        c = make_cache(size=256, assoc=1)  # 4 sets
        assert c.set_index(0) == 0
        assert c.set_index(4) == 0
        assert c.set_index(5) == 1


class TestLookupInsert:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(10) is None
        assert c.insert(10, 0) is None
        assert c.lookup(10) == 0

    def test_insert_returns_victim(self):
        c = make_cache(size=64, assoc=1)  # 1 set, 1 way
        c.insert(1, DIRTY)
        victim = c.insert(2, 0)
        assert victim == (1, DIRTY)
        assert 1 not in c and 2 in c

    def test_reinsert_refreshes_and_replaces_flags(self):
        c = make_cache(size=128, assoc=2)  # 1 set, 2-way
        c.insert(0, DIRTY)
        c.insert(2, 0)
        # Reinsert block 0: becomes MRU with new flags.
        assert c.insert(0, WRONG) is None
        victim = c.insert(4, 0)
        assert victim == (2, 0)  # block 2 was LRU
        assert c.probe(0) == WRONG

    def test_lru_order_via_lookup(self):
        c = make_cache(size=128, assoc=2)  # 1 set, 2-way
        c.insert(0, 0)
        c.insert(2, 0)
        c.lookup(0)  # refresh 0
        victim = c.insert(4, 0)
        assert victim[0] == 2

    def test_probe_does_not_refresh(self):
        c = make_cache(size=128, assoc=2)
        c.insert(0, 0)
        c.insert(2, 0)
        c.probe(0)  # no refresh
        victim = c.insert(4, 0)
        assert victim[0] == 0


class TestFlags:
    def test_or_and_clear(self):
        c = make_cache()
        c.insert(3, 0)
        c.or_flags(3, DIRTY | WRONG)
        assert c.probe(3) == DIRTY | WRONG
        c.clear_flags(3, WRONG)
        assert c.probe(3) == DIRTY

    def test_set_flags(self):
        c = make_cache()
        c.insert(3, DIRTY)
        c.set_flags(3, PREFETCHED | PF_FAR)
        assert c.probe(3) == PREFETCHED | PF_FAR

    def test_flag_ops_on_absent_block(self):
        c = make_cache()
        for op in (c.or_flags, c.clear_flags, c.set_flags):
            with pytest.raises(ConfigError):
                op(99, DIRTY)

    def test_flag_bits_distinct(self):
        assert len({DIRTY, WRONG, PREFETCHED, PF_FAR}) == 4
        assert DIRTY & WRONG == 0 and PREFETCHED & PF_FAR == 0


class TestInvalidateFlush:
    def test_invalidate(self):
        c = make_cache()
        c.insert(5, DIRTY)
        assert c.invalidate(5) == DIRTY
        assert c.invalidate(5) is None
        assert 5 not in c

    def test_resident_blocks(self):
        c = make_cache()
        c.insert(1, DIRTY)
        c.insert(2, 0)
        assert dict(c.resident_blocks()) == {1: DIRTY, 2: 0}


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
                  st.integers(min_value=0, max_value=31)),
        max_size=300,
    ),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_cache_matches_reference_lru_model(ops, assoc):
    """The cache must behave exactly like a per-set LRU list model."""
    n_sets = 8 // assoc
    cache = SetAssocCache(
        CacheConfig(size=8 * 64, assoc=assoc, block_size=64, name="ref")
    )
    # Reference: per-set ordered dict of blocks.
    ref = {i: [] for i in range(n_sets)}  # LRU at front

    for op, block in ops:
        s = block % n_sets
        if op == "insert":
            got = cache.insert(block, 0)
            if block in ref[s]:
                ref[s].remove(block)
                ref[s].append(block)
                assert got is None
            else:
                if len(ref[s]) >= assoc:
                    victim = ref[s].pop(0)
                    assert got is not None and got[0] == victim
                else:
                    assert got is None
                ref[s].append(block)
        elif op == "lookup":
            got = cache.lookup(block)
            if block in ref[s]:
                assert got is not None
                ref[s].remove(block)
                ref[s].append(block)
            else:
                assert got is None
        else:
            got = cache.invalidate(block)
            if block in ref[s]:
                assert got is not None
                ref[s].remove(block)
            else:
                assert got is None
        # Invariant: occupancy within capacity.
        assert len(ref[s]) <= assoc
    assert cache.occupancy() == sum(len(v) for v in ref.values())


class TestFullyAssocBuffer:
    def test_capacity_one_minimum(self):
        with pytest.raises(ConfigError):
            FullyAssocBuffer(0)

    def test_lru_eviction(self):
        b = FullyAssocBuffer(2)
        b.insert(1, 0)
        b.insert(2, 0)
        b.lookup(1)  # refresh
        evicted = b.insert(3, 0)
        assert evicted == (2, 0)
        assert 1 in b and 3 in b

    def test_probe_no_refresh(self):
        b = FullyAssocBuffer(2)
        b.insert(1, 0)
        b.insert(2, 0)
        b.probe(1)
        assert b.insert(3, 0)[0] == 1

    def test_remove(self):
        b = FullyAssocBuffer(2)
        b.insert(1, DIRTY)
        assert b.remove(1) == DIRTY
        assert b.remove(1) is None
        assert len(b) == 0

    def test_set_flags_absent(self):
        b = FullyAssocBuffer(2)
        with pytest.raises(ConfigError):
            b.set_flags(9, DIRTY)

    def test_items_lru_order(self):
        b = FullyAssocBuffer(3)
        b.insert(1, 0)
        b.insert(2, 0)
        b.lookup(1)
        assert [blk for blk, _ in b.items()] == [2, 1]

    @given(
        ops=st.lists(st.integers(min_value=0, max_value=20), max_size=200),
        cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_capacity(self, ops, cap):
        b = FullyAssocBuffer(cap)
        for block in ops:
            b.insert(block, 0)
            assert len(b) <= cap
