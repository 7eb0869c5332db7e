"""Tests for the shared L2 and main-memory models."""

from __future__ import annotations

import pytest

from repro.common.config import CacheConfig, MemorySystemConfig
from repro.common.errors import ConfigError
from repro.mem.cache import DIRTY
from repro.mem.l2 import SharedL2
from repro.mem.mainmem import MainMemory


def make_l2(size=4096, latency=200):
    return SharedL2(
        MemorySystemConfig(
            l2=CacheConfig(size=size, assoc=4, block_size=128, hit_latency=12, name="l2"),
            memory_latency=latency,
        )
    )


class TestMainMemory:
    def test_read_latency_and_count(self):
        mem = MainMemory(200)
        assert mem.read() == 200
        assert mem.stats["reads"] == 1

    def test_write_posted(self):
        mem = MainMemory(200)
        mem.write()
        assert mem.stats["writes"] == 1

    def test_nonpositive_latency(self):
        with pytest.raises(ConfigError):
            MainMemory(0)


class TestSharedL2:
    def test_cold_read_goes_to_memory(self):
        l2 = make_l2()
        assert l2.read(0x1000, tu_id=0) == 200
        assert l2.stats["misses"] == 1
        assert l2.memory.stats["reads"] == 1

    def test_second_read_hits(self):
        l2 = make_l2()
        l2.read(0x1000, 0)
        assert l2.read(0x1000, 0) == 12
        assert l2.stats["hits"] == 1

    def test_block_granularity_is_128(self):
        l2 = make_l2()
        l2.read(0x1000, 0)
        # Same 128-byte block, different 64-byte half: still a hit.
        assert l2.read(0x1040, 0) == 12

    def test_wrong_and_prefetch_accounting(self):
        l2 = make_l2()
        l2.read(0x0, 0, wrong=True)
        l2.read(0x1000, 0, prefetch=True)
        assert l2.stats["wrong_accesses"] == 1
        assert l2.stats["prefetch_accesses"] == 1
        assert l2.stats["accesses"] == 2

    def test_writeback_allocates(self):
        l2 = make_l2()
        l2.writeback(0x2000, 0)
        # The block is now resident (and dirty): a read hits.
        assert l2.read(0x2000, 0) == 12

    def test_writeback_to_resident_sets_dirty(self):
        l2 = make_l2()
        l2.read(0x2000, 0)
        l2.writeback(0x2000, 0)
        block = l2.cache.block_of(0x2000)
        assert l2.cache.probe(block) & DIRTY

    def test_dirty_eviction_reaches_memory(self):
        l2 = make_l2(size=512)  # 4 blocks, 1 set (4-way)
        l2.writeback(0 * 128, 0)  # dirty
        for b in range(1, 5):     # fill the set, evicting the dirty block
            l2.read(b * 128, 0)
        assert l2.memory.stats["writes"] == 1
        assert l2.stats["writebacks_to_memory"] == 1
