"""Tests for the per-TU memory system: all four sidecar policies.

These tests pin down the Figure 5/6 semantics: what fills where, what
latency each path sees, when next-line prefetches fire, and what the
wrong-execution paths may and may not touch.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
)
from repro.mem.cache import DIRTY, PREFETCHED, WRONG
from repro.mem.coherence import UpdateBus
from repro.mem.hierarchy import HIT_LATENCY, TUMemSystem
from repro.mem.l2 import SharedL2

L2_HIT = 12
MEM = 200
LATE = 6.0
LATE_FAR = 150.0


def addr(block: int) -> int:
    return block * 64


@pytest.fixture
def l2():
    return SharedL2(
        MemorySystemConfig(
            l2=CacheConfig(size=64 * 1024, assoc=4, block_size=128,
                           hit_latency=L2_HIT, name="l2")
        )
    )


def mk(kind: SidecarKind, l2, entries=4, l1_blocks=4):
    return TUMemSystem(
        0,
        CacheConfig(size=l1_blocks * 64, assoc=1, block_size=64, name="l1d"),
        CacheConfig(size=1024, assoc=2, block_size=64, name="l1i"),
        SidecarConfig(kind=kind, entries=entries),
        l2,
        prefetch_late_cycles=LATE,
        prefetch_late_far_cycles=LATE_FAR,
    )


# ---------------------------------------------------------------------------
# WEC policy (Figure 6)
# ---------------------------------------------------------------------------

class TestWECPolicy:
    def test_correct_miss_fills_l1_victim_to_wec(self, l2):
        m = mk(SidecarKind.WEC, l2)
        lat = m.load_correct(addr(0))
        assert lat == HIT_LATENCY + MEM  # cold: memory
        # Evict block 0 by loading its set conflict (4-block DM L1).
        m.load_correct(addr(4))
        assert m.sidecar.probe(0) is not None  # victim cached
        assert m.stats["victims_to_sidecar"] == 1

    def test_victim_recovery_is_cheap(self, l2):
        m = mk(SidecarKind.WEC, l2)
        m.load_correct(addr(0))
        m.load_correct(addr(4))   # evicts 0 into WEC
        lat = m.load_correct(addr(0))  # WEC hit: swap back
        assert lat == HIT_LATENCY
        assert m.stats["sidecar_hits"] == 1
        # Swap: block 4 went into the WEC.
        assert m.sidecar.probe(4) is not None

    def test_wrong_load_fills_wec_only(self, l2):
        m = mk(SidecarKind.WEC, l2)
        m.load_wrong(addr(7))
        assert 7 not in m.l1d            # L1 untouched: no pollution
        assert m.sidecar.probe(7) == WRONG
        assert m.stats["wrong_fills"] == 1

    def test_wrong_load_hit_in_l1_touches_nothing(self, l2):
        m = mk(SidecarKind.WEC, l2)
        m.load_correct(addr(3))
        m.load_wrong(addr(3))
        assert m.stats["wrong_l1_hits"] == 1
        assert m.stats["wrong_fills"] == 0

    def test_correct_hit_on_wrong_block_promotes_and_prefetches(self, l2):
        m = mk(SidecarKind.WEC, l2)
        m.load_wrong(addr(7))
        lat = m.load_correct(addr(7))
        assert lat == HIT_LATENCY          # WRONG blocks pay no lateness
        assert 7 in m.l1d                  # promoted
        assert m.sidecar.probe(7) is None
        assert m.sidecar.probe(8) & PREFETCHED  # next-line fired
        assert m.stats["useful_wrong_hits"] == 1
        assert m.stats["prefetches"] == 1

    def test_chain_sustains_on_stream(self, l2):
        m = mk(SidecarKind.WEC, l2, entries=8, l1_blocks=16)
        m.load_wrong(addr(100))  # seed
        misses_beyond = 0
        for blk in range(100, 110):
            for t in range(4):
                lat = m.load_correct(blk * 64 + t * 16)
                if lat > HIT_LATENCY + LATE_FAR:
                    misses_beyond += 1
        assert misses_beyond == 0  # the whole stream rides the chain
        assert m.stats["useful_prefetch_hits"] >= 8

    def test_chain_hit_pays_lateness(self, l2):
        m = mk(SidecarKind.WEC, l2, entries=8, l1_blocks=16)
        m.load_wrong(addr(50))
        m.load_correct(addr(50))          # promote, prefetch 51
        lat = m.load_correct(addr(51))    # chain hit: prefetched block
        assert lat in (HIT_LATENCY + LATE, HIT_LATENCY + LATE_FAR)

    def test_victim_hit_does_not_prefetch(self, l2):
        m = mk(SidecarKind.WEC, l2)
        m.load_correct(addr(0))
        m.load_correct(addr(4))       # 0 evicted to WEC as plain victim
        m.load_correct(addr(0))       # recover
        assert m.stats["prefetches"] == 0

    def test_store_miss_wec_hit_swaps_dirty(self, l2):
        m = mk(SidecarKind.WEC, l2)
        m.load_wrong(addr(9))
        lat = m.store_correct(addr(9))
        assert lat == HIT_LATENCY
        assert m.l1d.probe(9) == DIRTY

    def test_dirty_wec_eviction_writes_back(self, l2):
        m = mk(SidecarKind.WEC, l2, entries=1)
        m.store_correct(addr(0))
        m.load_correct(addr(4))   # dirty victim 0 -> WEC (cap 1)
        m.load_wrong(addr(20))    # wrong fill bumps dirty victim
        assert m.stats["writebacks"] == 1

    def test_wrong_load_wec_hit_refreshes(self, l2):
        m = mk(SidecarKind.WEC, l2, entries=2)
        m.load_wrong(addr(30))
        m.load_wrong(addr(31))
        m.load_wrong(addr(30))     # refresh 30
        m.load_wrong(addr(32))     # evicts 31, not 30
        assert m.sidecar.probe(30) is not None
        assert m.sidecar.probe(31) is None
        assert m.stats["wrong_sidecar_hits"] == 1


# ---------------------------------------------------------------------------
# Victim-cache policy
# ---------------------------------------------------------------------------

class TestVictimPolicy:
    def test_swap_on_vc_hit(self, l2):
        m = mk(SidecarKind.VICTIM, l2)
        m.load_correct(addr(0))
        m.load_correct(addr(4))       # evicts 0 -> VC
        lat = m.load_correct(addr(0))
        assert lat == HIT_LATENCY
        assert m.sidecar.probe(4) is not None  # swapped

    def test_wrong_load_pollutes_l1(self, l2):
        m = mk(SidecarKind.VICTIM, l2)
        m.load_correct(addr(0))
        m.load_wrong(addr(4))          # same set: evicts block 0!
        assert 4 in m.l1d
        assert m.l1d.probe(4) == WRONG
        assert 0 not in m.l1d          # pollution happened

    def test_dirty_victim_keeps_dirty_in_vc(self, l2):
        m = mk(SidecarKind.VICTIM, l2)
        m.store_correct(addr(0))
        m.load_correct(addr(4))
        assert m.sidecar.probe(0) & DIRTY


# ---------------------------------------------------------------------------
# Tagged next-line prefetching (nlp)
# ---------------------------------------------------------------------------

class TestNLPPolicy:
    def test_prefetch_on_miss(self, l2):
        m = mk(SidecarKind.PREFETCH, l2)
        m.load_correct(addr(0))
        assert m.sidecar.probe(1) is not None
        assert m.stats["prefetches"] == 1

    def test_pb_hit_promotes_and_rearms(self, l2):
        m = mk(SidecarKind.PREFETCH, l2)
        m.load_correct(addr(0))          # prefetch 1
        lat = m.load_correct(addr(1))    # PB hit
        assert lat > HIT_LATENCY         # lateness charged
        assert 1 in m.l1d
        assert m.sidecar.probe(2) is not None  # chained

    def test_pb_victims_not_cached(self, l2):
        m = mk(SidecarKind.PREFETCH, l2)
        m.load_correct(addr(0))
        m.load_correct(addr(4))       # evicts 0: dropped, not into PB
        assert m.sidecar.probe(0) is None

    def test_prefetch_skipped_if_resident(self, l2):
        m = mk(SidecarKind.PREFETCH, l2)
        m.load_correct(addr(1))       # brings 1, prefetches 2
        before = m.stats["prefetches"]
        m.load_correct(addr(0))       # next line (1) already in L1
        assert m.stats["prefetches"] == before

    def test_no_wrong_execution_path_pollutes_like_plain(self, l2):
        # nlp never wrong-executes in the paper, but the policy object
        # still provides the plain path for robustness.
        m = mk(SidecarKind.PREFETCH, l2)
        m.load_wrong(addr(9))
        assert 9 in m.l1d


# ---------------------------------------------------------------------------
# Plain policy (orig / wp / wth / wth-wp)
# ---------------------------------------------------------------------------

class TestPlainPolicy:
    def test_latencies(self, l2):
        m = mk(SidecarKind.NONE, l2)
        lat_cold = m.load_correct(addr(0))
        assert lat_cold == HIT_LATENCY + MEM
        lat_hit = m.load_correct(addr(0))
        assert lat_hit == HIT_LATENCY
        # A neighbour in the same 128B L2 block is an L2 hit.
        lat_l2 = m.load_correct(addr(1))
        assert lat_l2 == HIT_LATENCY + L2_HIT

    def test_wrong_fill_pollutes_and_flags(self, l2):
        m = mk(SidecarKind.NONE, l2)
        m.load_wrong(addr(3))
        assert m.l1d.probe(3) == WRONG

    def test_correct_hit_on_wrong_block_counts_useful(self, l2):
        m = mk(SidecarKind.NONE, l2)
        m.load_wrong(addr(3))
        m.load_correct(addr(3))
        assert m.stats["useful_wrong_hits"] == 1
        assert m.l1d.probe(3) == 0  # WRONG cleared

    def test_dirty_eviction_writes_back(self, l2):
        m = mk(SidecarKind.NONE, l2)
        m.store_correct(addr(0))
        m.load_correct(addr(4))
        assert m.stats["writebacks"] == 1

    def test_store_sets_dirty(self, l2):
        m = mk(SidecarKind.NONE, l2)
        m.store_correct(addr(0))
        assert m.l1d.probe(0) & DIRTY
        m.store_correct(addr(0))  # hit path
        assert m.stats["l1_hits"] == 1


# ---------------------------------------------------------------------------
# Instruction fetch and shared metrics
# ---------------------------------------------------------------------------

class TestIFetchAndMetrics:
    def test_ifetch_miss_then_hit(self, l2):
        m = mk(SidecarKind.NONE, l2)
        lat = m.ifetch(0x40000000)
        assert lat > HIT_LATENCY
        assert m.ifetch(0x40000000) == HIT_LATENCY
        assert m.stats["l1i_misses"] == 1

    def test_effective_misses(self, l2):
        # An effective miss is a demand fill (SimResult.from_counters).
        m = mk(SidecarKind.WEC, l2)
        m.load_correct(addr(0))       # demand fill
        m.load_correct(addr(4))       # demand fill, victim 0 -> WEC
        m.load_correct(addr(0))       # WEC hit: NOT an effective miss
        assert m.stats["demand_fills"] == 2
        assert m.stats["l1_misses"] == 3


class TestUpdateBus:
    def test_updates_only_remote_copies(self, l2):
        a = mk(SidecarKind.NONE, l2)
        b = TUMemSystem(
            1,
            CacheConfig(size=256, assoc=1, block_size=64, name="l1d"),
            CacheConfig(size=1024, assoc=2, block_size=64, name="l1i"),
            SidecarConfig(kind=SidecarKind.NONE),
            l2,
        )
        bus = UpdateBus([a, b])
        b.load_correct(addr(5))
        updated = bus.sequential_store(0, addr(5))
        assert updated == 1
        assert b.stats["bus_updates"] == 1
        assert a.stats["bus_updates"] == 0

    def test_update_checks_sidecar_too(self, l2):
        a = mk(SidecarKind.NONE, l2)
        w = mk(SidecarKind.WEC, l2)
        w.tu_id = 1  # distinct id for the bus
        bus = UpdateBus([a, w])
        w.load_wrong(addr(6))  # resident only in w's WEC
        assert bus.sequential_store(0, addr(6)) == 1

    def test_no_copies_no_updates(self, l2):
        a = mk(SidecarKind.NONE, l2)
        bus = UpdateBus([a])
        assert bus.sequential_store(0, addr(1)) == 0
        assert bus.stats["store_broadcasts"] == 1
