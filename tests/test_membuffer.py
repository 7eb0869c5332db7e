"""Tests for the speculative memory buffer (§2.2, §4.1)."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.core.membuffer import SpeculativeMemBuffer


class TestBuffering:
    def test_buffer_and_writeback(self):
        b = SpeculativeMemBuffer(8)
        assert b.buffer_store(0x100) is True
        assert b.buffer_store(0x200, is_target=True) is True
        committed = b.writeback()
        assert dict(committed) == {0x100: False, 0x200: True}
        assert b.occupancy == 0

    def test_writeback_preserves_order(self):
        b = SpeculativeMemBuffer(8)
        for a in (0x300, 0x100, 0x200):
            b.buffer_store(a)
        assert [a for a, _ in b.writeback()] == [0x300, 0x100, 0x200]

    def test_rewrite_same_address_keeps_one_entry(self):
        b = SpeculativeMemBuffer(8)
        b.buffer_store(0x100)
        b.buffer_store(0x100, is_target=True)
        assert b.occupancy == 1
        assert dict(b.writeback())[0x100] is True  # target flag sticky

    def test_overflow(self):
        b = SpeculativeMemBuffer(2)
        assert b.buffer_store(0x0)
        assert b.buffer_store(0x8)
        assert b.buffer_store(0x10) is False
        assert b.stats["overflows"] == 1
        # Re-writing an existing entry is fine even when full.
        assert b.buffer_store(0x0) is True

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            SpeculativeMemBuffer(0)


class TestTargetStores:
    def test_upstream_target_load_stalls(self):
        b = SpeculativeMemBuffer(8)
        b.receive_targets([0x500, 0x600])
        assert b.stats["targets_received"] == 2
        b.check_load(0x500)
        b.check_load(0x500)
        assert b.stats["dependence_hits"] == 2
        assert b.stats["dependence_stalls"] == 2

    def test_local_forwarding(self):
        b = SpeculativeMemBuffer(8)
        b.buffer_store(0x700)
        b.receive_targets([0x700])
        b.check_load(0x700)  # the own store wins over the upstream one
        assert b.stats["local_forwards"] == 1
        assert b.stats["dependence_hits"] == 0

    def test_independent_load_no_stall(self):
        b = SpeculativeMemBuffer(8)
        b.receive_targets([0x500])
        b.check_load(0x999)
        assert b.stats["dependence_stalls"] == 0
        assert b.stats["local_forwards"] == 0


class TestAbort:
    def test_abort_discards_everything(self):
        b = SpeculativeMemBuffer(8)
        b.buffer_store(0x100)
        b.buffer_store(0x200, is_target=True)
        b.receive_targets([0x300])
        n = b.abort()
        assert n == 2
        assert b.occupancy == 0
        assert b.writeback() == []  # nothing reaches memory
        b.check_load(0x300)         # upstream targets gone
        assert b.stats["dependence_hits"] == 0
        assert b.stats["stores_squashed"] == 2

    def test_wrong_thread_semantics(self):
        """A wrong thread's stores must never reach the memory system."""
        b = SpeculativeMemBuffer(8)
        b.buffer_store(0xDEAD)
        b.abort()
        assert b.writeback() == []
