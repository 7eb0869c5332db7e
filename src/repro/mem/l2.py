"""The unified second-level cache shared by all thread units (§2.1).

One :class:`SharedL2` instance is shared by every TU's private memory
system.  It is inclusive of nothing in particular (SimpleScalar-style
non-inclusive), write-back, write-allocate.  Accesses are tagged with
the originating TU and with whether they came from wrong execution, so
the evaluation can report the extra L1↔L2 traffic wrong execution
creates (Figure 17's companion metric).
"""

from __future__ import annotations

from ..common.config import MemorySystemConfig
from ..common.stats import CounterGroup
from ..obs.events import CAT_MEM, L2_FILL, L2_MISS
from .cache import DIRTY, SetAssocCache
from .mainmem import MainMemory

__all__ = ["SharedL2"]


class SharedL2:
    """Shared unified L2 in front of main memory."""

    __slots__ = ("cfg", "cache", "memory", "stats", "_obs")

    def __init__(self, cfg: MemorySystemConfig, tracer=None) -> None:
        self.cfg = cfg
        self.cache = SetAssocCache(cfg.l2)
        self.memory = MainMemory(cfg.memory_latency)
        self.stats = CounterGroup("l2")
        self._obs = (
            tracer
            if tracer is not None and tracer.enabled and tracer.wants(CAT_MEM)
            else None
        )

    def read(self, byte_addr: int, tu_id: int, wrong: bool = False, prefetch: bool = False) -> int:
        """Fetch the block containing ``byte_addr`` for an L1 fill.

        Returns the latency seen by the requester: the L2 hit latency on
        a hit, else the main-memory round trip.  ``wrong`` and
        ``prefetch`` only affect accounting.
        """
        stats = self.stats
        stats.counter("accesses").add()
        if wrong:
            stats.counter("wrong_accesses").add()
        if prefetch:
            stats.counter("prefetch_accesses").add()
        block = self.cache.block_of(byte_addr)
        flags = self.cache.lookup(block)
        if flags is not None:
            stats.counter("hits").add()
            return self.cfg.l2.hit_latency
        stats.counter("misses").add()
        latency = self.memory.read()
        if self._obs is not None:
            self._obs.emit(L2_MISS, tu_id, block)
            self._obs.emit(L2_FILL, tu_id, block, latency)
        evicted = self.cache.insert(block, 0)
        if evicted is not None and evicted[1] & DIRTY:
            self.memory.write()
            stats.counter("writebacks_to_memory").add()
        return latency

    def writeback(self, byte_addr: int, tu_id: int) -> None:
        """Accept a dirty block written back from an L1/sidecar.

        Write-allocate: if the block is not resident it is installed
        (displacing an LRU victim).  No latency is charged — write-backs
        are posted through buffers in the modelled machine.
        """
        self.stats.counter("writebacks_in").add()
        block = self.cache.block_of(byte_addr)
        flags = self.cache.lookup(block)
        if flags is not None:
            self.cache.set_flags(block, flags | DIRTY)
            return
        evicted = self.cache.insert(block, DIRTY)
        if evicted is not None and evicted[1] & DIRTY:
            self.memory.write()
            self.stats.counter("writebacks_to_memory").add()
