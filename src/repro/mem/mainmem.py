"""Main-memory model: flat latency plus traffic accounting.

The paper models a 200-cycle round-trip latency (§4.1).  Contention is
not modelled (SimpleScalar's default memory is likewise unlimited-
bandwidth); what matters to the experiments is the L1/L2/memory latency
ratio, which determines how much a WEC hit is worth.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..common.stats import CounterGroup

__all__ = ["MainMemory"]


class MainMemory:
    """Backing store with a fixed round-trip latency."""

    __slots__ = ("latency", "stats")

    def __init__(self, latency: int = 200) -> None:
        if latency <= 0:
            raise ConfigError("memory latency must be positive")
        self.latency = latency
        self.stats = CounterGroup("mem")

    def read(self) -> int:
        """A demand/prefetch block read; returns the round-trip latency."""
        self.stats.counter("reads").add()
        return self.latency

    def write(self) -> None:
        """A write-back of a dirty block (posted; no latency charged)."""
        self.stats.counter("writes").add()
