"""Speculative memory buffer with target-store dependence checking (§2.2).

Each thread unit caches its speculative stores here during a parallel
region; nothing reaches the memory system until the in-order write-back
stage commits the buffer.  This is why wrong threads are harmless to
memory state: they never reach write-back, so their buffered stores
simply evaporate (§3.1.2).

The buffer also implements run-time data-dependence checking: *target
store* addresses computed in the TSAG stage are forwarded to all
downstream threads' buffers; a downstream load whose address matches a
forwarded entry has a cross-thread dependence and must wait for the
value to arrive over the communication ring.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..common.errors import SimulationError
from ..common.stats import CounterGroup

__all__ = ["SpeculativeMemBuffer"]


class SpeculativeMemBuffer:
    """Per-TU fully-associative speculative store buffer (§4.1: 128 entries)."""

    __slots__ = ("capacity", "stats", "_stores", "_upstream_targets")

    def __init__(self, capacity: int = 128, name: str = "membuf") -> None:
        if capacity < 1:
            raise SimulationError("memory buffer needs at least one entry")
        self.capacity = capacity
        self.stats = CounterGroup(name)
        #: This thread's own buffered stores: addr -> is_target_store.
        self._stores: Dict[int, bool] = {}
        #: Target-store addresses forwarded from upstream threads.
        self._upstream_targets: Set[int] = set()

    # -- producer side ------------------------------------------------

    def buffer_store(self, addr: int, is_target: bool = False) -> bool:
        """Buffer one of this thread's speculative stores.

        Returns False (and counts an overflow) when the buffer is full —
        the modelled machine would stall the thread; the timing model
        charges overflow events through the write-back stage.
        """
        if len(self._stores) >= self.capacity and addr not in self._stores:
            self.stats.counter("overflows").add()
            return False
        self._stores[addr] = self._stores.get(addr, False) or is_target
        self.stats.counter("stores_buffered").add()
        return True

    # -- consumer side --------------------------------------------------

    def receive_targets(self, addrs: List[int]) -> None:
        """Install target-store addresses forwarded by an upstream thread."""
        self._upstream_targets.update(addrs)
        self.stats.counter("targets_received").add(len(addrs))

    def check_load(self, addr: int) -> None:
        """Run-time dependence check for a load (§2.2 computation stage).

        A load of this thread's own buffered store is forwarded from the
        buffer.  A load of an upstream target store depends on it and
        stalls for its data (the core executes independent instructions
        meanwhile); the stall's cycles are the scheduler's dependence
        coupling, so here it is only counted.
        """
        if addr in self._stores:
            self.stats.counter("local_forwards").add()
        elif addr in self._upstream_targets:
            self.stats.counter("dependence_hits").add()
            self.stats.counter("dependence_stalls").add()

    # -- commit / abort ---------------------------------------------------

    def writeback(self) -> List[Tuple[int, bool]]:
        """Commit: drain all buffered stores in order (write-back stage).

        Returns the ``(addr, is_target)`` list for the caller to apply
        to the cache hierarchy, then clears the buffer.
        """
        out = list(self._stores.items())
        self.stats.counter("writebacks").add()
        self._clear()
        return out

    def abort(self) -> int:
        """Squash: drop all buffered state (wrong threads end here).

        Returns the number of stores discarded.
        """
        n = len(self._stores)
        self.stats.counter("aborts").add()
        if n:
            self.stats.counter("stores_squashed").add(n)
        self._clear()
        return n

    def _clear(self) -> None:
        self._stores.clear()
        self._upstream_targets.clear()

    @property
    def occupancy(self) -> int:
        return len(self._stores)

    def __repr__(self) -> str:
        return (
            f"SpeculativeMemBuffer({self.occupancy}/{self.capacity} stores, "
            f"{len(self._upstream_targets)} upstream targets)"
        )
