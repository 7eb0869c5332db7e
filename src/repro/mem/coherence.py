"""Update-protocol coherence for sequential execution (§3.2.2).

During a *parallel* region, coherence is enforced by the thread-
pipelining model itself: potentially shared data live in each TU's
speculative memory buffer until the in-order write-back stage, and
updates flow downstream over the unidirectional communication ring — so
the caches need no snooping.

During *sequential* execution only one thread runs; when it stores to a
block that idle TUs (or still-running wrong threads) hold in their L1 or
WEC, a shared bus pushes the new data to those copies.  The paper notes
this traffic targets otherwise-idle caches and adds no delay; we model
it the same way — pure accounting, zero latency.
"""

from __future__ import annotations

from typing import Sequence

from ..common.stats import CounterGroup
from .hierarchy import TUMemSystem

__all__ = ["UpdateBus"]


class UpdateBus:
    """Shared update bus connecting every TU's private caches."""

    __slots__ = ("_systems", "stats")

    def __init__(self, systems: Sequence[TUMemSystem]) -> None:
        self._systems = list(systems)
        self.stats = CounterGroup("bus")

    def sequential_store(self, writer_tu: int, addr: int) -> int:
        """Propagate a sequential-region store to all other TUs.

        Returns the number of remote copies updated.  The writer's own
        cache is handled by its normal store path and is skipped here.
        """
        self.stats.counter("store_broadcasts").add()
        updated = 0
        for sys in self._systems:
            if sys.tu_id == writer_tu:
                continue
            if sys.bus_update(addr):
                updated += 1
        if updated:
            self.stats.counter("updates_delivered").add(updated)
        return updated
