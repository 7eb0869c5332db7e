"""Branch target buffer (set-associative, LRU).

The paper's TUs each use a 1024-entry 4-way BTB (§4.1).  In this
reproduction the BTB determines whether a *taken* prediction can
actually redirect fetch: a taken branch that misses in the BTB is
charged like a misprediction (the target is unknown until resolve),
which slightly raises the effective misprediction rate early in a run —
matching the warm-up behaviour of real front ends.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.errors import ConfigError

__all__ = ["BranchTargetBuffer"]


class BranchTargetBuffer:
    """A set-associative BTB with true-LRU replacement.

    Entries map a branch PC to its most recent taken target.
    """

    __slots__ = ("_n_sets", "_assoc", "_sets", "hits", "misses", "updates")

    def __init__(self, entries: int, assoc: int) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc != 0:
            raise ConfigError(f"bad BTB geometry: {entries} entries, {assoc}-way")
        self._n_sets = entries // assoc
        self._assoc = assoc
        # Each set is an LRU-ordered dict: oldest first (Python dicts
        # preserve insertion order; re-insert to refresh).
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self._n_sets)]
        self.hits = 0
        self.misses = 0
        self.updates = 0

    @property
    def entries(self) -> int:
        """Total entry capacity."""
        return self._n_sets * self._assoc

    @property
    def assoc(self) -> int:
        return self._assoc

    def _set_for(self, pc: int) -> Dict[int, int]:
        return self._sets[(pc >> 2) % self._n_sets]

    def lookup(self, pc: int) -> Optional[int]:
        """Return the cached target for ``pc``, refreshing LRU; None on miss."""
        s = self._set_for(pc)
        target = s.get(pc)
        if target is None:
            self.misses += 1
            return None
        self.hits += 1
        # Refresh LRU position.
        del s[pc]
        s[pc] = target
        return target

    def insert(self, pc: int, target: int) -> None:
        """Record the resolved taken target for ``pc``."""
        self.updates += 1
        s = self._set_for(pc)
        if pc in s:
            del s[pc]
        elif len(s) >= self._assoc:
            # Evict the LRU entry (first key in insertion order).
            oldest = next(iter(s))
            del s[oldest]
        s[pc] = target

    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return sum(len(s) for s in self._sets)
