"""Set-associative cache with true-LRU replacement and block metadata.

Blocks are tracked at block-address granularity (``addr >> log2(block)``).
Each resident block carries a small flag bitmask:

* ``DIRTY`` — modified, must be written back on eviction;
* ``WRONG`` — the block was brought in by a *wrong-execution* load
  (§3.2.1: a correct-path hit on such a block triggers a next-line
  prefetch and clears the flag);
* ``PREFETCHED`` — the block was brought in by a prefetch and has not
  yet been referenced (the "tag bit" of tagged next-line prefetching).

Sets are insertion-ordered dicts; re-inserting on hit implements LRU at
O(1) per access with no per-block objects (hot-loop friendly).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common.config import CacheConfig
from ..common.errors import ConfigError
from ..common.units import log2_exact
from ..obs.events import CAT_MEM, L1_EVICT

__all__ = ["DIRTY", "WRONG", "PREFETCHED", "PF_FAR", "SetAssocCache", "EvictedBlock"]

DIRTY = 1
WRONG = 2
PREFETCHED = 4
#: The prefetch that brought this block was serviced by main memory
#: (not the L2) — its fill is long and likely still in flight when the
#: demand reference arrives.
PF_FAR = 8

#: (block_address, flags) of a block pushed out of the cache.
EvictedBlock = Tuple[int, int]


class SetAssocCache:
    """A write-back, write-allocate, true-LRU set-associative cache.

    The cache operates on *block addresses*; use :meth:`block_of` to
    convert byte addresses.  It deliberately has no notion of latency or
    of what happens on a miss — the hierarchy layer composes that.
    """

    __slots__ = ("cfg", "_n_sets", "_assoc", "_block_bits", "_sets", "_obs", "_obs_tu")

    def __init__(self, cfg: CacheConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self._n_sets = cfg.n_sets
        self._assoc = cfg.assoc
        self._block_bits = log2_exact(cfg.block_size)
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self._n_sets)]
        self._obs = None
        self._obs_tu = 0

    def attach_tracer(self, tracer, tu_id: int) -> None:
        """Emit eviction events to ``tracer`` (only the L1D uses this)."""
        self._obs = tracer if tracer is not None and tracer.enabled and tracer.wants(CAT_MEM) else None
        self._obs_tu = tu_id

    # -- geometry ---------------------------------------------------------

    @property
    def n_sets(self) -> int:
        return self._n_sets

    @property
    def assoc(self) -> int:
        return self._assoc

    @property
    def block_bits(self) -> int:
        """log2 of the block size."""
        return self._block_bits

    def block_of(self, byte_addr: int) -> int:
        """Convert a byte address to this cache's block address."""
        return byte_addr >> self._block_bits

    def set_index(self, block: int) -> int:
        """The set a block address maps to."""
        return block & (self._n_sets - 1)

    # -- access -----------------------------------------------------------

    def lookup(self, block: int) -> Optional[int]:
        """Return the block's flags and refresh its LRU position.

        None means miss.  Flags are returned *before* any caller-side
        modification; use :meth:`set_flags` / :meth:`or_flags` to change.
        """
        s = self._sets[block & (self._n_sets - 1)]
        flags = s.get(block)
        if flags is None:
            return None
        # Move to MRU position.
        del s[block]
        s[block] = flags
        return flags

    def probe(self, block: int) -> Optional[int]:
        """Like :meth:`lookup` but without touching LRU state."""
        return self._sets[block & (self._n_sets - 1)].get(block)

    def insert(self, block: int, flags: int = 0) -> Optional[EvictedBlock]:
        """Install a block as MRU; return the evicted (block, flags) if any.

        Inserting a block that is already resident simply refreshes its
        LRU position and *replaces* its flags.
        """
        s = self._sets[block & (self._n_sets - 1)]
        if block in s:
            del s[block]
            s[block] = flags
            return None
        evicted: Optional[EvictedBlock] = None
        if len(s) >= self._assoc:
            victim = next(iter(s))
            evicted = (victim, s[victim])
            del s[victim]
            if self._obs is not None:
                self._obs.emit(L1_EVICT, self._obs_tu, evicted[0], evicted[1])
        s[block] = flags
        return evicted

    def invalidate(self, block: int) -> Optional[int]:
        """Remove a block; return its flags, or None if absent."""
        s = self._sets[block & (self._n_sets - 1)]
        return s.pop(block, None)

    def set_flags(self, block: int, flags: int) -> None:
        """Overwrite a resident block's flags (no LRU change)."""
        s = self._sets[block & (self._n_sets - 1)]
        if block not in s:
            raise ConfigError(f"set_flags on non-resident block {block:#x}")
        s[block] = flags

    def or_flags(self, block: int, flags: int) -> None:
        """OR flags into a resident block (no LRU change)."""
        s = self._sets[block & (self._n_sets - 1)]
        if block not in s:
            raise ConfigError(f"or_flags on non-resident block {block:#x}")
        s[block] |= flags

    def clear_flags(self, block: int, flags: int) -> None:
        """Clear the given flag bits on a resident block."""
        s = self._sets[block & (self._n_sets - 1)]
        if block not in s:
            raise ConfigError(f"clear_flags on non-resident block {block:#x}")
        s[block] &= ~flags

    # -- inspection --------------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(block, flags)`` pairs (LRU→MRU within a set)."""
        for s in self._sets:
            yield from s.items()

    def __contains__(self, block: int) -> bool:
        return block in self._sets[block & (self._n_sets - 1)]

    def __repr__(self) -> str:
        return (
            f"SetAssocCache({self.cfg.name}: {self.cfg.size}B, "
            f"{self._assoc}-way, {self.cfg.block_size}B blocks, "
            f"{self.occupancy()}/{self.cfg.n_blocks} resident)"
        )
