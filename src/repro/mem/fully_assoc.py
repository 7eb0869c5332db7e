"""Small fully-associative LRU buffer.

This single structure backs all three sidecars the paper compares:

* the **victim cache** (Jouppi 1990) in configurations ``vc`` and
  ``wth-wp-vc``;
* the **Wrong Execution Cache** storage in ``wth-wp-wec``;
* the **prefetch buffer** of tagged next-line prefetching in ``nlp``.

What differs between those is the *policy* layered on top (see
:mod:`repro.mem.hierarchy`); the storage semantics — fully associative,
true LRU, a handful of entries — are identical.  When attribution is
enabled (:mod:`repro.obs.attrib`), the hierarchy tags every insert
with its provenance; this buffer stays provenance-agnostic.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..common.errors import ConfigError
from ..obs.events import CAT_WEC, WEC_INSERT

__all__ = ["FullyAssocBuffer"]


class FullyAssocBuffer:
    """Fully-associative block store with true-LRU replacement."""

    __slots__ = ("_capacity", "_blocks", "name", "_obs", "_obs_tu")

    def __init__(self, capacity: int, name: str = "buffer") -> None:
        if capacity < 1:
            raise ConfigError("buffer capacity must be >= 1")
        self._capacity = capacity
        self._blocks: Dict[int, int] = {}
        self.name = name
        self._obs = None
        self._obs_tu = 0

    def attach_tracer(self, tracer, tu_id: int) -> None:
        """Emit sidecar-insert events to ``tracer`` (WEC/VC/PB only)."""
        self._obs = tracer if tracer is not None and tracer.enabled and tracer.wants(CAT_WEC) else None
        self._obs_tu = tu_id

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def lookup(self, block: int) -> Optional[int]:
        """Flags for ``block`` with LRU refresh; None on miss."""
        flags = self._blocks.get(block)
        if flags is None:
            return None
        del self._blocks[block]
        self._blocks[block] = flags
        return flags

    def probe(self, block: int) -> Optional[int]:
        """Flags for ``block`` without LRU refresh; None on miss."""
        return self._blocks.get(block)

    def insert(self, block: int, flags: int = 0) -> Optional[Tuple[int, int]]:
        """Install ``block`` as MRU; return the evicted (block, flags) if any."""
        if self._obs is not None:
            self._obs.emit(WEC_INSERT, self._obs_tu, block, flags)
        if block in self._blocks:
            del self._blocks[block]
            self._blocks[block] = flags
            return None
        evicted: Optional[Tuple[int, int]] = None
        if len(self._blocks) >= self._capacity:
            victim = next(iter(self._blocks))
            evicted = (victim, self._blocks[victim])
            del self._blocks[victim]
        self._blocks[block] = flags
        return evicted

    def remove(self, block: int) -> Optional[int]:
        """Remove ``block``; return its flags, or None if absent."""
        return self._blocks.pop(block, None)

    def set_flags(self, block: int, flags: int) -> None:
        """Overwrite a resident block's flags."""
        if block not in self._blocks:
            raise ConfigError(f"{self.name}: set_flags on non-resident block {block:#x}")
        self._blocks[block] = flags

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(block, flags)``, LRU first."""
        return iter(self._blocks.items())

    def __repr__(self) -> str:
        return f"FullyAssocBuffer({self.name!r}, {len(self)}/{self._capacity})"
