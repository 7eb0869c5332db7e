"""Deterministic address-pattern generators.

Every pattern is a pure function of ``(iteration index, occurrence
index)`` — no hidden cursor state.  This property is load-bearing for
the reproduction:

* iterations are distributed round-robin over thread units, so the
  addresses iteration *i* touches must depend only on *i*, not on the
  order in which TUs happen to generate traces;
* **wrong threads** continue past the loop exit by simply evaluating the
  same patterns at ``iter_idx >= n_iterations`` — if the program later
  re-walks the same data (the common case for the paper's loop nests),
  those wrong-thread loads are *naturally* useful prefetches, with no
  tuned "usefulness probability";
* regenerating a trace is free, which keeps memory flat.

Randomness comes from a counter-based hash (splitmix64-style), seeded
per pattern, so traces are reproducible across runs and machines.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..common.errors import WorkloadError

__all__ = [
    "AddressPattern",
    "SequentialPattern",
    "StridedPattern",
    "RandomPattern",
    "PointerChasePattern",
    "HotColdPattern",
    "mix64",
]

_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB


def mix64(a: int, b: int, c: int) -> int:
    """Stateless 64-bit mixer (splitmix64 finalizer over a 3-word key)."""
    x = (a * _C1 + b * _C2 + c * _C3 + _C1) & _M64
    x ^= x >> 30
    x = (x * _C2) & _M64
    x ^= x >> 27
    x = (x * _C3) & _M64
    x ^= x >> 31
    return x


class AddressPattern(abc.ABC):
    """Base class: a named region of memory plus an access rule.

    ``stagger`` (default True) offsets the base by a name-derived amount
    of up to 256KB, in L2-block multiples.  Without it, the benchmark
    builders' power-of-two array spacing would start every array at
    cache set 0 — an alignment pathology real allocators do not produce
    — flooding both cache levels with artificial conflict misses.
    """

    def __init__(self, name: str, base: int, size: int, stagger: bool = True) -> None:
        if size <= 0:
            raise WorkloadError(f"pattern {name!r}: size must be positive")
        if base < 0:
            raise WorkloadError(f"pattern {name!r}: negative base address")
        self.name = name
        if stagger:
            from ..common.rng import stable_hash32

            base += (stable_hash32(name) % 2048) * 128
        self.base = base
        self.size = size

    @abc.abstractmethod
    def addr(self, iter_idx: int, occ: int) -> int:
        """Byte address for occurrence ``occ`` within iteration ``iter_idx``."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, base={self.base:#x}, "
            f"size={self.size})"
        )


class SequentialPattern(AddressPattern):
    """Streaming access: iteration *i*, occurrence *j* touches element
    ``i*per_iter + j`` of a contiguous array, wrapping at the end.

    ``stride`` is the element size in bytes; a small stride gives high
    spatial locality (many touches per cache block), which is what makes
    next-line prefetching — and the WEC's prefetch side — so effective
    on the FP codes (mesa, equake).
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        stride: int = 8,
        per_iter: int = 16,
        stagger: bool = True,
    ) -> None:
        super().__init__(name, base, size, stagger=stagger)
        if stride <= 0 or per_iter <= 0:
            raise WorkloadError(f"pattern {name!r}: stride/per_iter must be positive")
        self.stride = stride
        self.per_iter = per_iter
        self._n_elems = max(1, size // stride)

    def addr(self, iter_idx: int, occ: int) -> int:
        elem = (iter_idx * self.per_iter + occ) % self._n_elems
        return self.base + elem * self.stride


class StridedPattern(AddressPattern):
    """Large-stride access (e.g. column-major walks): like
    :class:`SequentialPattern` but typically with ``stride`` greater
    than the block size, so spatial locality is poor."""

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        stride: int,
        per_iter: int = 16,
        stagger: bool = True,
    ) -> None:
        super().__init__(name, base, size, stagger=stagger)
        if stride <= 0 or per_iter <= 0:
            raise WorkloadError(f"pattern {name!r}: stride/per_iter must be positive")
        self.stride = stride
        self.per_iter = per_iter
        self._n_elems = max(1, size // stride)

    def addr(self, iter_idx: int, occ: int) -> int:
        elem = (iter_idx * self.per_iter + occ) % self._n_elems
        return self.base + elem * self.stride


class RandomPattern(AddressPattern):
    """Uniformly random touches across a region (hash-indexed tables).

    ``granule`` is the object size; ``salt`` decorrelates multiple
    random patterns over the same region.
    """

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        granule: int = 8,
        salt: int = 0,
        stagger: bool = True,
    ) -> None:
        super().__init__(name, base, size, stagger=stagger)
        if granule <= 0:
            raise WorkloadError(f"pattern {name!r}: granule must be positive")
        self.granule = granule
        self.salt = salt
        self._n_slots = max(1, size // granule)

    def addr(self, iter_idx: int, occ: int) -> int:
        slot = mix64(iter_idx, occ, self.salt) % self._n_slots
        return self.base + slot * self.granule


class PointerChasePattern(AddressPattern):
    """A pointer chase over a randomly-ordered linked structure.

    The node visit order is a fixed random permutation cycle of
    ``n_nodes`` nodes, precomputed once; iteration *i*, occurrence *j*
    visits the node at walk position ``i*per_iter + j``.  Consecutive
    accesses therefore have essentially no spatial locality, and the
    footprint (``n_nodes * node_size``) dwarfs small caches — the mcf
    behaviour.  Because the walk order is shared across invocations,
    wrong threads that run past the loop end touch exactly the nodes the
    next invocation will visit first.
    """

    def __init__(
        self,
        name: str,
        base: int,
        n_nodes: int,
        node_size: int = 64,
        per_iter: int = 16,
        seed: int = 1,
        stagger: bool = True,
    ) -> None:
        if n_nodes <= 0 or node_size <= 0:
            raise WorkloadError(f"pattern {name!r}: bad node geometry")
        super().__init__(name, base, n_nodes * node_size, stagger=stagger)
        self.n_nodes = n_nodes
        self.node_size = node_size
        self.per_iter = per_iter
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self._order = rng.permutation(n_nodes).astype(np.int64)

    def addr(self, iter_idx: int, occ: int) -> int:
        pos = (iter_idx * self.per_iter + occ) % self.n_nodes
        return self.base + int(self._order[pos]) * self.node_size


class HotColdPattern(AddressPattern):
    """Mostly-hot lookups: probability ``p_hot`` of touching a small hot
    region, else a large cold region (gzip's tables / sliding window).
    """

    def __init__(
        self,
        name: str,
        base: int,
        hot_size: int,
        cold_size: int,
        p_hot: float = 0.9,
        granule: int = 8,
        salt: int = 0,
        stagger: bool = True,
    ) -> None:
        if hot_size <= 0 or cold_size <= 0:
            raise WorkloadError(f"pattern {name!r}: region sizes must be positive")
        if not 0.0 <= p_hot <= 1.0:
            raise WorkloadError(f"pattern {name!r}: p_hot outside [0,1]")
        super().__init__(name, base, hot_size + cold_size, stagger=stagger)
        self.hot_size = hot_size
        self.cold_size = cold_size
        self.p_hot = p_hot
        self.granule = granule
        self.salt = salt
        self._hot_slots = max(1, hot_size // granule)
        self._cold_slots = max(1, cold_size // granule)

    def addr(self, iter_idx: int, occ: int) -> int:
        h = mix64(iter_idx, occ, self.salt)
        # Low bits choose hot/cold; high bits choose the slot.
        if (h & 0xFFFF) / 65536.0 < self.p_hot:
            slot = (h >> 16) % self._hot_slots
            return self.base + slot * self.granule
        slot = (h >> 16) % self._cold_slots
        return self.base + self.hot_size + slot * self.granule
