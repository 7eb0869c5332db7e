"""Per-thread-unit memory system: L1D + sidecar (WEC / VC / PB) + L1I.

This module implements the access protocols of Figures 5 and 6 of the
paper.  Each :class:`TUMemSystem` owns a private L1 data cache, a
private L1 instruction cache, and at most one *sidecar* — a small
fully-associative structure beside the L1D whose policy depends on the
machine configuration:

``SidecarKind.WEC`` (configuration ``wth-wp-wec``)
    * correct load, L1 miss, WEC hit → block is transferred to the L1
      **and** the L1 victim is swapped into the WEC; if the block was
      brought by wrong execution or by a prefetch, a next-line prefetch
      into the WEC fires (tag cleared);
    * correct load, both miss → fill the L1 from L2/memory, victim into
      the WEC (victim caching);
    * wrong-execution load, both miss → fill the **WEC only** (marked
      ``WRONG``), never the L1 — this is the pollution elimination;
    * wrong-execution load, WEC hit → LRU refresh only.

``SidecarKind.VICTIM`` (``vc``, ``wth-wp-vc``)
    Jouppi victim cache: swap on VC hit, victims on fills.  Wrong
    loads (when enabled) fill the *L1* — the pollution the WEC removes.

``SidecarKind.PREFETCH`` (``nlp``)
    Tagged next-line prefetching: prefetch on miss and on first hit to
    a prefetched block; prefetched blocks wait in the buffer and are
    promoted to the L1 on their first demand hit.

``SidecarKind.NONE`` (``orig``, ``wp``, ``wth``, ``wth-wp``)
    Plain L1; wrong loads (when enabled) allocate straight into it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..common.config import CacheConfig, SidecarConfig, SidecarKind
from ..common.stats import CounterGroup
from ..obs.attrib import PROV_NLP
from ..obs.events import (
    CAT_MEM,
    CAT_WEC,
    L1_FILL,
    L1_MISS,
    WEC_HIT,
    WEC_NLP,
    WRONG_FILL,
)
from .cache import DIRTY, PF_FAR, PREFETCHED, WRONG, SetAssocCache
from .fully_assoc import FullyAssocBuffer
from .l2 import SharedL2

__all__ = ["TUMemSystem"]

#: Latency of an access satisfied by the L1 or by a parallel sidecar hit.
HIT_LATENCY = 1


class TUMemSystem:
    """One thread unit's private view of the memory hierarchy."""

    __slots__ = (
        "tu_id",
        "l1d",
        "l1i",
        "sidecar_kind",
        "sidecar",
        "l2",
        "stats",
        "load_correct",
        "store_correct",
        "load_wrong",
        "prefetch_late_cycles",
        "prefetch_late_far_cycles",
        "_obs",
        "_obs_wec",
        "_attrib",
    )

    def __init__(
        self,
        tu_id: int,
        l1d_cfg: CacheConfig,
        l1i_cfg: CacheConfig,
        sidecar_cfg: SidecarConfig,
        l2: SharedL2,
        prefetch_late_cycles: float = 6.0,
        prefetch_late_far_cycles: float = 150.0,
        tracer=None,
        sanitizer=None,
        attrib=None,
    ) -> None:
        self.tu_id = tu_id
        self.prefetch_late_cycles = prefetch_late_cycles
        self.prefetch_late_far_cycles = prefetch_late_far_cycles
        self.l1d = SetAssocCache(l1d_cfg)
        self.l1i = SetAssocCache(l1i_cfg)
        self.sidecar_kind = sidecar_cfg.kind
        self.l2 = l2
        self.stats = CounterGroup(f"tu{tu_id}.mem")
        live = tracer is not None and tracer.enabled
        self._obs = tracer if live and tracer.wants(CAT_MEM) else None
        self._obs_wec = tracer if live and tracer.wants(CAT_WEC) else None
        self._attrib = attrib if attrib is not None and attrib.enabled else None
        self.l1d.attach_tracer(tracer, tu_id)
        if sidecar_cfg.kind is SidecarKind.NONE:
            self.sidecar: Optional[FullyAssocBuffer] = None
        else:
            self.sidecar = FullyAssocBuffer(
                sidecar_cfg.entries, name=f"tu{tu_id}.{sidecar_cfg.kind.value}"
            )
            self.sidecar.attach_tracer(tracer, tu_id)
        # Bind the policy methods once (avoids per-access dispatch).
        kind = sidecar_cfg.kind
        self.load_correct: Callable[[int], int]
        self.store_correct: Callable[[int], int]
        self.load_wrong: Callable[[int], int]
        if kind is SidecarKind.WEC:
            self.load_correct = self._load_correct_wec
            self.store_correct = self._store_correct_wec
            self.load_wrong = self._load_wrong_wec
        elif kind is SidecarKind.VICTIM:
            self.load_correct = self._load_correct_vc
            self.store_correct = self._store_correct_vc
            self.load_wrong = self._load_wrong_vc
        elif kind is SidecarKind.PREFETCH:
            self.load_correct = self._load_correct_nlp
            self.store_correct = self._store_correct_nlp
            self.load_wrong = self._load_wrong_nlp
        else:
            self.load_correct = self._load_correct_plain
            self.store_correct = self._store_correct_plain
            self.load_wrong = self._load_wrong_plain
        if sanitizer is not None:
            # Re-bind the policy slots with invariant-checking wrappers;
            # they observe only through non-mutating probe/__contains__,
            # so sanitized runs stay bit-identical (repro.lint.sanitize).
            sanitizer.attach_memory_checks(self)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _byte(self, block: int) -> int:
        """Back-convert an L1 block address to a byte address for the L2."""
        return block << self.l1d.block_bits

    def _writeback(self, block: int) -> None:
        self.stats.counter("writebacks").add()
        self.l2.writeback(self._byte(block), self.tu_id)

    def _evict_to_sidecar(self, evicted: Optional[tuple]) -> None:
        """Place an L1 victim into the sidecar (victim-caching path)."""
        if evicted is None:
            return
        block, flags = evicted
        self.stats.counter("victims_to_sidecar").add()
        assert self.sidecar is not None
        att = self._attrib
        if att is not None:
            att.on_demote(self.tu_id, block)
        bumped = self.sidecar.insert(block, flags)
        if bumped is not None:
            if att is not None:
                att.on_evict(self.tu_id, bumped[0], from_sidecar=True)
            if bumped[1] & DIRTY:
                self._writeback(bumped[0])

    def _evict_to_l2(self, evicted: Optional[tuple]) -> None:
        """Drop an L1 victim, writing it back if dirty."""
        if evicted is None:
            return
        if self._attrib is not None:
            self._attrib.on_evict(self.tu_id, evicted[0])
        if evicted[1] & DIRTY:
            self._writeback(evicted[0])

    def _fill_from_l2(self, block: int, wrong: bool = False, prefetch: bool = False) -> int:
        """Fetch a block from the next level; returns the fill latency."""
        latency = self.l2.read(self._byte(block), self.tu_id, wrong=wrong, prefetch=prefetch)
        if self._obs is not None and not prefetch:
            self._obs.emit(WRONG_FILL if wrong else L1_FILL, self.tu_id, block, latency)
        return latency

    def _prefetch_next_into_sidecar(self, block: int) -> None:
        """Next-line prefetch into the WEC / prefetch buffer (§3.2.1)."""
        target = block + 1
        assert self.sidecar is not None
        if target in self.l1d or target in self.sidecar:
            return
        self.stats.counter("prefetches").add()
        latency = self._fill_from_l2(target, prefetch=True)
        if self._obs_wec is not None:
            self._obs_wec.emit(WEC_NLP, self.tu_id, target, latency)
        att = self._attrib
        if att is not None:
            att.on_prefetch_fill(self.tu_id, target, latency, PROV_NLP)
        flags = PREFETCHED
        if latency > self.l2.cfg.l2.hit_latency:
            flags |= PF_FAR
        bumped = self.sidecar.insert(target, flags)
        if bumped is not None:
            if att is not None:
                att.on_evict(self.tu_id, bumped[0], from_sidecar=True)
            if bumped[1] & DIRTY:
                self._writeback(bumped[0])

    def _count_usefulness(self, block: int, flags: int) -> None:
        """Attribute a correct-path sidecar hit to wrong execution / prefetching."""
        if self._obs_wec is not None:
            self._obs_wec.emit(WEC_HIT, self.tu_id, block, flags)
        if flags & WRONG:
            self.stats.counter("useful_wrong_hits").add()
        if flags & PREFETCHED:
            self.stats.counter("useful_prefetch_hits").add()

    def _late_charge(self, flags: int) -> float:
        """Outstanding-fill penalty on first use of a prefetched block.

        The charge can never exceed what is physically outstanding:
        three quarters of the actual fill latency.
        """
        if flags & PF_FAR:
            return min(
                self.prefetch_late_far_cycles,
                0.75 * self.l2.memory.latency,
            )
        return self.prefetch_late_cycles

    # ------------------------------------------------------------------
    # WEC policy (Figure 6)
    # ------------------------------------------------------------------

    def _load_correct_wec(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("loads").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if att is not None:
                att.on_use(self.tu_id, block)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block)
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            # L1 miss, WEC hit: promote to L1, swap the L1 victim into the
            # WEC slot, and prefetch the next line when the block owes its
            # presence to wrong execution or to a previous prefetch.
            stats.counter("sidecar_hits").add()
            stats.counter("wec_promotions").add()
            self._count_usefulness(block, sflags)
            if att is not None:
                att.on_use(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, sflags & DIRTY)
            self._evict_to_sidecar(evicted)
            latency = HIT_LATENCY
            if sflags & (WRONG | PREFETCHED):
                self._prefetch_next_into_sidecar(block)
                if sflags & PREFETCHED and not sflags & WRONG:
                    # Next-line chain fill may still be in flight.
                    latency += self._late_charge(sflags)
            return latency
        # Miss in both: demand fill into the L1; the L1 victim goes to
        # the WEC (victim caching).
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, 0)
        self._evict_to_sidecar(evicted)
        return HIT_LATENCY + latency

    def _store_correct_wec(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("stores").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if att is not None:
                att.on_use(self.tu_id, block)
            if not flags & DIRTY:
                self.l1d.or_flags(block, DIRTY)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block, 1)
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            stats.counter("sidecar_hits").add()
            self._count_usefulness(block, sflags)
            if att is not None:
                att.on_use(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, DIRTY)
            self._evict_to_sidecar(evicted)
            return HIT_LATENCY
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, DIRTY)
        self._evict_to_sidecar(evicted)
        return HIT_LATENCY + latency

    def _load_wrong_wec(self, addr: int) -> int:
        stats = self.stats
        stats.counter("wrong_loads").add()
        block = addr >> self.l1d.block_bits
        if self.l1d.lookup(block) is not None:
            stats.counter("wrong_l1_hits").add()
            return HIT_LATENCY
        assert self.sidecar is not None
        if self.sidecar.lookup(block) is not None:
            stats.counter("wrong_sidecar_hits").add()
            return HIT_LATENCY
        # Fill the WEC only — never the L1 (pollution elimination).
        stats.counter("wrong_fills").add()
        latency = self._fill_from_l2(block, wrong=True)
        att = self._attrib
        if att is not None:
            att.on_wrong_fill(self.tu_id, block, latency)
        bumped = self.sidecar.insert(block, WRONG)
        if bumped is not None:
            if att is not None:
                att.on_evict(self.tu_id, bumped[0], from_sidecar=True)
            if bumped[1] & DIRTY:
                self._writeback(bumped[0])
        return HIT_LATENCY + latency

    # ------------------------------------------------------------------
    # Victim-cache policy (Jouppi)
    # ------------------------------------------------------------------

    def _load_correct_vc(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("loads").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if flags & WRONG:
                # Wrong loads fill the L1 under vc: first correct touch
                # settles their usefulness (mirrors the plain path).
                stats.counter("useful_wrong_hits").add()
                self.l1d.clear_flags(block, WRONG)
            if att is not None:
                att.on_use(self.tu_id, block)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block)
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            stats.counter("sidecar_hits").add()
            self._count_usefulness(block, sflags)
            if att is not None:
                att.on_use(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, sflags & DIRTY)
            self._evict_to_sidecar(evicted)
            return HIT_LATENCY
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, 0)
        self._evict_to_sidecar(evicted)
        return HIT_LATENCY + latency

    def _store_correct_vc(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("stores").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if att is not None:
                att.on_use(self.tu_id, block)
            if not flags & DIRTY:
                self.l1d.or_flags(block, DIRTY)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block, 1)
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            stats.counter("sidecar_hits").add()
            self._count_usefulness(block, sflags)
            if att is not None:
                att.on_use(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, DIRTY)
            self._evict_to_sidecar(evicted)
            return HIT_LATENCY
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, DIRTY)
        self._evict_to_sidecar(evicted)
        return HIT_LATENCY + latency

    def _load_wrong_vc(self, addr: int) -> int:
        """Wrong-execution load with only a victim cache (``wth-wp-vc``).

        The load behaves like a demand load for the caches — filling the
        L1 and potentially polluting it — which is exactly the behaviour
        the WEC is designed to eliminate.
        """
        stats = self.stats
        stats.counter("wrong_loads").add()
        block = addr >> self.l1d.block_bits
        if self.l1d.lookup(block) is not None:
            stats.counter("wrong_l1_hits").add()
            return HIT_LATENCY
        assert self.sidecar is not None
        att = self._attrib
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            stats.counter("wrong_sidecar_hits").add()
            if att is not None:
                att.on_wrong_promote(self.tu_id, block)
            self.sidecar.remove(block)
            # Mark the promotion WRONG (as the nlp path does): the block
            # owes its L1 residency to wrong execution, so its first
            # correct touch settles the usefulness question.
            evicted = self.l1d.insert(block, (sflags & DIRTY) | WRONG)
            self._evict_to_sidecar(evicted)
            return HIT_LATENCY
        stats.counter("wrong_fills").add()
        latency = self._fill_from_l2(block, wrong=True)
        if att is not None:
            att.on_wrong_fill(self.tu_id, block, latency)
        evicted = self.l1d.insert(block, WRONG)
        self._evict_to_sidecar(evicted)
        return HIT_LATENCY + latency

    # ------------------------------------------------------------------
    # Tagged next-line prefetching (nlp)
    # ------------------------------------------------------------------

    def _load_correct_nlp(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("loads").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if flags & WRONG:
                # Wrong loads fill (or promote into) the L1 under nlp:
                # settle their usefulness on first correct touch.
                stats.counter("useful_wrong_hits").add()
                self.l1d.clear_flags(block, WRONG)
            if att is not None:
                att.on_use(self.tu_id, block)
            if flags & PREFETCHED:
                # First demand touch of a prefetched block: re-arm.
                late = self._late_charge(flags)
                self.l1d.clear_flags(block, PREFETCHED | PF_FAR)
                stats.counter("useful_prefetch_hits").add()
                self._prefetch_next_into_sidecar(block)
                return HIT_LATENCY + late
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block)
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            # First hit to a prefetched block waiting in the buffer:
            # promote it and prefetch the next line (tagged prefetching).
            stats.counter("sidecar_hits").add()
            self._count_usefulness(block, sflags)
            if att is not None:
                att.on_use(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, sflags & DIRTY)
            self._evict_to_l2(evicted)
            self._prefetch_next_into_sidecar(block)
            return HIT_LATENCY + (
                self._late_charge(sflags) if sflags & PREFETCHED else 0.0
            )
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, 0)
        self._evict_to_l2(evicted)
        # Prefetch on miss (Smith/Hsu tagged prefetching).
        self._prefetch_next_into_sidecar(block)
        return HIT_LATENCY + latency

    def _store_correct_nlp(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("stores").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if att is not None:
                att.on_use(self.tu_id, block)
            if not flags & DIRTY:
                self.l1d.or_flags(block, DIRTY)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block, 1)
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            stats.counter("sidecar_hits").add()
            self._count_usefulness(block, sflags)
            if att is not None:
                att.on_use(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, DIRTY)
            self._evict_to_l2(evicted)
            return HIT_LATENCY
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, DIRTY)
        self._evict_to_l2(evicted)
        return HIT_LATENCY + latency

    # ------------------------------------------------------------------
    # Plain policy (orig / wp / wth / wth-wp): no sidecar
    # ------------------------------------------------------------------

    def _load_correct_plain(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("loads").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if flags & WRONG:
                stats.counter("useful_wrong_hits").add()
                self.l1d.clear_flags(block, WRONG)
            if att is not None:
                att.on_use(self.tu_id, block)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block)
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, 0)
        self._evict_to_l2(evicted)
        return HIT_LATENCY + latency

    def _store_correct_plain(self, addr: int) -> int:
        stats = self.stats
        att = self._attrib
        stats.counter("stores").add()
        block = addr >> self.l1d.block_bits
        flags = self.l1d.lookup(block)
        if flags is not None:
            stats.counter("l1_hits").add()
            if att is not None:
                att.on_use(self.tu_id, block)
            if not flags & DIRTY:
                self.l1d.or_flags(block, DIRTY)
            return HIT_LATENCY
        stats.counter("l1_misses").add()
        if self._obs is not None:
            self._obs.emit(L1_MISS, self.tu_id, block, 1)
        stats.counter("demand_fills").add()
        latency = self._fill_from_l2(block)
        if att is not None:
            att.on_demand_fill(self.tu_id, block)
        evicted = self.l1d.insert(block, DIRTY)
        self._evict_to_l2(evicted)
        return HIT_LATENCY + latency

    def _load_wrong_nlp(self, addr: int) -> int:
        """Wrong-execution load under nlp.

        The paper's ``nlp`` configuration never wrong-executes, but the
        policy stays coherent if a caller enables it anyway: a block
        waiting in the prefetch buffer is promoted rather than
        double-allocated, preserving L1/sidecar exclusivity.
        """
        stats = self.stats
        att = self._attrib
        stats.counter("wrong_loads").add()
        block = addr >> self.l1d.block_bits
        if self.l1d.lookup(block) is not None:
            stats.counter("wrong_l1_hits").add()
            return HIT_LATENCY
        assert self.sidecar is not None
        sflags = self.sidecar.probe(block)
        if sflags is not None:
            stats.counter("wrong_sidecar_hits").add()
            if att is not None:
                att.on_wrong_promote(self.tu_id, block)
            self.sidecar.remove(block)
            evicted = self.l1d.insert(block, (sflags & DIRTY) | WRONG)
            self._evict_to_l2(evicted)
            return HIT_LATENCY
        stats.counter("wrong_fills").add()
        latency = self._fill_from_l2(block, wrong=True)
        if att is not None:
            att.on_wrong_fill(self.tu_id, block, latency)
        evicted = self.l1d.insert(block, WRONG)
        self._evict_to_l2(evicted)
        return HIT_LATENCY + latency

    def _load_wrong_plain(self, addr: int) -> int:
        """Wrong-execution load with no sidecar: fills (and pollutes) the L1."""
        stats = self.stats
        att = self._attrib
        stats.counter("wrong_loads").add()
        block = addr >> self.l1d.block_bits
        if self.l1d.lookup(block) is not None:
            stats.counter("wrong_l1_hits").add()
            return HIT_LATENCY
        stats.counter("wrong_fills").add()
        latency = self._fill_from_l2(block, wrong=True)
        if att is not None:
            att.on_wrong_fill(self.tu_id, block, latency)
        evicted = self.l1d.insert(block, WRONG)
        self._evict_to_l2(evicted)
        return HIT_LATENCY + latency

    # ------------------------------------------------------------------
    # Instruction fetch
    # ------------------------------------------------------------------

    def ifetch(self, addr: int) -> int:
        """Fetch an instruction block through the private L1 I-cache."""
        stats = self.stats
        stats.counter("ifetches").add()
        block = addr >> self.l1i.block_bits
        if self.l1i.lookup(block) is not None:
            return HIT_LATENCY
        stats.counter("l1i_misses").add()
        latency = self.l2.read(block << self.l1i.block_bits, self.tu_id)
        self.l1i.insert(block, 0)
        return HIT_LATENCY + latency

    # ------------------------------------------------------------------
    # Coherence hook (update protocol during sequential execution, §3.2.2)
    # ------------------------------------------------------------------

    def bus_update(self, addr: int) -> bool:
        """Apply a remote store's update if this TU caches the block.

        Returns True when an update was applied.  The update protocol
        keeps remote copies valid (no invalidation), so no state change
        beyond accounting is required in a value-free simulation.
        """
        block = addr >> self.l1d.block_bits
        present = (self.l1d.probe(block) is not None) or (
            self.sidecar is not None and self.sidecar.probe(block) is not None
        )
        if present:
            self.stats.counter("bus_updates").add()
        return present

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def l1_traffic(self) -> int:
        """Processor↔L1 data traffic: all loads, stores and wrong loads."""
        s = self.stats
        return s["loads"] + s["stores"] + s["wrong_loads"]

    @property
    def effective_misses(self) -> int:
        """Correct-path misses that had to be serviced beyond L1+sidecar."""
        return self.stats["demand_fills"]

    def l1_miss_rate(self) -> float:
        """Correct-path L1 miss rate."""
        s = self.stats
        total = s["loads"] + s["stores"]
        return s["l1_misses"] / total if total else 0.0

    def reset(self) -> None:
        """Drop cached state and statistics (the shared L2 is untouched)."""
        self.l1d.flush()
        self.l1i.flush()
        if self.sidecar is not None:
            self.sidecar.flush()
        self.stats.reset()
