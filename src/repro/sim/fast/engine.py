"""The fast-path engine: batched trace replay over compiled regions.

This module re-implements the oracle's hot loop — thread-unit stepping
and hierarchy lookups, per the hostprof ledger — as flat dict/list state
machines fed by :mod:`repro.sim.fast.compile`'s memoized traces.  The
speed comes from four places:

* trace generation is compiled and memoized per ``(seed, iteration)``
  (shared across every configuration of a sweep grid) with numpy-
  vectorized address binding;
* per-walk structure (event interleave, instruction mix, base cycles)
  is memoized per *path* and shared by all iterations taking it;
* the i-fetch loop collapses to its first pass over the code footprint
  (consecutive code blocks occupy distinct L1I sets, so repeat passes
  are hits by construction and contribute zero stall);
* counters are plain dicts and cache sets are plain insertion-ordered
  dicts, mutated inline without per-event attribute dispatch.

Bit-exactness contract: every counter update, LRU movement and float
operation below replays the oracle's in the same order with the same
operand grouping.  The differential suite
(``tests/test_fast_engine.py``) enforces ``SimResult`` equality across
the full configuration ladder; any divergence is a bug in one of the
two engines, never tolerable noise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ...common.config import MachineConfig, SidecarKind, SimParams
from ...common.errors import SimulationError
from ...branch.predictors import make_predictor
from ...core.thread_unit import SEQ_SPLIT
from ...core.timing import STORE_STALL_WEIGHT, CoreTimingModel
from ...isa.encoding import EV_BRANCH, EV_LOAD, EV_TSTORE
from ...mem.cache import DIRTY, PF_FAR, PREFETCHED, WRONG
from ...mem.layout import geometry_of
from ...sta.scheduler import compose_pipeline_step
from ...workloads.program import ParallelRegionSpec, Program
from ..results import SimResult
from .compile import CompiledRegion, ProgramMemo, program_memo
from .streams import FastStreamFactory

__all__ = ["run_program_fast"]


# Branch-outcome streams shared across configurations.  For a fixed
# (program, seed, n_tus, branch geometry) the sequence of branch-unit
# inputs — which TU resolves which (pc, taken) pairs in which order —
# is the same under every memory-system configuration: wrong-path and
# wrong-thread loads never touch the predictor or BTB, and the
# iteration-to-TU schedule depends only on the program and n_tus.  The
# first run of a sweep grid records, per execute() call, the branch
# outcomes ``(n_branches, btb_target_misses, mispredicted_indices)``;
# every later configuration replays them, skipping predictor/BTB
# simulation entirely.  Streams live in the program's memo
# (``ProgramMemo.branch_streams``) and are freed with the program.
#
# One record per execute() call: ``[n_branches, btb_target_misses,
# mispredicted_indices, wp_events, mem_events]``.  The last two slots
# cache the replayed event lists (lazily filled on first use): the
# execute order of a run is deterministic, so record ``i`` always
# replays the same path content under every configuration — wp_events
# keeps loads/stores plus only the mispredicted branch events,
# mem_events drops branch events entirely.
_BranchStream = List[list]


class _RegionInfo:
    """Per-region constants resolved once per run."""

    __slots__ = (
        "compiled", "ilp", "split", "fork_cost", "coupling",
        "code_base", "ifetch_fast", "wth_max_iters",
    )

    def __init__(self, compiled: CompiledRegion, cfg: MachineConfig,
                 l1i_n_sets: int, l1i_block_size: int) -> None:
        region = compiled.region
        self.compiled = compiled
        self.ilp = region.ilp
        self.split = region.stage_split if compiled.is_parallel else SEQ_SPLIT
        self.coupling = region.dep_coupling if compiled.is_parallel else 0.0
        self.fork_cost = (
            cfg.fork_delay + cfg.comm_cycles_per_value * region.n_forward_values
            if compiled.is_parallel
            else 0
        )
        self.code_base = compiled.ifetch_base_block << 6
        # The first-pass-only i-fetch shortcut needs consecutive code
        # blocks to land in distinct L1I sets and the trace's 64-byte
        # granularity to be the L1I's own.
        self.ifetch_fast = (
            l1i_block_size == 64 and compiled.ifetch_footprint <= l1i_n_sets
        )
        self.wth_max_iters = region.wrong_exec.wth_max_iters


class _FastL2:
    """Shared L2 + main memory as one flat state machine."""

    __slots__ = (
        "sets", "mask", "assoc", "block_bits", "hit_latency", "mem_latency",
        "c", "memc",
    )

    def __init__(self, cfg: MachineConfig) -> None:
        geo = geometry_of(cfg.mem.l2)
        # Sets materialize lazily: tiny-scale runs touch a small fraction
        # of 1024 L2 sets, and building empty dicts up front is a
        # measurable share of per-run wall time.
        self.sets: Dict[int, Dict[int, int]] = defaultdict(dict)
        self.mask = geo.set_mask
        self.assoc = geo.assoc
        self.block_bits = geo.block_bits
        self.hit_latency = cfg.mem.l2.hit_latency
        self.mem_latency = cfg.mem.memory_latency
        self.c: Dict[str, int] = defaultdict(int)
        self.memc: Dict[str, int] = defaultdict(int)

    def read(self, byte_addr: int, wrong: bool = False,
             prefetch: bool = False) -> int:
        c = self.c
        c["accesses"] += 1
        if wrong:
            c["wrong_accesses"] += 1
        if prefetch:
            c["prefetch_accesses"] += 1
        block = byte_addr >> self.block_bits
        s = self.sets[block & self.mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            c["hits"] += 1
            return self.hit_latency
        c["misses"] += 1
        memc = self.memc
        memc["reads"] += 1
        if len(s) >= self.assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                memc["writes"] += 1
                c["writebacks_to_memory"] += 1
        s[block] = 0
        return self.mem_latency

    def writeback(self, byte_addr: int) -> None:
        c = self.c
        c["writebacks_in"] += 1
        block = byte_addr >> self.block_bits
        s = self.sets[block & self.mask]
        flags = s.get(block)
        if flags is not None:
            # lookup-then-set_flags, as the oracle does: LRU refresh.
            del s[block]
            s[block] = flags | DIRTY
            return
        if len(s) >= self.assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                memc = self.memc
                memc["writes"] += 1
                c["writebacks_to_memory"] += 1
        s[block] = DIRTY


class _FastTU:
    """One thread unit: L1D/L1I/sidecar, branch unit, membuf, counters."""

    __slots__ = (
        "eng", "tu_id", "l2",
        "core", "m", "bp", "mb",
        "l1d_sets", "l1d_mask", "l1d_assoc", "l1d_bits",
        "l1i_sets", "l1i_mask", "l1i_assoc", "l1i_bits",
        "l1i_rid", "l1i_warm_n",
        "side", "side_cap", "load_hit_mask",
        "sd_table", "sd_cap", "sd_depth",
        "mb_stores", "mb_upstream", "mb_arrived", "mb_cap",
        "predictor", "bp_table", "bp_mask",
        "btb_sets", "btb_nsets", "btb_assoc",
        "penalty", "wrong_path", "wrong_fill_charge",
        "late_near", "late_far",
        "load_correct", "store_correct", "load_wrong",
    )

    def __init__(self, eng: "_FastMachine", tu_id: int) -> None:
        cfg = eng.cfg
        params = eng.params
        tu = cfg.tu
        self.eng = eng
        self.tu_id = tu_id
        self.l2 = eng.l2
        self.core: Dict[str, int] = defaultdict(int)
        self.m: Dict[str, int] = defaultdict(int)
        self.bp: Dict[str, int] = defaultdict(int)
        self.mb: Dict[str, int] = defaultdict(int)
        d = geometry_of(tu.l1d)
        self.l1d_sets: Dict[int, Dict[int, int]] = defaultdict(dict)
        self.l1d_mask = d.set_mask
        self.l1d_assoc = d.assoc
        self.l1d_bits = d.block_bits
        i = geometry_of(tu.l1i)
        self.l1i_sets: Dict[int, Dict[int, int]] = defaultdict(dict)
        self.l1i_mask = i.set_mask
        self.l1i_assoc = i.assoc
        self.l1i_bits = i.block_bits
        # Warm-prefix state for the i-fetch shortcut: the region whose
        # code this TU fetched last, and how many of its leading code
        # blocks are known resident-and-MRU (see execute()).
        self.l1i_rid = -1
        self.l1i_warm_n = 0
        kind = tu.sidecar.kind
        self.side: Optional[Dict[int, int]] = (
            None if kind is SidecarKind.NONE else {}
        )
        self.side_cap = tu.sidecar.entries
        self.sd_table: Dict[int, int] = {}
        self.sd_cap = 16
        self.sd_depth = 2
        self.mb_stores: Dict[int, bool] = {}
        self.mb_upstream: set = set()
        self.mb_arrived: set = set()
        self.mb_cap = tu.mem_buffer_entries
        if tu.branch.kind == "bimodal":
            # Inlined in execute(): a bimodal predictor is one table of
            # 2-bit saturating counters, cheap to keep as a flat list.
            self.predictor = None
            self.bp_table = [2] * (1 << tu.branch.table_bits)
            self.bp_mask = (1 << tu.branch.table_bits) - 1
        else:
            self.predictor = make_predictor(tu.branch)
            self.bp_table = None
            self.bp_mask = 0
        self.btb_nsets = tu.branch.btb_entries // tu.branch.btb_assoc
        self.btb_assoc = tu.branch.btb_assoc
        self.btb_sets: Dict[int, Dict[int, int]] = defaultdict(dict)
        self.penalty = tu.branch.mispredict_penalty
        self.wrong_path = cfg.wrong_exec.wrong_path
        self.wrong_fill_charge = (
            0.0 if kind is SidecarKind.WEC else params.wrong_fill_mshr_fraction
        )
        self.late_near = params.prefetch_late_cycles
        self.late_far = min(
            params.prefetch_late_far_cycles, 0.75 * eng.l2.mem_latency
        )
        # ``load_hit_mask``: flag bits that make an L1D load hit take a
        # policy-specific path (flag clearing, late charge, chained
        # prefetch).  A hit with none of these bits set behaves the same
        # under every policy — refresh, count, 1 cycle — and is inlined
        # in execute(); flagged hits drop into the policy method.
        if kind is SidecarKind.WEC:
            self.load_correct = self._load_correct_wec
            self.store_correct = self._store_correct_sidecar
            self.load_wrong = self._load_wrong_wec
            self.load_hit_mask = 0  # WEC hits never inspect flags
        elif kind is SidecarKind.VICTIM:
            self.load_correct = self._load_correct_vc
            self.store_correct = self._store_correct_sidecar
            self.load_wrong = self._load_wrong_vc
            self.load_hit_mask = WRONG
        elif kind is SidecarKind.PREFETCH:
            self.load_correct = self._load_correct_nlp
            self.store_correct = self._store_correct_nlp
            self.load_wrong = self._load_wrong_nlp
            self.load_hit_mask = WRONG | PREFETCHED
        elif kind is SidecarKind.STREAM:
            self.load_correct = self._load_correct_stream
            self.store_correct = self._store_correct_nlp
            self.load_wrong = self._load_wrong_nlp
            self.load_hit_mask = WRONG | PREFETCHED
        else:
            self.load_correct = self._load_correct_plain
            self.store_correct = self._store_correct_plain
            self.load_wrong = self._load_wrong_plain
            self.load_hit_mask = WRONG

    # -- shared memory-system helpers ----------------------------------

    def _writeback(self, block: int) -> None:
        m = self.m
        m["writebacks"] += 1
        self.l2.writeback(block << self.l1d_bits)

    def _side_insert(self, block: int, flags: int) -> None:
        """Sidecar insert + dirty-bump writeback (no victim accounting)."""
        side = self.side
        if block in side:
            del side[block]
            side[block] = flags
            return
        if len(side) >= self.side_cap:
            victim = next(iter(side))
            vflags = side[victim]
            del side[victim]
            if vflags & DIRTY:
                self._writeback(victim)
        side[block] = flags

    # The four fused fill/promote helpers below collapse the oracle's
    # read → insert → evict call chain into one frame.  Every call site
    # runs strictly after the L1D probe for ``block`` missed (fill paths
    # are miss paths, and flagged-hit paths return before filling), so
    # the inlined insert skips the LRU-refresh branch a general insert
    # would need.  The inlined L2 read is a literal transcription of
    # :meth:`_FastL2.read`; state-mutation order matches the unfused
    # sequence (L2 read first, then the L1 victim's writeback).

    def _fill_evict_l2(self, block: int, flags: int, wrong: bool = False) -> int:
        """Demand fill: L2 read, L1D insert, dirty victim → L2."""
        l2 = self.l2
        c2 = l2.c
        c2["accesses"] += 1
        if wrong:
            c2["wrong_accesses"] += 1
        b2 = (block << self.l1d_bits) >> l2.block_bits
        s2 = l2.sets[b2 & l2.mask]
        f2 = s2.get(b2)
        if f2 is not None:
            del s2[b2]
            s2[b2] = f2
            c2["hits"] += 1
            latency = l2.hit_latency
        else:
            c2["misses"] += 1
            memc = l2.memc
            memc["reads"] += 1
            if len(s2) >= l2.assoc:
                v2 = next(iter(s2))
                vf2 = s2[v2]
                del s2[v2]
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        s = self.l1d_sets[block & self.l1d_mask]
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                self.m["writebacks"] += 1
                l2.writeback(victim << self.l1d_bits)
        s[block] = flags
        return latency

    def _fill_evict_side(self, block: int, flags: int, wrong: bool = False) -> int:
        """Demand fill: L2 read, L1D insert, victim → sidecar."""
        l2 = self.l2
        c2 = l2.c
        c2["accesses"] += 1
        if wrong:
            c2["wrong_accesses"] += 1
        b2 = (block << self.l1d_bits) >> l2.block_bits
        s2 = l2.sets[b2 & l2.mask]
        f2 = s2.get(b2)
        if f2 is not None:
            del s2[b2]
            s2[b2] = f2
            c2["hits"] += 1
            latency = l2.hit_latency
        else:
            c2["misses"] += 1
            memc = l2.memc
            memc["reads"] += 1
            if len(s2) >= l2.assoc:
                v2 = next(iter(s2))
                vf2 = s2[v2]
                del s2[v2]
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        s = self.l1d_sets[block & self.l1d_mask]
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            self.m["victims_to_sidecar"] += 1
            self._side_insert(victim, vflags)
        s[block] = flags
        return latency

    def _promote_evict_l2(self, block: int, flags: int) -> None:
        """Sidecar-hit promote: L1D insert, dirty victim → L2."""
        s = self.l1d_sets[block & self.l1d_mask]
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                self.m["writebacks"] += 1
                self.l2.writeback(victim << self.l1d_bits)
        s[block] = flags

    def _promote_evict_side(self, block: int, flags: int) -> None:
        """Sidecar-hit promote: L1D insert, victim → sidecar."""
        s = self.l1d_sets[block & self.l1d_mask]
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            self.m["victims_to_sidecar"] += 1
            self._side_insert(victim, vflags)
        s[block] = flags

    # parity: repro.mem.hierarchy.TUMemSystem._prefetch_next_into_sidecar, repro.mem.hierarchy.TUMemSystem._prefetch_block_into_sidecar
    def _prefetch_block(self, target: int) -> None:
        """Fetch ``target`` into the sidecar (next-line and stream)."""
        if target in self.l1d_sets[target & self.l1d_mask] or target in self.side:
            return
        m = self.m
        m["prefetches"] += 1
        l2 = self.l2
        c2 = l2.c
        c2["accesses"] += 1
        c2["prefetch_accesses"] += 1
        b2 = (target << self.l1d_bits) >> l2.block_bits
        s2 = l2.sets[b2 & l2.mask]
        f2 = s2.get(b2)
        if f2 is not None:
            del s2[b2]
            s2[b2] = f2
            c2["hits"] += 1
            latency = l2.hit_latency
        else:
            c2["misses"] += 1
            memc = l2.memc
            memc["reads"] += 1
            if len(s2) >= l2.assoc:
                v2 = next(iter(s2))
                vf2 = s2[v2]
                del s2[v2]
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        flags = PREFETCHED
        if latency > l2.hit_latency:
            flags |= PF_FAR
        self._side_insert(target, flags)

    # -- WEC policy ----------------------------------------------------

    # parity: repro.mem.hierarchy.TUMemSystem._load_correct_wec
    def _load_correct_wec(self, addr: int):
        m = self.m
        m["loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            return 1
        m["l1_misses"] += 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["sidecar_hits"] += 1
            m["wec_promotions"] += 1
            if sflags & WRONG:
                m["useful_wrong_hits"] += 1
            if sflags & PREFETCHED:
                m["useful_prefetch_hits"] += 1
            del side[block]
            self._promote_evict_side(block, sflags & DIRTY)
            latency = 1
            if sflags & (WRONG | PREFETCHED):
                self._prefetch_block(block + 1)
                if sflags & PREFETCHED and not sflags & WRONG:
                    latency += (
                        self.late_far if sflags & PF_FAR else self.late_near
                    )
            return latency
        m["demand_fills"] += 1
        return 1 + self._fill_evict_side(block, 0)

    # parity: repro.mem.hierarchy.TUMemSystem._store_correct_wec, repro.mem.hierarchy.TUMemSystem._store_correct_vc
    def _store_correct_sidecar(self, addr: int):
        """Store under WEC and VC policies (identical in the oracle)."""
        m = self.m
        m["stores"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            if not flags & DIRTY:
                s[block] = flags | DIRTY
            return 1
        m["l1_misses"] += 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["sidecar_hits"] += 1
            if sflags & WRONG:
                m["useful_wrong_hits"] += 1
            if sflags & PREFETCHED:
                m["useful_prefetch_hits"] += 1
            del side[block]
            self._promote_evict_side(block, DIRTY)
            return 1
        m["demand_fills"] += 1
        return 1 + self._fill_evict_side(block, DIRTY)

    # parity: repro.mem.hierarchy.TUMemSystem._load_wrong_wec
    def _load_wrong_wec(self, addr: int):
        m = self.m
        m["wrong_loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["wrong_l1_hits"] += 1
            return 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            # Oracle uses lookup(): LRU refresh on a wrong WEC hit.
            del side[block]
            side[block] = sflags
            m["wrong_sidecar_hits"] += 1
            return 1
        m["wrong_fills"] += 1
        latency = self.l2.read(block << self.l1d_bits, wrong=True)
        self._side_insert(block, WRONG)
        return 1 + latency

    # -- victim-cache policy -------------------------------------------

    # parity: repro.mem.hierarchy.TUMemSystem._load_correct_vc
    def _load_correct_vc(self, addr: int):
        m = self.m
        m["loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            if flags & WRONG:
                m["useful_wrong_hits"] += 1
                s[block] = flags & ~WRONG
            return 1
        m["l1_misses"] += 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["sidecar_hits"] += 1
            if sflags & WRONG:
                m["useful_wrong_hits"] += 1
            if sflags & PREFETCHED:
                m["useful_prefetch_hits"] += 1
            del side[block]
            self._promote_evict_side(block, sflags & DIRTY)
            return 1
        m["demand_fills"] += 1
        return 1 + self._fill_evict_side(block, 0)

    # parity: repro.mem.hierarchy.TUMemSystem._load_wrong_vc
    def _load_wrong_vc(self, addr: int):
        m = self.m
        m["wrong_loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["wrong_l1_hits"] += 1
            return 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["wrong_sidecar_hits"] += 1
            del side[block]
            self._promote_evict_side(block, (sflags & DIRTY) | WRONG)
            return 1
        m["wrong_fills"] += 1
        return 1 + self._fill_evict_side(block, WRONG, wrong=True)

    # -- next-line prefetch policy -------------------------------------

    # parity: repro.mem.hierarchy.TUMemSystem._load_correct_nlp
    def _load_correct_nlp(self, addr: int):
        m = self.m
        m["loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            cur = flags
            if flags & WRONG:
                m["useful_wrong_hits"] += 1
                cur &= ~WRONG
                s[block] = cur
            if flags & PREFETCHED:
                late = self.late_far if flags & PF_FAR else self.late_near
                s[block] = cur & ~(PREFETCHED | PF_FAR)
                m["useful_prefetch_hits"] += 1
                self._prefetch_block(block + 1)
                return 1 + late
            return 1
        m["l1_misses"] += 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["sidecar_hits"] += 1
            if sflags & WRONG:
                m["useful_wrong_hits"] += 1
            if sflags & PREFETCHED:
                m["useful_prefetch_hits"] += 1
            del side[block]
            self._promote_evict_l2(block, sflags & DIRTY)
            self._prefetch_block(block + 1)
            if sflags & PREFETCHED:
                return 1 + (self.late_far if sflags & PF_FAR else self.late_near)
            return 1 + 0.0
        m["demand_fills"] += 1
        latency = self._fill_evict_l2(block, 0)
        self._prefetch_block(block + 1)
        return 1 + latency

    # parity: repro.mem.hierarchy.TUMemSystem._store_correct_nlp
    def _store_correct_nlp(self, addr: int):
        m = self.m
        m["stores"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            if not flags & DIRTY:
                s[block] = flags | DIRTY
            return 1
        m["l1_misses"] += 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["sidecar_hits"] += 1
            if sflags & WRONG:
                m["useful_wrong_hits"] += 1
            if sflags & PREFETCHED:
                m["useful_prefetch_hits"] += 1
            del side[block]
            self._promote_evict_l2(block, DIRTY)
            return 1
        m["demand_fills"] += 1
        return 1 + self._fill_evict_l2(block, DIRTY)

    # parity: repro.mem.hierarchy.TUMemSystem._load_wrong_nlp
    def _load_wrong_nlp(self, addr: int):
        m = self.m
        m["wrong_loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["wrong_l1_hits"] += 1
            return 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["wrong_sidecar_hits"] += 1
            del side[block]
            self._promote_evict_l2(block, (sflags & DIRTY) | WRONG)
            return 1
        m["wrong_fills"] += 1
        return 1 + self._fill_evict_l2(block, WRONG, wrong=True)

    # -- stream-prefetch policy ----------------------------------------
    #
    # The stream detector's insert/advance logic is inlined at its three
    # sites below (helper frames cost more than the logic itself): an
    # insert refreshes a present entry, else drops the FIFO-oldest at
    # capacity; a hit/miss on a tracked block pops it, chases
    # ``sd_depth`` blocks in its direction (non-negative targets only,
    # detector re-armed *before* the chase issues), and a miss with no
    # tracked stream arms both directions instead.

    def _stream_chase(self, block: int) -> None:
        """Pop + advance + chase for a prefetch-hit on ``block``."""
        table = self.sd_table
        direction = table.pop(block, None)
        if direction is None:
            direction = 1
        expected = block + direction
        if expected in table:
            del table[expected]
        elif len(table) >= self.sd_cap:
            del table[next(iter(table))]
        table[expected] = direction
        for i in range(1, self.sd_depth + 1):
            t = block + direction * i
            if t >= 0:
                self._prefetch_block(t)

    # parity: repro.mem.hierarchy.TUMemSystem._load_correct_stream
    def _load_correct_stream(self, addr: int):
        m = self.m
        m["loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            cur = flags
            if flags & WRONG:
                m["useful_wrong_hits"] += 1
                cur &= ~WRONG
                s[block] = cur
            if flags & PREFETCHED:
                late = self.late_far if flags & PF_FAR else self.late_near
                s[block] = cur & ~(PREFETCHED | PF_FAR)
                m["useful_prefetch_hits"] += 1
                self._stream_chase(block)
                return 1 + late
            return 1
        m["l1_misses"] += 1
        side = self.side
        sflags = side.get(block)
        if sflags is not None:
            m["sidecar_hits"] += 1
            if sflags & WRONG:
                m["useful_wrong_hits"] += 1
            if sflags & PREFETCHED:
                m["useful_prefetch_hits"] += 1
            del side[block]
            self._promote_evict_l2(block, sflags & DIRTY)
            self._stream_chase(block)
            if sflags & PREFETCHED:
                return 1 + (self.late_far if sflags & PF_FAR else self.late_near)
            return 1 + 0.0
        m["demand_fills"] += 1
        latency = self._fill_evict_l2(block, 0)
        table = self.sd_table
        direction = table.pop(block, None)
        if direction is not None:
            expected = block + direction
            if expected in table:
                del table[expected]
            elif len(table) >= self.sd_cap:
                del table[next(iter(table))]
            table[expected] = direction
            for i in range(1, self.sd_depth + 1):
                t = block + direction * i
                if t >= 0:
                    self._prefetch_block(t)
        else:
            for expected, d in ((block + 1, 1), (block - 1, -1)):
                if expected in table:
                    del table[expected]
                elif len(table) >= self.sd_cap:
                    del table[next(iter(table))]
                table[expected] = d
        return 1 + latency

    # -- plain policy --------------------------------------------------

    # parity: repro.mem.hierarchy.TUMemSystem._load_correct_plain
    def _load_correct_plain(self, addr: int):
        m = self.m
        m["loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            if flags & WRONG:
                m["useful_wrong_hits"] += 1
                s[block] = flags & ~WRONG
            return 1
        m["l1_misses"] += 1
        m["demand_fills"] += 1
        # Fill fused fully inline: the plain policy carries half the
        # config ladder, so even the one helper frame is worth shaving.
        l2 = self.l2
        c2 = l2.c
        c2["accesses"] += 1
        b2 = (block << self.l1d_bits) >> l2.block_bits
        s2 = l2.sets[b2 & l2.mask]
        f2 = s2.get(b2)
        if f2 is not None:
            del s2[b2]
            s2[b2] = f2
            c2["hits"] += 1
            latency = l2.hit_latency
        else:
            c2["misses"] += 1
            memc = l2.memc
            memc["reads"] += 1
            if len(s2) >= l2.assoc:
                v2 = next(iter(s2))
                vf2 = s2[v2]
                del s2[v2]
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                m["writebacks"] += 1
                l2.writeback(victim << self.l1d_bits)
        s[block] = 0
        return 1 + latency

    # parity: repro.mem.hierarchy.TUMemSystem._store_correct_plain
    def _store_correct_plain(self, addr: int):
        m = self.m
        m["stores"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["l1_hits"] += 1
            if not flags & DIRTY:
                s[block] = flags | DIRTY
            return 1
        m["l1_misses"] += 1
        m["demand_fills"] += 1
        l2 = self.l2
        c2 = l2.c
        c2["accesses"] += 1
        b2 = (block << self.l1d_bits) >> l2.block_bits
        s2 = l2.sets[b2 & l2.mask]
        f2 = s2.get(b2)
        if f2 is not None:
            del s2[b2]
            s2[b2] = f2
            c2["hits"] += 1
            latency = l2.hit_latency
        else:
            c2["misses"] += 1
            memc = l2.memc
            memc["reads"] += 1
            if len(s2) >= l2.assoc:
                v2 = next(iter(s2))
                vf2 = s2[v2]
                del s2[v2]
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                m["writebacks"] += 1
                l2.writeback(victim << self.l1d_bits)
        s[block] = DIRTY
        return 1 + latency

    # parity: repro.mem.hierarchy.TUMemSystem._load_wrong_plain
    def _load_wrong_plain(self, addr: int):
        m = self.m
        m["wrong_loads"] += 1
        block = addr >> self.l1d_bits
        s = self.l1d_sets[block & self.l1d_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            m["wrong_l1_hits"] += 1
            return 1
        m["wrong_fills"] += 1
        l2 = self.l2
        c2 = l2.c
        c2["accesses"] += 1
        c2["wrong_accesses"] += 1
        b2 = (block << self.l1d_bits) >> l2.block_bits
        s2 = l2.sets[b2 & l2.mask]
        f2 = s2.get(b2)
        if f2 is not None:
            del s2[b2]
            s2[b2] = f2
            c2["hits"] += 1
            latency = l2.hit_latency
        else:
            c2["misses"] += 1
            memc = l2.memc
            memc["reads"] += 1
            if len(s2) >= l2.assoc:
                v2 = next(iter(s2))
                vf2 = s2[v2]
                del s2[v2]
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        if len(s) >= self.l1d_assoc:
            victim = next(iter(s))
            vflags = s[victim]
            del s[victim]
            if vflags & DIRTY:
                m["writebacks"] += 1
                l2.writeback(victim << self.l1d_bits)
        s[block] = WRONG
        return 1 + latency

    # -- instruction fetch ---------------------------------------------

    # parity: repro.mem.hierarchy.TUMemSystem.ifetch
    def _ifetch(self, addr: int) -> int:
        m = self.m
        m["ifetches"] += 1
        block = addr >> self.l1i_bits
        s = self.l1i_sets[block & self.l1i_mask]
        flags = s.get(block)
        if flags is not None:
            del s[block]
            s[block] = flags
            return 1
        m["l1i_misses"] += 1
        latency = self.l2.read(block << self.l1i_bits)
        if len(s) >= self.l1i_assoc:
            del s[next(iter(s))]
        s[block] = 0
        return 1 + latency

    # -- coherence hook ------------------------------------------------

    # parity: repro.mem.hierarchy.TUMemSystem.bus_update
    def bus_update(self, addr: int) -> bool:
        block = addr >> self.l1d_bits
        present = block in self.l1d_sets[block & self.l1d_mask] or (
            self.side is not None and block in self.side
        )
        if present:
            m = self.m
            m["bus_updates"] += 1
        return present

    # -- branch resolve ------------------------------------------------

    # parity: repro.branch.frontend.BranchUnit.resolve
    def _resolve(self, pc: int, taken: bool) -> bool:
        bp = self.bp
        bp["branches"] += 1
        predicted_taken = self.predictor.predict(pc)
        mispredicted = predicted_taken != taken
        if predicted_taken:
            s = self.btb_sets[(pc >> 2) % self.btb_nsets]
            target = s.get(pc)
            if target is None:
                if not mispredicted:
                    mispredicted = True
                    bp["btb_target_misses"] += 1
            else:
                del s[pc]
                s[pc] = target
        self.predictor.update(pc, taken)
        if taken:
            s = self.btb_sets[(pc >> 2) % self.btb_nsets]
            if pc in s:
                del s[pc]
            elif len(s) >= self.btb_assoc:
                del s[next(iter(s))]
            s[pc] = pc + 8
        if mispredicted:
            bp["mispredicts"] += 1
        return mispredicted

    # -- iteration execution -------------------------------------------

    # lint: allow(ENG002 dispatch loop: its counters are per-iteration bookkeeping spread across the oracle pipeline, not a single method transcription; every memory counter fuses under the tagged load/store handlers it calls)
    def execute(self, info: _RegionInfo, index: int, trace, sequential: bool,
                upstream_targets: Optional[Sequence[int]]):
        """Replay one iteration/chunk; returns its four stage cycles."""
        eng = self.eng
        path = trace.path
        comp = info.compiled
        m = self.m
        mb = self.mb

        # Instruction fetch.  The oracle touches max(1, n_instr // 16)
        # consecutive 64-byte code blocks cyclically over the region's
        # footprint.  With the footprint within one L1I pass (block i in
        # set i mod n_sets — all distinct), only the first pass can miss;
        # repeats hit the just-touched MRU block with zero stall and no
        # net LRU movement.  Across executes we extend the shortcut with
        # a warm prefix: this TU's L1I is touched by nothing but its own
        # fetches, so once it has fetched the first ``warm_n`` blocks of
        # a region (and no other region since), those blocks are still
        # resident and MRU-in-their-set — re-touching them is a hit and
        # a no-op LRU refresh, skippable entirely.
        count = path.ifetch_count
        ifetch_stall = 0
        if info.ifetch_fast:
            m["ifetches"] += count
            footprint = comp.ifetch_footprint
            lim = count if count < footprint else footprint
            rid = id(info)
            if self.l1i_rid != rid:
                self.l1i_rid = rid
                self.l1i_warm_n = 0
            if lim > self.l1i_warm_n:
                base_block = comp.ifetch_base_block
                l1i_sets = self.l1i_sets
                l1i_mask = self.l1i_mask
                for j in range(self.l1i_warm_n, lim):
                    block = base_block + j
                    s = l1i_sets[block & l1i_mask]
                    flags = s.get(block)
                    if flags is not None:
                        del s[block]
                        s[block] = flags
                    else:
                        m["l1i_misses"] += 1
                        latency = self.l2.read(block << self.l1i_bits)
                        if len(s) >= self.l1i_assoc:
                            del s[next(iter(s))]
                        s[block] = 0
                        ifetch_stall += latency
                self.l1i_warm_n = lim
        else:
            self.l1i_rid = -1
            self.l1i_warm_n = 0
            base = info.code_base
            footprint = comp.ifetch_footprint
            for j in range(count):
                ifetch_stall += self._ifetch(base + (j % footprint) * 64) - 1

        if upstream_targets is not None:
            up = self.mb_upstream
            for a in upstream_targets:
                up.add(a)
            mb["targets_received"] += len(upstream_targets)

        load_stall = 0.0
        store_stall = 0
        mispredicts = 0
        wrong_loads = 0
        wrong_fill_lat = 0.0
        future_loads = None
        wrong_path = self.wrong_path
        if wrong_path and sequential:
            future_loads = comp.trace(eng.streams, eng.seed, index + 1).load_addrs
        load_addrs = trace.load_addrs
        store_addrs = trace.store_addrs
        branch_pcs = path.branch_pcs
        branch_taken = path.branch_taken
        load_correct = self.load_correct
        store_correct = self.store_correct
        load_wrong = self.load_wrong
        mb_stores = self.mb_stores
        mb_upstream = self.mb_upstream
        mb_arrived = self.mb_arrived
        # Hot-loop locals: counter bumps accumulate in ints and flush to
        # the dicts once per execute (dict equality at collect time does
        # not depend on update order); cache/branch structure lookups
        # are inlined for the common cases and fall back to the policy
        # methods/resolve for the rest.
        l1d = self.l1d_sets
        l1d_mask = self.l1d_mask
        l1d_bits = self.l1d_bits
        hit_mask = self.load_hit_mask
        bp_table = self.bp_table
        btb = self.btb_sets
        btb_assoc = self.btb_assoc
        loads_n = 0
        hits_n = 0
        stores_n = 0
        buffered_n = 0
        btb_tm_n = 0
        n_branches = len(branch_pcs)
        bp_slots = btb_sis = None
        mis_list = None
        replaying = False
        events = path.events
        if bp_table is not None and eng.br_replay is not None:
            # Branch-stream replay: this execute()'s outcomes were
            # recorded by the sweep's first configuration (the stream is
            # config-independent, see _BranchStream).  Counters are
            # bumped in bulk below; the event list shrinks to what the
            # memory system still needs — every branch event kept is a
            # recorded mispredict (wrong-path burst site), and without
            # wrong-path execution none are kept at all.
            rec = eng.br_replay[eng.br_pos]
            eng.br_pos += 1
            if rec[0] != n_branches:
                raise SimulationError(
                    "fast engine: branch-stream replay misaligned "
                    f"({rec[0]} recorded branches vs {n_branches} in path)"
                )
            btb_tm_n = rec[1]
            mis_idxs = rec[2]
            mispredicts = len(mis_idxs)
            replaying = True
            if wrong_path and mis_idxs:
                events = rec[3]
                if events is None:
                    mis = frozenset(mis_idxs)
                    events = rec[3] = [
                        e for e in path.events
                        if e[0] != EV_BRANCH or e[1] in mis
                    ]
            else:
                events = rec[4]
                if events is None:
                    events = rec[4] = eng.mem_events(path)
        else:
            if bp_table is not None and eng.br_record is not None:
                mis_list = []
            bp_slots, btb_sis = eng.branch_aux(
                path, self.bp_mask, self.btb_nsets
            )
        for kind, idx in events:
            if kind == EV_LOAD:
                value = load_addrs[idx]
                if not sequential:
                    if value in mb_stores:
                        mb["local_forwards"] += 1
                    elif value in mb_upstream:
                        mb["dependence_hits"] += 1
                        if value not in mb_arrived:
                            mb["dependence_stalls"] += 1
                block = value >> l1d_bits
                s = l1d[block & l1d_mask]
                f = s.get(block)
                if f is not None and not f & hit_mask:
                    # Plain hit: refresh + count, 1 cycle — identical
                    # under every policy (flagged hits take the method).
                    del s[block]
                    s[block] = f
                    loads_n += 1
                    hits_n += 1
                else:
                    load_stall += load_correct(value) - 1
            elif kind == EV_BRANCH:
                if replaying:
                    # Every surviving branch event is a recorded
                    # mispredict; inject its wrong-path load burst at
                    # the same event position the live resolve would.
                    burst = 0
                    for a in comp.wrong_path_addrs(
                        eng.streams, eng.seed, trace, idx, index,
                        future_loads,
                    ):
                        wrong_fill_lat += load_wrong(a) - 1
                        burst += 1
                    wrong_loads += burst
                    continue
                if bp_table is None:
                    mispredicted = self._resolve(
                        branch_pcs[idx], branch_taken[idx]
                    )
                else:
                    # Inlined BranchUnit.resolve with a bimodal table.
                    slot = bp_slots[idx]
                    c = bp_table[slot]
                    taken = branch_taken[idx]
                    predicted_taken = c >= 2
                    mispredicted = predicted_taken != taken
                    if predicted_taken:
                        bs = btb[btb_sis[idx]]
                        pc = branch_pcs[idx]
                        target = bs.get(pc)
                        if target is None:
                            if not mispredicted:
                                mispredicted = True
                                btb_tm_n += 1
                        else:
                            del bs[pc]
                            bs[pc] = target
                    if taken:
                        if c < 3:
                            bp_table[slot] = c + 1
                        bs = btb[btb_sis[idx]]
                        pc = branch_pcs[idx]
                        if pc in bs:
                            del bs[pc]
                        elif len(bs) >= btb_assoc:
                            del bs[next(iter(bs))]
                        bs[pc] = pc + 8
                    elif c > 0:
                        bp_table[slot] = c - 1
                if mispredicted:
                    mispredicts += 1
                    if mis_list is not None:
                        mis_list.append(idx)
                    if wrong_path:
                        burst = 0
                        for a in comp.wrong_path_addrs(
                            eng.streams, eng.seed, trace, idx, index, future_loads
                        ):
                            wrong_fill_lat += load_wrong(a) - 1
                            burst += 1
                        wrong_loads += burst
            else:  # store / target store
                value = store_addrs[idx]
                if sequential:
                    block = value >> l1d_bits
                    s = l1d[block & l1d_mask]
                    f = s.get(block)
                    if f is not None:
                        # Store hit: refresh + mark dirty, 1 cycle —
                        # identical under every policy.
                        del s[block]
                        s[block] = f | DIRTY
                        stores_n += 1
                        hits_n += 1
                    else:
                        store_stall += store_correct(value) - 1
                    eng.sequential_store(self.tu_id, value)
                else:
                    if len(mb_stores) >= self.mb_cap and value not in mb_stores:
                        mb["overflows"] += 1
                    else:
                        mb_stores[value] = (
                            mb_stores.get(value, False) or kind == EV_TSTORE
                        )
                        buffered_n += 1

        if wrong_fill_lat and self.wrong_fill_charge:
            load_stall += wrong_fill_lat * self.wrong_fill_charge

        if not sequential:
            committed = list(mb_stores.items())
            mb["writebacks"] += 1
            mb_stores.clear()
            mb_upstream.clear()
            mb_arrived.clear()
            for addr, _is_target in committed:
                block = addr >> l1d_bits
                s = l1d[block & l1d_mask]
                f = s.get(block)
                if f is not None:
                    del s[block]
                    s[block] = f | DIRTY
                    stores_n += 1
                    hits_n += 1
                else:
                    store_stall += store_correct(addr) - 1

        if loads_n:
            m["loads"] += loads_n
        if stores_n:
            m["stores"] += stores_n
        if hits_n:
            m["l1_hits"] += hits_n
        if buffered_n:
            mb["stores_buffered"] += buffered_n
        if mis_list is not None:
            eng.br_record.append(
                [n_branches, btb_tm_n, tuple(mis_list), None, None]
            )
        # The _resolve fallback bumps the bp dict itself; flush only the
        # inlined-bimodal accumulators (live or replayed).
        if n_branches and bp_table is not None:
            bp = self.bp
            bp["branches"] += n_branches
            if mispredicts:
                bp["mispredicts"] += mispredicts
            if btb_tm_n:
                bp["btb_target_misses"] += btb_tm_n

        core = self.core
        key = "iterations" if not sequential else "chunks"
        core[key] = core.get(key, 0) + 1
        core["instructions"] += path.n_instr
        if wrong_loads:
            core["wrong_path_loads"] += wrong_loads

        # Timing assembly — identical float grouping to the oracle's
        # CoreTimingModel.iteration_timing.
        base_key = id(path)
        stages = eng.split_memo.get(base_key)
        if stages is None:
            stages = info.split.cycles(eng.timing.base_cycles(path.mix, info.ilp))
            eng.split_memo[base_key] = stages
        cont, tsag, comp_c, wb = stages
        mem_stall = float(load_stall) / eng.mlp
        store_w = float(store_stall) * STORE_STALL_WEIGHT / eng.mlp
        branch_stall = float(mispredicts * self.penalty)
        comp_c += mem_stall + branch_stall + float(ifetch_stall)
        wb += store_w
        return cont, tsag, comp_c, wb

    # lint: allow(ENG002 wrong-thread driver: mirrors the oracle's scheduler loop, not one method; its load counters fuse under the tagged _load_wrong_* handlers)
    def run_wrong_thread(self, comp: CompiledRegion, info: _RegionInfo,
                         start_iter: int) -> int:
        eng = self.eng
        load_wrong = self.load_wrong
        n = 0
        n_tus = eng.n_tus
        for round_ in range(info.wth_max_iters):
            it = start_iter + round_ * n_tus
            for addr in comp.wrong_thread_addrs(eng.streams, eng.seed, it):
                load_wrong(addr)
                n += 1
        core = self.core
        if n:
            core["wrong_thread_loads"] += n
        # The wrong thread reaches its own abort: squash buffered state.
        mb = self.mb
        n_squashed = len(self.mb_stores)
        mb["aborts"] += 1
        if n_squashed:
            mb["stores_squashed"] += n_squashed
        self.mb_stores.clear()
        self.mb_upstream.clear()
        self.mb_arrived.clear()
        core["wrong_threads"] += 1
        return n


class _FastMachine:
    """All per-run state of one fast simulation."""

    __slots__ = (
        "cfg", "params", "memo", "l2", "tus", "bus_c", "head_tu", "n_tus",
        "streams", "seed", "timing", "mlp", "split_memo", "region_info",
        "branch_memo", "mem_memo", "br_record", "br_replay", "br_pos",
    )

    def __init__(self, cfg: MachineConfig, params: SimParams,
                 memo: Optional[ProgramMemo] = None) -> None:
        self.cfg = cfg
        self.params = params
        # The program's memo (compiled regions, branch streams); a
        # machine built without one compiles into a private memo.
        self.memo = memo if memo is not None else ProgramMemo()
        self.l2 = _FastL2(cfg)
        self.n_tus = cfg.n_thread_units
        self.tus = [_FastTU(self, i) for i in range(cfg.n_thread_units)]
        self.bus_c: Dict[str, int] = defaultdict(int)
        self.head_tu = 0
        self.streams = FastStreamFactory(params.seed)
        self.seed = params.seed
        self.timing = CoreTimingModel(cfg.tu, params)
        self.mlp = self.timing.mlp
        self.split_memo: Dict[int, Tuple[float, float, float, float]] = {}
        self.region_info: Dict[int, _RegionInfo] = {}
        self.branch_memo: Dict[int, Tuple[List[int], List[int]]] = {}
        self.mem_memo: Dict[int, List[Tuple[int, int]]] = {}
        # Branch-stream record/replay (see _BranchStream): at most one
        # of the two is set.  ``br_pos`` is the replay cursor, advanced
        # once per execute() call across all TUs.
        self.br_record: Optional[_BranchStream] = None
        self.br_replay: Optional[_BranchStream] = None
        self.br_pos = 0

    def branch_aux(
        self, path, bp_mask: int, btb_nsets: int
    ) -> Tuple[List[int], List[int]]:
        """Per-path predictor slots and BTB set indices.

        The branch PCs of a path are constant, so the bimodal table slot
        and BTB set of each branch are precomputed once per path (the
        geometry is identical on every TU of one machine).
        """
        aux = self.branch_memo.get(id(path))
        if aux is None:
            pcs = path.branch_pcs
            aux = (
                [(pc >> 2) & bp_mask for pc in pcs],
                [(pc >> 2) % btb_nsets for pc in pcs],
            )
            self.branch_memo[id(path)] = aux
        return aux

    def mem_events(self, path) -> List[Tuple[int, int]]:
        """The path's event list with branch events dropped.

        Used by branch-stream replay on configurations without
        wrong-path execution: with branch outcomes known in bulk, the
        event loop only needs the loads and stores, whose relative
        order is all the memory state depends on.
        """
        evs = self.mem_memo.get(id(path))
        if evs is None:
            evs = [e for e in path.events if e[0] != EV_BRANCH]
            self.mem_memo[id(path)] = evs
        return evs

    def _info(self, region) -> _RegionInfo:
        info = self.region_info.get(id(region))
        if info is None:
            l1i = self.cfg.tu.l1i
            info = _RegionInfo(
                self.memo.compiled(region), self.cfg,
                l1i.n_sets, l1i.block_size,
            )
            self.region_info[id(region)] = info
        return info

    # lint: allow(ENG002 inlined bus probe: transcribes two oracle sites (sequential_store + bus_update accounting) whose counters cannot be expressed as one qualname; covered by diff-smoke bit-identity)
    def sequential_store(self, writer_tu: int, addr: int) -> None:
        bus_c = self.bus_c
        bus_c["store_broadcasts"] += 1
        updated = 0
        # Inlined tu.bus_update(addr) — a presence probe, no state
        # change beyond the accounting counter.  All TUs share one cache
        # geometry, so the block/set math hoists out of the probe loop;
        # ``sets.get`` keeps the probe from materializing empty sets in
        # the lazy defaultdict.
        tus = self.tus
        block = addr >> tus[0].l1d_bits
        si = block & tus[0].l1d_mask
        for tu in tus:
            if tu.tu_id == writer_tu:
                continue
            s = tu.l1d_sets.get(si)
            if (s is not None and block in s) or (
                tu.side is not None and block in tu.side
            ):
                tu.m["bus_updates"] += 1
                updated += 1
        if updated:
            bus_c["updates_delivered"] += updated

    # -- regions -------------------------------------------------------

    def run_parallel_region(self, region, invocation: int):
        info = self._info(region)
        comp = info.compiled
        n_tus = self.n_tus
        lo, hi = region.global_iter_range(invocation)
        if hi <= lo:
            raise SimulationError(f"region {region.name}: empty iteration range")
        tu_free = [0.0] * n_tus
        prev_cont_end = 0.0
        prev_comp_end = 0.0
        prev_comp_len = 0.0
        prev_wb_end = 0.0
        prev_targets: Optional[Sequence[int]] = None
        region_end = 0.0
        coupling = info.coupling
        multi_tu = n_tus > 1
        streams = self.streams
        seed = self.seed
        tus = self.tus
        for i in range(lo, hi):
            tu = tus[i % n_tus]
            trace = comp.trace(streams, seed, i)
            cont, tsag, comp_c, wb = tu.execute(
                info, i, trace, sequential=False, upstream_targets=prev_targets
            )
            first = i == lo
            fork_cost = info.fork_cost if (not first and multi_tu) else 0.0
            start, cont_end, comp_end, wb_end = compose_pipeline_step(
                first, prev_cont_end if not first else 0.0, fork_cost,
                tu_free[tu.tu_id], cont, tsag, comp_c, wb,
                coupling, prev_comp_end, prev_comp_len, prev_wb_end,
            )
            tu_free[tu.tu_id] = wb_end
            prev_cont_end = cont_end
            prev_comp_end = comp_end
            prev_comp_len = comp_c
            prev_wb_end = wb_end
            if wb_end > region_end:
                region_end = wb_end
            prev_targets = trace.targets
        wrong_loads = 0
        if self.cfg.wrong_exec.wrong_thread and multi_tu:
            for k in range(n_tus - 1):
                wrong_iter = hi + k
                wrong_loads += tus[wrong_iter % n_tus].run_wrong_thread(
                    comp, info, wrong_iter
                )
        self.head_tu = (hi - 1) % n_tus
        return region_end, hi - lo, wrong_loads

    def run_sequential_region(self, region, invocation: int):
        info = self._info(region)
        comp = info.compiled
        tu = self.tus[self.head_tu]
        lo, hi = region.global_chunk_range(invocation)
        cycles = 0.0
        streams = self.streams
        seed = self.seed
        for c in range(lo, hi):
            trace = comp.trace(streams, seed, c)
            cont, tsag, comp_c, wb = tu.execute(
                info, c, trace, sequential=True, upstream_targets=None
            )
            cycles += cont + tsag + comp_c + wb
        return cycles, hi - lo

    # -- statistics ----------------------------------------------------

    def collect_stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for tu in self.tus:
            i = tu.tu_id
            for k, v in tu.core.items():
                out[f"tu{i}.core.{k}"] = v
            for k, v in tu.m.items():
                out[f"tu{i}.mem.{k}"] = v
            for k, v in tu.bp.items():
                out[f"tu{i}.bpred.{k}"] = v
            for k, v in tu.mb.items():
                out[f"tu{i}.membuf.{k}"] = v
        for k, v in self.l2.c.items():
            out[f"l2.{k}"] = v
        for k, v in self.l2.memc.items():
            out[f"mem.{k}"] = v
        for k, v in self.bus_c.items():
            out[f"bus.{k}"] = v
        return out

    def reset_statistics(self) -> None:
        groups = [self.l2.c, self.l2.memc, self.bus_c]
        for tu in self.tus:
            groups.extend((tu.core, tu.m, tu.bp, tu.mb))
        for group in groups:
            for k in group:
                group[k] = 0

    def aggregate(self, name: str) -> int:
        return sum(tu.m.get(name, 0) for tu in self.tus)


def run_program_fast(
    program: Program,
    config: MachineConfig,
    params: SimParams = SimParams(),
) -> SimResult:
    """Fast-engine equivalent of :func:`repro.sim.driver.run_program`.

    Takes no tracer/profiler/sanitizer/attrib: observers require the
    oracle's event-level replay (the driver enforces this).  The result
    is bit-identical to the oracle's for any program and configuration.
    """
    memo = program_memo(program)
    eng = _FastMachine(config, params, memo)
    bcfg = config.tu.branch
    br_key = None
    if bcfg.kind == "bimodal":
        br_key = (
            params.seed, config.n_thread_units,
            bcfg.table_bits, bcfg.btb_entries, bcfg.btb_assoc,
        )
        recorded = memo.branch_streams.get(br_key)
        if recorded is not None:
            eng.br_replay = recorded
        else:
            eng.br_record = []
    total = 0.0
    par_cycles = 0.0
    seq_cycles = 0.0
    wrong_thread_loads = 0
    region_records = []
    warmup = min(params.warmup_invocations, program.n_invocations - 1)
    stats_live = warmup == 0
    for invocation, region in program.schedule():
        if not stats_live and invocation >= warmup:
            eng.reset_statistics()
            stats_live = True
        if isinstance(region, ParallelRegionSpec):
            kind = "parallel"
            cycles, iterations, wtl = eng.run_parallel_region(region, invocation)
            if stats_live:
                par_cycles += cycles
                wrong_thread_loads += wtl
        else:
            kind = "sequential"
            cycles, iterations = eng.run_sequential_region(region, invocation)
            if stats_live:
                seq_cycles += cycles
        if not stats_live:
            continue
        total += cycles
        if params.record_regions:
            region_records.append(
                {
                    "name": region.name,
                    "kind": kind,
                    "invocation": invocation,
                    "cycles": cycles,
                    "iterations": iterations,
                }
            )
    if eng.br_record is not None:
        # Only a completed run publishes its stream (a raised exception
        # above leaves the memo untouched).
        memo.branch_streams[br_key] = eng.br_record
    counters = eng.collect_stats()
    instructions = sum(tu.core.get("instructions", 0) for tu in eng.tus)
    return SimResult(
        benchmark=program.name,
        config=config.name,
        n_tus=config.n_thread_units,
        total_cycles=total,
        parallel_cycles=par_cycles,
        sequential_cycles=seq_cycles,
        instructions=instructions,
        l1_traffic=sum(
            tu.m.get("loads", 0) + tu.m.get("stores", 0)
            + tu.m.get("wrong_loads", 0)
            for tu in eng.tus
        ),
        l1_misses=eng.aggregate("l1_misses"),
        effective_misses=eng.aggregate("demand_fills"),
        wrong_loads=eng.aggregate("wrong_loads"),
        wrong_thread_loads=wrong_thread_loads,
        sidecar_hits=eng.aggregate("sidecar_hits"),
        prefetches=eng.aggregate("prefetches"),
        useful_wrong_hits=eng.aggregate("useful_wrong_hits"),
        useful_prefetch_hits=eng.aggregate("useful_prefetch_hits"),
        branches=sum(tu.bp.get("branches", 0) for tu in eng.tus),
        mispredicts=sum(tu.bp.get("mispredicts", 0) for tu in eng.tus),
        l2_accesses=eng.l2.c.get("accesses", 0),
        l2_misses=eng.l2.c.get("misses", 0),
        counters=counters,
        region_cycles=region_records,
        seed=params.seed,
        scale=params.scale,
        interval_series=None,
        attribution=None,
    )
