"""The fast-path engine: batched trace replay over compiled regions.

This module re-implements the oracle's hot loop — thread-unit stepping
and hierarchy lookups, per the hostprof ledger — as flat dict/list state
machines fed by :mod:`repro.sim.fast.compile`'s memoized traces.  The
speed comes from six places:

* trace generation is compiled and memoized per ``(seed, iteration)``
  (shared across every configuration of a sweep grid) with numpy-
  vectorized address binding;
* per-walk structure (event interleave, instruction mix, base cycles)
  is memoized per *path* and shared by all iterations taking it;
* the i-fetch loop collapses to its first pass over the code footprint
  (consecutive code blocks occupy distinct L1I sets, so repeat passes
  are hits by construction and contribute zero stall);
* counters are plain dicts, and the L1D and L2 sets are plain
  insertion-ordered dicts in lists indexed by set, mutated inline
  without per-event attribute dispatch; a plain hit in a direct-mapped
  L1D skips the LRU refresh, a no-op in a one-entry set;
* unflagged L1D hits run inline in the event loop, and every demand
  miss is one ``_fill`` frame (the oracle's L2 read → L1D insert →
  victim chain), which all four memory policies share;
* bookkeeping a whole region invocation shares is settled once per
  invocation: a sequential invocation's stores reach the update bus
  once per block, a replayed invocation bumps each TU's branch counters
  once, and a branch stream's wrong-path bursts are seeded by its first
  wrong-path run only (``ProgramMemo.wp_seeded``).

The engine runs regions, not programs: :func:`run_program_fast` hands
a :class:`_FastMachine` to the region loop the oracle runs too
(:func:`repro.sim.results.run_regions`, which also times a host
profiler's region sections), and its result comes from the counter
dump as the oracle's does (``SimResult.from_counters``).
:func:`compile_program_fast` runs only the compile step of every
invocation, so a sweep can fill a program's memo without simulating.

Bit-exactness contract: every counter update, LRU movement and float
operation below replays the oracle's in the same order with the same
operand grouping.  The differential suite
(``tests/test_fast_engine.py``) enforces ``SimResult`` equality on the
paper's eight configurations and on random machine configurations, and
``repro diff`` on every configuration the fidelity campaign runs; any
divergence is a bug in one of the two engines, never tolerable noise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ...common.config import MachineConfig, SidecarKind, SimParams
from ...common.errors import SimulationError
from ...core.thread_unit import SEQ_SPLIT
from ...core.timing import STORE_STALL_WEIGHT, CoreTimingModel
from ...isa.encoding import EV_BRANCH, EV_LOAD, EV_TSTORE
from ...mem.cache import DIRTY, PF_FAR, PREFETCHED, WRONG
from ...mem.layout import geometry_of
from ...sta.scheduler import compose_pipeline_step
from ...workloads.program import Program
from ..results import SimResult, run_regions
from .compile import CompiledRegion, ProgramMemo, program_memo
from .streams import FastStreamFactory

__all__ = ["compile_program_fast", "run_program_fast", "stream_key"]


# Branch-outcome streams shared across configurations.  For a fixed
# (program, seed, n_tus, branch geometry) the sequence of branch-unit
# inputs — which TU resolves which (pc, taken) pairs in which order —
# is the same under every memory-system configuration: wrong-path and
# wrong-thread loads never touch the predictor or BTB, and the
# iteration-to-TU schedule depends only on the program and n_tus.  The
# first run of a sweep grid records the outcomes: each region
# invocation resolves the branches of all its executes up front
# (_FastTU._resolve, in iteration order), ahead of any of their memory
# events.  That is exact for the same reason: only branches touch a
# TU's predictor and BTB, and each TU still resolves its executes in
# order.  Every later configuration replays the stream, skipping
# predictor/BTB simulation entirely.  Either way the region loop hands
# each execute() its record.  Streams live in the program's memo
# (``ProgramMemo.branch_streams``) and are freed with the program.
#
# One record per execute() call: ``[n_branches, btb_target_misses,
# mispredicted_indices, wp_events, mem_events]``.  The last two slots
# cache the shrunk event lists replays run (filled by the first replay
# that needs one; a recording run's execute walks the path's full
# list): the execute order of a run is deterministic, so record ``i``
# always replays the same path content under every configuration —
# wp_events keeps loads/stores plus only the mispredicted branch
# events, mem_events drops branch events entirely.  One builder,
# _FastMachine.wp_events(path, mis_idxs), makes both (mem_events with
# no mispredicts), and records with the same path (and mispredicts)
# share one list.
#
# Wrong-path bursts depend on the stream too: which (iteration, branch)
# sites burst is its mispredicts.  The first wrong-path run over a
# stream seeds each invocation's bursts in one batch
# (CompiledRegion.seed_wrong_paths) and, once it completes, adds the
# stream's key to ``ProgramMemo.wp_seeded``; later replays of that
# stream skip the seeding.  A burst the memo's bound left out is still
# drawn on demand by CompiledRegion.wrong_path_addrs.
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
        self.sets: List[Dict[int, int]] = [{} for _ in range(geo.n_sets)]
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
            # The LRU victim is the set's first key; for/break reads it
            # without the iter() and next() calls (here and below).
            for victim in s:
                break
            vflags = s.pop(victim)
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
            for victim in s:
                break
            vflags = s.pop(victim)
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
        "mb_stores", "mb_upstream", "mb_cap",
        "bp_table", "bp_mask",
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
        self.l1d_sets: List[Dict[int, int]] = [{} for _ in range(d.n_sets)]
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
        self.mb_stores: Dict[int, bool] = {}
        self.mb_upstream: set = set()
        self.mb_cap = tu.mem_buffer_entries
        # The bimodal predictor: one flat list of 2-bit counters.
        self.bp_table = [2] * (1 << tu.branch.table_bits)
        self.bp_mask = (1 << tu.branch.table_bits) - 1
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
            for victim in side:
                break
            vflags = side.pop(victim)
            if vflags & DIRTY:
                self._writeback(victim)
        side[block] = flags

    # One fill path for all four policies: ``_fill`` (demand fill) and
    # ``_place`` (sidecar promotion).  The L1D victim goes to the sidecar
    # if ``to_side`` (WEC, VC), else back to the L2 if dirty (nlp,
    # plain); ``to_side`` is a constant at every call site, which the
    # flow pass binds for ENG001.  Callers have missed in the L1D, so
    # the insert needs no LRU refresh.  ``_fill`` is the hot miss path
    # and stays one frame: its L2 read transcribes :meth:`_FastL2.read`,
    # ahead of the L1D victim's route, as in the oracle.

    def _fill(self, block: int, flags: int, to_side: bool,
              wrong: bool = False) -> int:
        """Demand fill: L2 read, L1D insert, victim → sidecar or L2."""
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
                for v2 in s2:
                    break
                vf2 = s2.pop(v2)
                if vf2 & DIRTY:
                    memc["writes"] += 1
                    c2["writebacks_to_memory"] += 1
            s2[b2] = 0
            latency = l2.mem_latency
        s = self.l1d_sets[block & self.l1d_mask]
        if len(s) >= self.l1d_assoc:
            for victim in s:
                break
            vflags = s.pop(victim)
            if to_side:
                self.m["victims_to_sidecar"] += 1
                self._side_insert(victim, vflags)
            elif vflags & DIRTY:
                self.m["writebacks"] += 1
                l2.writeback(victim << self.l1d_bits)
        s[block] = flags
        return latency

    def _place(self, block: int, flags: int, to_side: bool) -> None:
        """Sidecar promotion: L1D insert, victim → sidecar or L2."""
        s = self.l1d_sets[block & self.l1d_mask]
        if len(s) >= self.l1d_assoc:
            for victim in s:
                break
            vflags = s.pop(victim)
            if to_side:
                self.m["victims_to_sidecar"] += 1
                self._side_insert(victim, vflags)
            elif vflags & DIRTY:
                self._writeback(victim)
        s[block] = flags

    # parity: repro.mem.hierarchy.TUMemSystem._prefetch_next_into_sidecar
    def _prefetch_block(self, target: int) -> None:
        """Fetch ``target`` (the next line) into the sidecar."""
        if target in self.l1d_sets[target & self.l1d_mask] or target in self.side:
            return
        m = self.m
        m["prefetches"] += 1
        latency = self.l2.read(target << self.l1d_bits, prefetch=True)
        flags = PREFETCHED
        if latency > self.l2.hit_latency:
            flags |= PF_FAR
        self._side_insert(target, flags)

    # -- bodies shared by two policies ---------------------------------

    def _store(self, addr: int, to_side: bool):
        """Correct store under WEC and VC (``to_side``) or nlp."""
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
            self._place(block, DIRTY, to_side)
            return 1
        m["demand_fills"] += 1
        return 1 + self._fill(block, DIRTY, to_side)

    def _load_wrong(self, addr: int, to_side: bool):
        """Wrong load that fills the L1D: VC (``to_side``) or nlp."""
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
            self._place(block, (sflags & DIRTY) | WRONG, to_side)
            return 1
        m["wrong_fills"] += 1
        return 1 + self._fill(block, WRONG, to_side, wrong=True)

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
            self._place(block, sflags & DIRTY, True)
            latency = 1
            if sflags & (WRONG | PREFETCHED):
                self._prefetch_block(block + 1)
                if sflags & PREFETCHED and not sflags & WRONG:
                    latency += (
                        self.late_far if sflags & PF_FAR else self.late_near
                    )
            return latency
        m["demand_fills"] += 1
        return 1 + self._fill(block, 0, True)

    # parity: repro.mem.hierarchy.TUMemSystem._store_correct_sidecar
    def _store_correct_sidecar(self, addr: int):
        return self._store(addr, True)

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
            self._place(block, sflags & DIRTY, True)
            return 1
        m["demand_fills"] += 1
        return 1 + self._fill(block, 0, True)

    # parity: repro.mem.hierarchy.TUMemSystem._load_wrong_vc
    def _load_wrong_vc(self, addr: int):
        return self._load_wrong(addr, True)

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
            self._place(block, sflags & DIRTY, False)
            self._prefetch_block(block + 1)
            if sflags & PREFETCHED:
                return 1 + (self.late_far if sflags & PF_FAR else self.late_near)
            return 1 + 0.0
        m["demand_fills"] += 1
        latency = self._fill(block, 0, False)
        self._prefetch_block(block + 1)
        return 1 + latency

    # parity: repro.mem.hierarchy.TUMemSystem._store_correct_nlp
    def _store_correct_nlp(self, addr: int):
        return self._store(addr, False)

    # parity: repro.mem.hierarchy.TUMemSystem._load_wrong_nlp
    def _load_wrong_nlp(self, addr: int):
        return self._load_wrong(addr, False)

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
        return 1 + self._fill(block, 0, False)

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
        return 1 + self._fill(block, DIRTY, False)

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
        return 1 + self._fill(block, WRONG, False, wrong=True)

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
    def bus_update(self, block: int, n: int) -> bool:
        """Apply ``n`` remote stores to ``block`` if this TU caches it.

        A presence probe: the update protocol keeps remote copies valid,
        so nothing changes beyond the accounting counter.
        """
        present = block in self.l1d_sets[block & self.l1d_mask] or (
            self.side is not None and block in self.side
        )
        if present:
            m = self.m
            m["bus_updates"] += n
        return present

    # -- branch resolve ------------------------------------------------

    # parity: repro.branch.frontend.BranchUnit.resolve
    def _resolve(self, path) -> list:
        """Resolve the path's branches in order; returns their record.

        Only branches touch the predictor and BTB, so resolving all of
        an execute's branches ahead of its memory events leaves both in
        the state the oracle's interleaved resolves do.  The counters
        are bumped once per execute, in the oracle's order.
        """
        bp_slots, btb_sis = self.eng.branch_aux(
            path, self.bp_mask, self.btb_nsets
        )
        bp_table = self.bp_table
        btb = self.btb_sets
        btb_assoc = self.btb_assoc
        branch_pcs = path.branch_pcs
        btb_tm_n = 0
        mis_list = []
        for idx, taken in enumerate(path.branch_taken):
            slot = bp_slots[idx]
            c = bp_table[slot]
            predicted_taken = c >= 2
            mispredicted = predicted_taken != taken
            btb_hit = False
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
                    btb_hit = True
            if taken:
                if c < 3:
                    bp_table[slot] = c + 1
                # Every entry holds pc + 8, so after a hit moved it to
                # MRU the oracle's taken update rewrites what is there.
                if not btb_hit:
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
                mis_list.append(idx)
        self._count_branches(len(branch_pcs), btb_tm_n, len(mis_list))
        return [len(branch_pcs), btb_tm_n, tuple(mis_list), None, None]

    def _count_branches(self, n_branches: int, btb_tm_n: int,
                        n_mispredicts: int) -> None:
        """Bump the branch counters by the given totals, in bulk."""
        if n_branches:
            bp = self.bp
            bp["branches"] += n_branches
            if btb_tm_n:
                bp["btb_target_misses"] += btb_tm_n
            if n_mispredicts:
                bp["mispredicts"] += n_mispredicts

    # -- iteration execution -------------------------------------------

    # lint: allow(ENG002 dispatch loop: its counters are per-iteration bookkeeping spread across the oracle pipeline, not a single method transcription; every memory counter fuses under the tagged load/store handlers it calls)
    def execute(self, info: _RegionInfo, index: int, trace, rec: list,
                sequential: bool, upstream_targets: Optional[Sequence[int]],
                future_loads: Optional[Sequence[int]]):
        """Replay one iteration/chunk; returns its four stage cycles.

        ``rec`` is the execute's branch record (see _BranchStream);
        ``future_loads`` the next chunk's loads, which a sequential
        chunk's wrong paths may run on into.  A sequential chunk counts
        its stores per block in the machine's ``bus_blocks``, which the
        region loop settles on the update bus when the invocation ends.
        """
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
        wrong_loads = 0
        wrong_fill_lat = 0.0
        load_addrs = trace.load_addrs
        store_addrs = trace.store_addrs
        load_correct = self.load_correct
        store_correct = self.store_correct
        load_wrong = self.load_wrong
        mb_stores = self.mb_stores
        mb_upstream = self.mb_upstream
        # Hot-loop locals: counter bumps accumulate in ints and flush to
        # the dicts once per execute (dict equality at collect time does
        # not depend on update order); cache structure lookups are
        # inlined for the common cases and fall back to the policy
        # methods for the rest.
        l1d = self.l1d_sets
        l1d_mask = self.l1d_mask
        l1d_bits = self.l1d_bits
        hit_mask = self.load_hit_mask
        # A direct-mapped set holds one block, so a hit's LRU refresh
        # (delete, re-insert) leaves it as it was: only an associative
        # L1D needs it.
        lru = self.l1d_assoc > 1
        bus_blocks = eng.bus_blocks
        loads_n = 0
        hits_n = 0
        stores_n = 0
        buffered_n = 0
        # Branch outcomes come with the record.  A replayed record also
        # carries a shrunk event list (see _FastMachine._branch_records):
        # every branch event it keeps is a wrong-path burst site.
        mis_idxs = rec[2]
        wrong_path = self.wrong_path
        events = rec[3] if wrong_path and mis_idxs else rec[4]
        if events is None:
            events = path.events
        bursts = mis_idxs if wrong_path else ()
        for kind, idx in events:
            if kind == EV_LOAD:
                value = load_addrs[idx]
                if not sequential:
                    if value in mb_stores:
                        mb["local_forwards"] += 1
                    elif value in mb_upstream:
                        mb["dependence_hits"] += 1
                        mb["dependence_stalls"] += 1
                block = value >> l1d_bits
                s = l1d[block & l1d_mask]
                f = s.get(block)
                if f is not None and not f & hit_mask:
                    # Plain hit: refresh + count, 1 cycle — identical
                    # under every policy (flagged hits take the method).
                    if lru:
                        del s[block]
                        s[block] = f
                    loads_n += 1
                    hits_n += 1
                else:
                    load_stall += load_correct(value) - 1
            elif kind == EV_BRANCH:
                if idx in bursts:
                    # A mispredict under wrong-path execution: inject
                    # its wrong-path load burst at the branch's position.
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
                        if lru:
                            del s[block]
                        s[block] = f | DIRTY
                        stores_n += 1
                        hits_n += 1
                    else:
                        store_stall += store_correct(value) - 1
                    bus_blocks[block] = bus_blocks.get(block, 0) + 1
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
            # Commit the buffered stores in order (the store handlers
            # never touch the buffer).
            mb["writebacks"] += 1
            for addr in mb_stores:
                block = addr >> l1d_bits
                s = l1d[block & l1d_mask]
                f = s.get(block)
                if f is not None:
                    if lru:
                        del s[block]
                    s[block] = f | DIRTY
                    stores_n += 1
                    hits_n += 1
                else:
                    store_stall += store_correct(addr) - 1
            mb_stores.clear()
            mb_upstream.clear()

        if loads_n:
            m["loads"] += loads_n
        if stores_n:
            m["stores"] += stores_n
        if hits_n:
            m["l1_hits"] += hits_n
        if buffered_n:
            mb["stores_buffered"] += buffered_n

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
        branch_stall = float(len(mis_idxs) * self.penalty)
        comp_c += mem_stall + branch_stall + float(ifetch_stall)
        wb += store_w
        return cont, tsag, comp_c, wb

    # lint: allow(ENG002 wrong-thread driver: mirrors the oracle's scheduler loop, not one method; its load counters fuse under the tagged _load_wrong_* handlers)
    def run_wrong_thread(self, rounds: List[Sequence[int]]) -> int:
        """Run one wrong thread: the loads of each of its ``rounds``."""
        load_wrong = self.load_wrong
        n = 0
        for addrs in rounds:
            for addr in addrs:
                load_wrong(addr)
            n += len(addrs)
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
        core["wrong_threads"] += 1
        return n


def stream_key(config: MachineConfig, params: SimParams) -> tuple:
    """The key of the branch stream a run records or replays.

    Seed, TU count and branch geometry: everything the branch-unit
    inputs depend on (see _BranchStream).
    """
    bcfg = config.tu.branch
    return (
        params.seed, config.n_thread_units,
        bcfg.table_bits, bcfg.btb_entries, bcfg.btb_assoc,
    )


class _FastMachine:
    """All per-run state of one fast simulation."""

    __slots__ = (
        "cfg", "params", "memo", "l2", "tus", "bus_c", "bus_blocks",
        "head_tu", "n_tus", "streams", "seed", "timing", "mlp",
        "split_memo", "region_info", "branch_memo", "wp_memo",
        "br_key", "br_record", "br_replay", "br_pos", "seed_bursts",
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
        # A sequential invocation's stores per L1D block, settled on the
        # update bus when the invocation ends (sequential_stores).
        self.bus_blocks: Dict[int, int] = {}
        self.head_tu = 0
        self.streams = FastStreamFactory(params.seed)
        self.seed = params.seed
        self.timing = CoreTimingModel(cfg.tu, params)
        self.mlp = self.timing.mlp
        self.split_memo: Dict[int, Tuple[float, float, float, float]] = {}
        self.region_info: Dict[int, _RegionInfo] = {}
        self.branch_memo: Dict[int, Tuple[List[int], List[int]]] = {}
        self.wp_memo: Dict[tuple, List[Tuple[int, int]]] = {}
        # Branch-stream record/replay (see _BranchStream): exactly one
        # of the two is set.  ``br_pos`` is the replay cursor: the index
        # of the next execute() call's record, counted across all TUs.
        self.br_key = stream_key(cfg, params)
        self.br_replay: Optional[_BranchStream] = (
            self.memo.branch_streams.get(self.br_key)
        )
        self.br_record: Optional[_BranchStream] = (
            [] if self.br_replay is None else None
        )
        self.br_pos = 0
        # Whether this run seeds its wrong-path bursts: only the first
        # wrong-path run over a stream needs to.
        self.seed_bursts = (
            cfg.wrong_exec.wrong_path and self.br_key not in self.memo.wp_seeded
        )

    def publish(self) -> None:
        """Leave in the memo what a completed run adds to it.

        That is its branch stream, if it recorded one, and, under
        wrong-path execution, that the stream's bursts are seeded.  A
        run that raised publishes nothing.
        """
        if self.br_record is not None:
            self.memo.branch_streams[self.br_key] = self.br_record
        if self.seed_bursts:
            self.memo.wp_seeded.add(self.br_key)

    def release(self) -> None:
        """Break the machine's reference cycles, so dropping it frees it.

        Each TU points back at the machine and holds its own bound
        policy methods.  Left as cycles, a finished machine waits for a
        full garbage collection, which a process whose long-lived heap
        is large (a sweep's warm memos) seldom runs, so a sweep's dead
        machines would pile up until it ends.
        """
        for tu in self.tus:
            tu.eng = None
            tu.load_correct = tu.store_correct = tu.load_wrong = None

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

    def wp_events(self, path, mis_idxs: Tuple[int, ...]) -> List[Tuple[int, int]]:
        """The path's event list keeping only the branches in ``mis_idxs``.

        With branch outcomes known in bulk, a replay's event loop needs
        only the loads and stores, whose relative order is all the
        memory state depends on, plus, under wrong-path execution, the
        branches that start a burst.  ``mis_idxs=()`` drops every branch
        event.  Keyed by the path object itself, which the memo keeps
        alive, so no key outlives its path.
        """
        key = (path, mis_idxs)
        evs = self.wp_memo.get(key)
        if evs is None:
            keep = frozenset(mis_idxs)
            evs = [e for e in path.events if e[0] != EV_BRANCH or e[1] in keep]
            self.wp_memo[key] = evs
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

    # parity: repro.mem.coherence.UpdateBus.sequential_store
    def sequential_stores(self, writer_tu: int, blocks: Dict[int, int]) -> None:
        """Settle one sequential invocation's stores on the update bus.

        ``blocks`` counts the invocation's stores per L1D block.  Only
        the writer runs during a sequential region, so no other TU's
        L1D or sidecar changes before the invocation ends: probing each
        other TU once per block then, for all of the block's stores,
        counts what the oracle's per-store broadcasts count.
        """
        bus_c = self.bus_c
        bus_c["store_broadcasts"] += sum(blocks.values())
        others = [tu for tu in self.tus if tu.tu_id != writer_tu]
        updated = 0
        for block, n in blocks.items():
            for tu in others:
                if tu.bus_update(block, n):
                    updated += n
        if updated:
            bus_c["updates_delivered"] += updated

    # -- regions -------------------------------------------------------

    def _branch_records(self, tus: List[_FastTU], lo: int,
                        traces: List) -> List[list]:
        """The branch records of one invocation's executes, in order.

        Execute ``k`` runs on ``tus[(lo + k) % len(tus)]``.  A recording
        run resolves them all here, ahead of the executes (see
        _BranchStream), and each resolve bumps its TU's branch
        counters.  A replay takes them from the stream, gives each the
        shrunk event list its execute runs, and bumps each TU's
        counters once for the whole invocation.
        """
        n_tus = len(tus)
        if self.br_replay is None:
            recs = [tus[(lo + k) % n_tus]._resolve(trace.path)
                    for k, trace in enumerate(traces)]
            self.br_record.extend(recs)
            return recs
        pos = self.br_pos
        recs = self.br_replay[pos:pos + len(traces)]
        if len(recs) != len(traces):
            raise SimulationError(
                "fast engine: branch-stream replay misaligned "
                f"(stream ends {len(traces) - len(recs)} execute(s) early)"
            )
        self.br_pos = pos + len(recs)
        wrong_path = self.cfg.wrong_exec.wrong_path
        branches = [0] * n_tus
        btb_misses = [0] * n_tus
        mispredicts = [0] * n_tus
        for k, (rec, trace) in enumerate(zip(recs, traces)):
            path = trace.path
            if rec[0] != len(path.branch_pcs):
                raise SimulationError(
                    "fast engine: branch-stream replay misaligned "
                    f"({rec[0]} recorded branches vs "
                    f"{len(path.branch_pcs)} in path)"
                )
            j = k % n_tus
            branches[j] += rec[0]
            btb_misses[j] += rec[1]
            mispredicts[j] += len(rec[2])
            if wrong_path and rec[2]:
                if rec[3] is None:
                    rec[3] = self.wp_events(path, rec[2])
            elif rec[4] is None:
                rec[4] = self.wp_events(path, ())
        for j in range(min(n_tus, len(recs))):
            tus[(lo + j) % n_tus]._count_branches(
                branches[j], btb_misses[j], mispredicts[j]
            )
        return recs

    def _seed_bursts(self, comp: CompiledRegion, lo: int, traces: List,
                     recs: List[list], futures: List) -> None:
        """Memoize the invocation's wrong-path bursts in one batch."""
        sites = [
            (trace, branch_idx, lo + k, futures[k])
            for k, (trace, rec) in enumerate(zip(traces, recs))
            for branch_idx in rec[2]
        ]
        if sites:
            comp.seed_wrong_paths(self.streams, self.seed, sites)

    def _compile(self, region, invocation: int):
        """One region invocation's compile step.

        Binds the invocation's traces, takes its branch records, binds
        the next chunk's trace that a sequential invocation's wrong
        paths may run on into, seeds the wrong-path bursts (see
        _BranchStream) and takes the loads of a parallel invocation's
        wrong threads.  The region loops run what it returns, and
        :func:`compile_program_fast` runs it alone.  Returns ``(info,
        lo, hi, traces, recs, futures, wrong_threads)``: ``futures[k]``
        is execute ``k``'s ``future_loads``, and ``wrong_threads[k]``
        the per-round loads of the wrong thread that starts at
        iteration ``hi + k``.
        """
        info = self._info(region)
        comp = info.compiled
        streams = self.streams
        seed = self.seed
        n_tus = self.n_tus
        wrong_exec = self.cfg.wrong_exec
        if comp.is_parallel:
            lo, hi = region.global_iter_range(invocation)
            if hi <= lo:
                raise SimulationError(
                    f"region {region.name}: empty iteration range"
                )
            tus = self.tus
        else:
            lo, hi = region.global_chunk_range(invocation)
            tus = [self.tus[self.head_tu]]
        traces = comp.trace_range(streams, seed, lo, hi)
        recs = self._branch_records(tus, lo, traces)
        futures: List[Optional[Sequence[int]]] = [None] * len(traces)
        if wrong_exec.wrong_path and traces:
            if not comp.is_parallel:
                # A chunk's wrong paths may run on into the next chunk.
                futures = [trace.load_addrs for trace in traces[1:]]
                futures.append(comp.trace(streams, seed, hi).load_addrs)
            if self.seed_bursts:
                self._seed_bursts(comp, lo, traces, recs, futures)
        wrong_threads: List[List[Sequence[int]]] = []
        if comp.is_parallel:
            if wrong_exec.wrong_thread and n_tus > 1:
                # Wrong thread k runs the iterations its TU would take
                # next: hi + k, then every n_tus-th one after.
                wrong_threads = [
                    [comp.wrong_thread_addrs(streams, seed,
                                             hi + k + round_ * n_tus)
                     for round_ in range(info.wth_max_iters)]
                    for k in range(n_tus - 1)
                ]
            # The next sequential region runs on the TU of this
            # invocation's last iteration.
            self.head_tu = (hi - 1) % n_tus
        return info, lo, hi, traces, recs, futures, wrong_threads

    def run_parallel_region(self, region, invocation: int):
        info, lo, hi, traces, recs, _, wrong_threads = self._compile(
            region, invocation
        )
        n_tus = self.n_tus
        tus = self.tus
        tu_free = [0.0] * n_tus
        prev_cont_end = 0.0
        prev_comp_end = 0.0
        prev_comp_len = 0.0
        prev_wb_end = 0.0
        prev_targets: Optional[Sequence[int]] = None
        region_end = 0.0
        coupling = info.coupling
        multi_tu = n_tus > 1
        for k, trace in enumerate(traces):
            i = lo + k
            tu = tus[i % n_tus]
            cont, tsag, comp_c, wb = tu.execute(
                info, i, trace, recs[k], sequential=False,
                upstream_targets=prev_targets, future_loads=None,
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
        for k, rounds in enumerate(wrong_threads):
            tus[(hi + k) % n_tus].run_wrong_thread(rounds)
        return region_end, hi - lo

    def run_sequential_region(self, region, invocation: int):
        tu = self.tus[self.head_tu]
        info, lo, hi, traces, recs, futures, _ = self._compile(
            region, invocation
        )
        cycles = 0.0
        for k, trace in enumerate(traces):
            cont, tsag, comp_c, wb = tu.execute(
                info, lo + k, trace, recs[k], sequential=True,
                upstream_targets=None, future_loads=futures[k],
            )
            cycles += cont + tsag + comp_c + wb
        bus_blocks = self.bus_blocks
        if bus_blocks:
            self.sequential_stores(tu.tu_id, bus_blocks)
            bus_blocks.clear()
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


def compile_program_fast(
    program: Program,
    config: MachineConfig,
    params: SimParams = SimParams(),
) -> None:
    """Fill ``program``'s memo as :func:`run_program_fast` would.

    Runs only the compile step of every region invocation, in schedule
    order: traces, branch records (recorded, or replayed from the
    stream), wrong-path bursts, the sequential lookahead and the wrong
    threads' traces, then publishes the branch stream.  Nothing is
    simulated, so a sweep can warm a program's memo for a configuration
    at the cost of compiling it; the memo is left exactly as a full run
    of ``config`` leaves it.
    """
    eng = _FastMachine(config, params, program_memo(program))
    try:
        for invocation, region in program.schedule():
            eng._compile(region, invocation)
        eng.publish()
    finally:
        eng.release()


def run_program_fast(
    program: Program,
    config: MachineConfig,
    params: SimParams = SimParams(),
    profiler=None,
) -> SimResult:
    """Fast-engine equivalent of :func:`repro.sim.driver.run_program`.

    Takes no tracer/sanitizer/attrib: observers require the oracle's
    event-level replay (the driver enforces this).  A host ``profiler``
    gets the shared region loop's ``scheduler.*`` sections.  The result
    is bit-identical to the oracle's for any program and configuration.
    """
    eng = _FastMachine(config, params, program_memo(program))
    try:
        cycles = run_regions(program, params, eng, eng, profiler=profiler)
        # Only a completed run publishes (a raised exception above
        # leaves the memo's streams untouched).
        eng.publish()
        return SimResult.from_counters(
            program, config, params, cycles, eng.collect_stats()
        )
    finally:
        eng.release()
