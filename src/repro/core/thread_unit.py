"""One thread processing unit: replay engine + timing assembly.

A :class:`ThreadUnit` owns the per-TU hardware (private L1 I/D caches
with optional WEC/VC/prefetch sidecar, branch unit, speculative memory
buffer) and knows how to *execute* one loop iteration or sequential
chunk: it replays the iteration's dynamic trace against that hardware,
injecting wrong-path loads at resolved mispredictions when the machine
configuration allows it, and returns the iteration's cycle breakdown
for the thread-pipelining scheduler to compose.
"""

from __future__ import annotations

# Host-profiler section timing only; guarded by `prof is not None` at
# every use and never feeds simulated state (see obs.hostprof).
from time import perf_counter
from typing import Iterable, Optional, Union

from ..branch.frontend import BranchUnit
from ..common.config import MachineConfig, SidecarKind, SimParams
from ..common.stats import CounterGroup
from ..isa.encoding import EV_BRANCH, EV_LOAD, EV_TSTORE, IterationTrace, StageSplit
from ..mem.coherence import UpdateBus
from ..mem.hierarchy import TUMemSystem
from ..mem.l2 import SharedL2
from ..obs.attrib import PROV_WRONG_PATH, PROV_WRONG_THREAD
from ..obs.events import (
    CAT_MEM,
    CAT_THREAD,
    THREAD_ABORT,
    THREAD_KILL,
    WP_ENTER,
    WP_EXIT,
    WRONG_LOAD,
)
from ..workloads.program import ParallelRegionSpec, SequentialRegionSpec
from ..workloads.tracegen import TraceGenerator
from .membuffer import SpeculativeMemBuffer
from .timing import CoreTimingModel, IterationTiming

__all__ = ["ThreadUnit", "SEQ_SPLIT"]

#: Sequential chunks have no thread-pipelining structure: all computation.
SEQ_SPLIT = StageSplit(0.0, 0.0, 1.0, 0.0)

RegionLike = Union[ParallelRegionSpec, SequentialRegionSpec]


class ThreadUnit:
    """A superscalar core with private caches inside the STA ring."""

    __slots__ = (
        "tu_id",
        "cfg",
        "params",
        "mem",
        "branch",
        "timing",
        "membuf",
        "stats",
        "_wrong_fill_charge",
        "_obs_thread",
        "_obs_mem",
        "_prof",
        "_attrib",
    )

    def __init__(
        self,
        tu_id: int,
        machine_cfg: MachineConfig,
        l2: SharedL2,
        params: SimParams,
        tracer=None,
        profiler=None,
        attrib=None,
    ) -> None:
        tu = machine_cfg.tu
        self.tu_id = tu_id
        self.cfg = machine_cfg
        self.params = params
        live = tracer is not None and tracer.enabled
        self._obs_thread = tracer if live and tracer.wants(CAT_THREAD) else None
        self._obs_mem = tracer if live and tracer.wants(CAT_MEM) else None
        #: Host wall-clock profiler (None → no section timing at all).
        self._prof = profiler
        #: Block-provenance collector (None → unattributed, zero cost).
        self._attrib = attrib if attrib is not None and attrib.enabled else None
        self.mem = TUMemSystem(
            tu_id, tu.l1d, tu.l1i, tu.sidecar, l2,
            prefetch_late_cycles=params.prefetch_late_cycles,
            prefetch_late_far_cycles=params.prefetch_late_far_cycles,
            tracer=tracer,
            attrib=attrib,
        )
        # Wrong-execution fills that install into the L1 occupy its fill
        # port and MSHRs for their full fill latency; the WEC has a
        # parallel datapath and does not.
        self._wrong_fill_charge = (
            0.0
            if tu.sidecar.kind is SidecarKind.WEC
            else params.wrong_fill_mshr_fraction
        )
        self.branch = BranchUnit(
            tu.branch, name=f"tu{tu_id}.bpred", tracer=tracer, tu_id=tu_id
        )
        self.timing = CoreTimingModel(tu, params)
        self.membuf = SpeculativeMemBuffer(tu.mem_buffer_entries, f"tu{tu_id}.membuf")
        self.stats = CounterGroup(f"tu{tu_id}.core")

    # ------------------------------------------------------------------

    def execute_iteration(
        self,
        region: ParallelRegionSpec,
        global_iter: int,
        trace: IterationTrace,
        tracegen: TraceGenerator,
        upstream_targets: Optional[Iterable[int]] = None,
    ) -> IterationTiming:
        """Execute one parallel-loop iteration under thread pipelining.

        Stores are buffered in the speculative memory buffer and commit
        to the cache hierarchy during the write-back phase of the same
        call; wrong-path loads are injected at resolved mispredictions
        when the machine's :class:`WrongExecutionConfig` enables them.
        """
        return self._execute(
            region,
            global_iter,
            trace,
            tracegen,
            stage_split=trace.stage_split,
            ilp=region.ilp,
            sequential=False,
            update_bus=None,
            upstream_targets=upstream_targets,
        )

    def execute_sequential_chunk(
        self,
        region: SequentialRegionSpec,
        global_chunk: int,
        trace: IterationTrace,
        tracegen: TraceGenerator,
        update_bus: Optional[UpdateBus] = None,
    ) -> IterationTiming:
        """Execute one chunk of sequential code as the (only) live thread.

        Stores go straight to the cache and are broadcast on the update
        bus so idle TUs' cached copies stay coherent (§3.2.2).
        """
        return self._execute(
            region,
            global_chunk,
            trace,
            tracegen,
            stage_split=SEQ_SPLIT,
            ilp=region.ilp,
            sequential=True,
            update_bus=update_bus,
            upstream_targets=None,
        )

    # ------------------------------------------------------------------

    def _execute(
        self,
        region: RegionLike,
        index: int,
        trace: IterationTrace,
        tracegen: TraceGenerator,
        stage_split: StageSplit,
        ilp: float,
        sequential: bool,
        update_bus: Optional[UpdateBus],
        upstream_targets: Optional[Iterable[int]],
    ) -> IterationTiming:
        mem = self.mem
        membuf = self.membuf
        wrong_path = self.cfg.wrong_exec.wrong_path
        stats = self.stats
        prof = self._prof

        # -- instruction fetch ------------------------------------------
        # Host-profiling timers are per-iteration (one pair per section,
        # amortized over hundreds of replayed events), never per-event.
        t0 = perf_counter() if prof is not None else 0.0  # lint: allow(DET001 host profiling only)
        ifetch_stall = 0
        for addr in tracegen.ifetch_blocks(region, trace.n_instr).tolist():
            ifetch_stall += mem.ifetch(addr) - 1
        if prof is not None:
            prof.add("tu.ifetch", perf_counter() - t0)  # lint: allow(DET001 host profiling only)

        if upstream_targets is not None:
            membuf.receive_targets(list(upstream_targets))

        # -- replay the dynamic stream ----------------------------------
        load_stall = 0.0
        store_stall = 0
        mispredicts = 0
        wrong_loads = 0
        wrong_fill_lat = 0.0
        # A deeply speculating wrong path reaches past this chunk's own
        # loads into the following code; give the injector that pool.
        future_loads = None
        if wrong_path and sequential:
            future_loads = tracegen.chunk_trace(region, index + 1).load_addrs
        kinds, values, indices = trace.merged_events()
        branch_taken = trace.branch_taken
        load_correct = mem.load_correct
        load_wrong = mem.load_wrong
        if prof is not None:
            t0 = perf_counter()  # lint: allow(DET001 host profiling only)
        for kind, value, idx in zip(kinds.tolist(), values.tolist(), indices.tolist()):
            if kind == EV_LOAD:
                if not sequential:
                    membuf.check_load(value)
                load_stall += load_correct(value) - 1
            elif kind == EV_BRANCH:
                if self.branch.resolve(value, bool(branch_taken[idx])):
                    mispredicts += 1
                    if wrong_path:
                        obs_t = self._obs_thread
                        obs_m = self._obs_mem
                        if obs_t is not None:
                            obs_t.emit(WP_ENTER, self.tu_id, value)
                        if self._attrib is not None:
                            # Subsequent wrong fills are this branch's.
                            self._attrib.set_wrong_context(
                                PROV_WRONG_PATH, value
                            )
                        burst = 0
                        for a in tracegen.wrong_path_addrs(
                            region, trace, idx, index, future_loads=future_loads
                        ):
                            if obs_m is not None:
                                obs_m.emit(WRONG_LOAD, self.tu_id, a)
                            wrong_fill_lat += load_wrong(a) - 1
                            burst += 1
                        wrong_loads += burst
                        if obs_t is not None:
                            obs_t.emit(WP_EXIT, self.tu_id, burst, idx)
            else:  # store / target store
                if sequential:
                    store_stall += mem.store_correct(value) - 1
                    if update_bus is not None:
                        update_bus.sequential_store(self.tu_id, value)
                else:
                    membuf.buffer_store(value, kind == EV_TSTORE)

        if prof is not None:
            prof.add("tu.replay", perf_counter() - t0)  # lint: allow(DET001 host profiling only)

        # Port/MSHR contention from wrong-execution fills into the L1,
        # proportional to the fill latencies they occupy resources for
        # (zero when a WEC services them on its parallel datapath).
        if wrong_fill_lat and self._wrong_fill_charge:
            load_stall += wrong_fill_lat * self._wrong_fill_charge

        # -- write-back stage: commit buffered stores in order -----------
        if not sequential:
            if prof is not None:
                t0 = perf_counter()  # lint: allow(DET001 host profiling only)
            for addr, _is_target in membuf.writeback():
                store_stall += mem.store_correct(addr) - 1
            if prof is not None:
                prof.add("tu.writeback", perf_counter() - t0)  # lint: allow(DET001 host profiling only)

        stats.counter("iterations" if not sequential else "chunks").add()
        stats.counter("instructions").add(trace.n_instr)
        if wrong_loads:
            stats.counter("wrong_path_loads").add(wrong_loads)

        return self.timing.iteration_timing(
            mix=trace.mix,
            ilp=ilp,
            stage_split=stage_split,
            load_stall_sum=float(load_stall),
            store_stall_sum=float(store_stall),
            n_mispredicts=mispredicts,
            mispredict_penalty=self.branch.mispredict_penalty,
            ifetch_stall_sum=float(ifetch_stall),
            n_wrong_path_loads=wrong_loads,
        )

    # ------------------------------------------------------------------

    def run_wrong_thread(
        self,
        region: ParallelRegionSpec,
        start_iter: int,
        tracegen: TraceGenerator,
    ) -> int:
        """Continue executing as a *wrong thread* (§3.1.2).

        This TU was speculatively forked with iteration ``start_iter``,
        which turned out to lie beyond the loop exit.  Instead of being
        killed it keeps executing: its loads access the memory system
        (via the wrong-execution path — the WEC absorbs them when
        present), it may not fork, and its buffered stores are squashed
        when it reaches its own abort.

        Returns the number of wrong-thread loads performed.
        """
        load_wrong = self.mem.load_wrong
        obs_t = self._obs_thread
        obs_m = self._obs_mem
        prof = self._prof
        t0 = perf_counter() if prof is not None else 0.0  # lint: allow(DET001 host profiling only)
        if obs_t is not None:
            obs_t.emit(THREAD_ABORT, self.tu_id, start_iter)
        if self._attrib is not None:
            self._attrib.set_wrong_context(PROV_WRONG_THREAD)
        n = 0
        n_tus = self.cfg.n_thread_units
        for round_ in range(region.wrong_exec.wth_max_iters):
            it = start_iter + round_ * n_tus
            for addr in tracegen.wrong_thread_addrs(region, it).tolist():
                if obs_m is not None:
                    obs_m.emit(WRONG_LOAD, self.tu_id, addr, 1)
                load_wrong(addr)
                n += 1
        if n:
            self.stats.counter("wrong_thread_loads").add(n)
        # The wrong thread reaches its own abort: squash buffered state.
        self.membuf.abort()
        self.stats.counter("wrong_threads").add()
        if obs_t is not None:
            obs_t.emit(THREAD_KILL, self.tu_id, n)
        if prof is not None:
            prof.add("tu.wrong_thread", perf_counter() - t0)  # lint: allow(DET001 host profiling only)
        return n

    def fork_cost(self, n_forward_values: int) -> float:
        """Cycles to fork a successor thread (§4.1: 4 + 2 per value)."""
        return self.cfg.fork_delay + self.cfg.comm_cycles_per_value * n_forward_values
