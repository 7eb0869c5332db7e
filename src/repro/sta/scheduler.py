"""Thread-pipelining scheduler: composes iteration timings across TUs.

Implements the execution model of Figure 2 as a pipeline schedule over
iterations.  For iteration *i* (global index), assigned round-robin to
TU ``i mod T``:

* **fork**: iteration *i* is forked at the end of iteration *i-1*'s
  continuation stage and pays the fork delay plus per-value forwarding
  cost (§4.1) — also guaranteeing that continuation stages of adjacent
  threads never overlap (§2.2);
* **TU availability**: a TU can start a new iteration only after its
  previous iteration's write-back completes (the head thread must
  retire before its unit is reused);
* **cross-iteration dependences**: the computation stage may not finish
  before the upstream thread has produced the target-store data it
  consumes; the region's ``dep_coupling`` locates that production point
  inside the upstream computation stage;
* **in-order write-back**: write-back stages are serialized in program
  order (§2.2), preserving non-speculative memory state.

At the loop exit the speculatively-forked successor threads are either
killed instantly (``orig``) or marked *wrong* and allowed to run on
(§3.1.2) — overlapping the following sequential region, to which they
add no cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..common.errors import SimulationError
from ..obs.events import (
    CAT_REGION,
    CAT_RING,
    CAT_THREAD,
    ITER_RETIRE,
    ITER_SPAN,
    REGION_BEGIN,
    REGION_END,
    RING_FORWARD,
    THREAD_FORK,
)
from ..workloads.program import ParallelRegionSpec, SequentialRegionSpec
from ..workloads.tracegen import TraceGenerator
from .machine import Machine

__all__ = ["Scheduler", "compose_pipeline_step"]


def compose_pipeline_step(
    first: bool,
    fork_base: float,
    fork_cost: float,
    tu_avail: float,
    cont: float,
    tsag: float,
    comp: float,
    wb: float,
    coupling: float,
    prev_comp_end: float,
    prev_comp_len: float,
    prev_wb_end: float,
):
    """Place one iteration into the thread-pipelining schedule.

    Pure function shared by the oracle scheduler and the fast engine so
    both compose iteration timings with literally the same arithmetic
    (bit-identical floats).  Returns ``(start, cont_end, comp_end,
    wb_end)``.
    """
    if first:
        start = tu_avail
    else:
        start = max(fork_base + fork_cost, tu_avail)
    cont_end = start + cont
    tsag_end = cont_end + tsag
    # Cross-iteration dependence: the upstream thread produces the
    # forwarded data `coupling` of the way *from the end* of its
    # computation stage; downstream computation cannot complete earlier
    # than that production point plus its own work.
    if not first and coupling > 0.0:
        dep_ready = prev_comp_end - (1.0 - coupling) * prev_comp_len
        comp_start = max(tsag_end, dep_ready)
    else:
        comp_start = tsag_end
    comp_end = comp_start + comp
    wb_start = max(comp_end, prev_wb_end)
    wb_end = wb_start + wb
    return start, cont_end, comp_end, wb_end


class Scheduler:
    """Drives a :class:`Machine` through a program's regions."""

    __slots__ = (
        "machine", "tracegen", "_clock",
        "_tracer", "_obs_region", "_obs_thread", "_obs_ring", "_san",
        "_attrib",
    )

    def __init__(self, machine: Machine, tracegen: TraceGenerator) -> None:
        self.machine = machine
        self.tracegen = tracegen
        # Global simulated-cycle base: regions execute one after another,
        # so each region's local schedule is offset by the cycles of
        # everything that ran before it.  Only tracing consumes this.
        self._clock = 0.0
        self._san = machine.sanitizer
        tracer = machine.tracer
        live = tracer is not None and tracer.enabled
        self._tracer = tracer if live else None
        self._obs_region = tracer if live and tracer.wants(CAT_REGION) else None
        self._obs_thread = tracer if live and tracer.wants(CAT_THREAD) else None
        self._obs_ring = tracer if live and tracer.wants(CAT_RING) else None
        attrib = machine.attrib
        # The attribution collector consumes the same estimated clock and
        # region context a tracer does (lifetime gaps, per-region tables).
        self._attrib = attrib if attrib is not None and attrib.enabled else None

    # ------------------------------------------------------------------
    # parallel regions
    # ------------------------------------------------------------------

    def run_parallel_region(
        self, region: ParallelRegionSpec, invocation: int
    ) -> Tuple[float, int]:
        """Execute one invocation of a parallelized loop.

        Returns its cycles and its iteration count.
        """
        machine = self.machine
        tracegen = self.tracegen
        n_tus = machine.n_tus
        lo, hi = region.global_iter_range(invocation)
        if hi <= lo:
            raise SimulationError(f"region {region.name}: empty iteration range")

        tu_free = [0.0] * n_tus
        prev_cont_end = 0.0
        prev_comp_end = 0.0
        prev_comp_len = 0.0
        prev_wb_end = 0.0
        prev_targets: Optional[np.ndarray] = None
        region_end = 0.0
        coupling = region.dep_coupling
        multi_tu = n_tus > 1
        base = self._clock
        obs = self._tracer
        att = self._attrib
        obs_t = self._obs_thread
        san = self._san
        if att is not None:
            att.region = region.name
        if self._obs_region is not None:
            self._obs_region.emit(
                REGION_BEGIN, 0, invocation, tag=region.name, cycle=base
            )

        for i in range(lo, hi):
            tu = machine.tu_for_iteration(i)
            if san is not None and i > lo:
                # Iteration i was forked by its ring predecessor, which
                # also forwarded the target stores consumed below: both
                # must come from a live thread one hop back on the ring.
                src = (i - 1) % n_tus
                san.check_fork(src)
                san.check_ring(src, tu.tu_id, n_tus)
            trace = tracegen.iteration_trace(region, i)
            if obs is not None or att is not None:
                # Replay happens before the schedule times are composed;
                # stamp its events with the best available estimate of
                # this iteration's start (exact when the fork-point bound
                # dominates, which it almost always does).
                now = base + max(prev_cont_end, tu_free[tu.tu_id])
                if obs is not None:
                    obs.now = now
                if att is not None:
                    att.now = now
            timing = tu.execute_iteration(
                region,
                i,
                trace,
                tracegen,
                upstream_targets=(
                    prev_targets.tolist() if prev_targets is not None else None
                ),
            )
            if i == lo:
                fork_at = 0.0
                fork_cost = 0.0
            else:
                fork_at = prev_cont_end
                fork_cost = tu.fork_cost(trace.n_forward_values) if multi_tu else 0.0
            start, cont_end, comp_end, wb_end = compose_pipeline_step(
                i == lo, fork_at, fork_cost, tu_free[tu.tu_id],
                timing.continuation, timing.tsag,
                timing.computation, timing.writeback,
                coupling, prev_comp_end, prev_comp_len, prev_wb_end,
            )

            if obs_t is not None:
                # Exact post-hoc schedule events (timings are now known).
                if i > lo and multi_tu:
                    obs_t.emit(
                        THREAD_FORK, tu.tu_id, i, trace.n_forward_values,
                        cycle=base + fork_at,
                    )
                obs_t.emit(
                    ITER_SPAN, tu.tu_id, i, trace.n_instr,
                    wb_end - start, cycle=base + start,
                )
                obs_t.emit(
                    ITER_RETIRE, tu.tu_id, trace.n_instr, trace.n_loads,
                    cycle=base + wb_end,
                )
            if (
                self._obs_ring is not None
                and prev_targets is not None
                and len(prev_targets)
            ):
                self._obs_ring.emit(
                    RING_FORWARD, tu.tu_id, int(len(prev_targets)),
                    cycle=base + start,
                )

            if san is not None:
                san.check_iter(tu.tu_id, base + start, base + wb_end)
            tu_free[tu.tu_id] = wb_end
            prev_cont_end = cont_end
            prev_comp_end = comp_end
            prev_comp_len = timing.computation
            prev_wb_end = wb_end
            if wb_end > region_end:
                region_end = wb_end
            prev_targets = trace.store_addrs[trace.tstore_mask]

        # Loop exit: the head thread aborts its speculative successors.
        if machine.cfg.wrong_exec.wrong_thread and multi_tu:
            # Successor threads were forked for iterations hi, hi+1, ...;
            # instead of dying they run on as wrong threads (§3.1.2),
            # overlapping the following sequential code at zero cost.
            if obs is not None:
                obs.now = base + region_end
            if att is not None:
                att.now = base + region_end
            for k in range(n_tus - 1):
                wrong_iter = hi + k
                tu = machine.tu_for_iteration(wrong_iter)
                tu.run_wrong_thread(region, wrong_iter, tracegen)
        machine.set_head((hi - 1) % n_tus)
        self._clock = base + region_end
        if san is not None:
            san.check_clock(self._clock)
        if self._obs_region is not None:
            self._obs_region.emit(
                REGION_END, 0, invocation, hi - lo, region_end,
                tag=region.name, cycle=base + region_end,
            )

        return region_end, hi - lo

    # ------------------------------------------------------------------
    # sequential regions
    # ------------------------------------------------------------------

    def run_sequential_region(
        self, region: SequentialRegionSpec, invocation: int
    ) -> Tuple[float, int]:
        """Execute one invocation of a sequential section on the head TU.

        Returns its cycles and its chunk count.
        """
        machine = self.machine
        tracegen = self.tracegen
        tu = machine.tus[machine.head_tu]
        lo, hi = region.global_chunk_range(invocation)
        cycles = 0.0
        base = self._clock
        obs = self._tracer
        att = self._attrib
        obs_t = self._obs_thread
        if att is not None:
            att.region = region.name
        if self._obs_region is not None:
            self._obs_region.emit(
                REGION_BEGIN, tu.tu_id, invocation, tag=region.name, cycle=base
            )
        san = self._san
        for c in range(lo, hi):
            if obs is not None:
                obs.now = base + cycles
            if att is not None:
                att.now = base + cycles
            trace = tracegen.chunk_trace(region, c)
            timing = tu.execute_sequential_chunk(
                region, c, trace, tracegen, update_bus=machine.bus
            )
            if san is not None:
                san.check_iter(tu.tu_id, base + cycles, base + cycles + timing.total)
            if obs_t is not None:
                obs_t.emit(
                    ITER_SPAN, tu.tu_id, c, trace.n_instr,
                    timing.total, cycle=base + cycles,
                )
                obs_t.emit(
                    ITER_RETIRE, tu.tu_id, trace.n_instr, trace.n_loads,
                    cycle=base + cycles + timing.total,
                )
            cycles += timing.total
        self._clock = base + cycles
        if san is not None:
            san.check_clock(self._clock)
        if self._obs_region is not None:
            self._obs_region.emit(
                REGION_END, tu.tu_id, invocation, hi - lo, cycles,
                tag=region.name, cycle=base + cycles,
            )
        return cycles, hi - lo
