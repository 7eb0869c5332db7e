"""Hand-checked pipeline arithmetic for the thread-pipelining scheduler.

These tests construct fully deterministic workloads — branchless CFGs,
L1-resident footprints after a priming pass, fixed instruction counts —
so iteration timings are closed-form, and then verify the scheduler's
composition (fork serialization, TU reuse, in-order write-back,
dependence coupling) against hand-computed cycle counts.  A property
test checks that one composed step never runs a clock backwards.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    SidecarConfig,
    SimParams,
    ThreadUnitConfig,
    WrongExecutionConfig,
)
from repro.common.rng import StreamFactory
from repro.isa.cfg import BlockSpec, IterationCFG, MemSlot
from repro.isa.encoding import StageSplit
from repro.sta.machine import Machine
from repro.sta.scheduler import Scheduler, compose_pipeline_step
from repro.workloads.patterns import SequentialPattern
from repro.workloads.program import ParallelRegionSpec
from repro.workloads.tracegen import TraceGenerator

#: Deterministic iteration: 100 instructions, no branches, one hot load.
N_INSTR = 100
SPLIT = StageSplit(0.1, 0.1, 0.7, 0.1)


def make_region(dep_coupling: float, iters: int, n_forward: int = 0):
    cfg = IterationCFG(
        entry="a",
        blocks=[BlockSpec("a", N_INSTR, mem_slots=(MemSlot("hot"),))],
    )
    return ParallelRegionSpec(
        name="math.region",
        cfg=cfg,
        patterns={
            # One 64-byte block: resident after the first touch.
            "hot": SequentialPattern("hot", 0x1000, 64, stride=8, per_iter=1,
                                     stagger=False),
        },
        iters_per_invocation=iters,
        stage_split=SPLIT,
        n_forward_values=n_forward,
        ilp=4.0,
        dep_coupling=dep_coupling,
    )


def make_machine(n_tus: int) -> Machine:
    cfg = MachineConfig(
        name="math",
        n_thread_units=n_tus,
        tu=ThreadUnitConfig(
            issue_width=4,
            rob_size=64,
            lsq_size=64,
            l1d=CacheConfig(size=1024, assoc=1, block_size=64, name="l1d"),
            l1i=CacheConfig(size=4096, assoc=2, block_size=64, name="l1i"),
            sidecar=SidecarConfig(),
        ),
        wrong_exec=WrongExecutionConfig(False, False),
        fork_delay=4,
        comm_cycles_per_value=2,
    )
    return Machine(cfg, SimParams(seed=1))


#: Per-iteration base cycles: 100 instructions / min(4, ilp=4) = 25.
BASE = N_INSTR / 4.0
CONT, TSAG, COMP, WB = 2.5, 2.5, 17.5, 2.5  # SPLIT × BASE


def run_region(n_tus: int, dep_coupling: float, iters: int, n_forward: int = 0):
    machine = make_machine(n_tus)
    sched = Scheduler(machine, TraceGenerator(StreamFactory(1)))
    region = make_region(dep_coupling, iters, n_forward)
    # Prime: run one invocation to warm the (one-block) footprint and
    # the I-cache, then measure the second invocation.
    sched.run_parallel_region(region, 0)
    return sched.run_parallel_region(region, 1)[0]


class TestSingleTU:
    def test_serial_sum(self):
        # 1 TU: iterations back-to-back, no fork cost: 4 × 25 cycles.
        assert run_region(1, 0.0, 4) == pytest.approx(4 * BASE)

    def test_coupling_irrelevant_when_serial(self):
        # Fully-coupled and uncoupled are identical on one TU: the
        # dep-ready point (comp_end(i-1)) never exceeds the TU-free time.
        assert run_region(1, 1.0, 4) == pytest.approx(run_region(1, 0.0, 4))


def reference_schedule(n, n_tus, coupling, fork_cost):
    """Independent implementation of the §2.2 pipeline recurrence."""
    tu_free = [0.0] * n_tus
    cont_end = comp_end = wb_end = 0.0
    comp_len_prev = 0.0
    end = 0.0
    for i in range(n):
        if i == 0:
            start = tu_free[0]
        else:
            start = max(cont_end + (fork_cost if n_tus > 1 else 0.0),
                        tu_free[i % n_tus])
        c_end = start + CONT
        t_end = c_end + TSAG
        comp_start = t_end
        if i > 0 and coupling > 0.0:
            comp_start = max(comp_start, comp_end - (1 - coupling) * comp_len_prev)
        cmp_end = comp_start + COMP
        w_start = max(cmp_end, wb_end)
        w_end = w_start + WB
        tu_free[i % n_tus] = w_end
        cont_end, comp_end, wb_end = c_end, cmp_end, w_end
        comp_len_prev = COMP
        end = max(end, w_end)
    return end


class TestTwoTUs:
    @pytest.mark.parametrize("n,coupling,fork", [
        (6, 0.0, 4), (6, 0.5, 4), (6, 1.0, 4), (9, 0.0, 10), (5, 0.25, 4),
    ])
    def test_matches_reference_recurrence(self, n, coupling, fork):
        n_forward = (fork - 4) // 2
        measured = run_region(2, coupling, n, n_forward)
        assert measured == pytest.approx(reference_schedule(n, 2, coupling, fork))

    def test_forward_values_never_speed_up(self):
        n = 6
        without = run_region(2, 0.0, n, n_forward=0)
        with3 = run_region(2, 0.0, n, n_forward=3)
        assert with3 > without
        assert with3 - without == pytest.approx(
            reference_schedule(n, 2, 0.0, 10) - reference_schedule(n, 2, 0.0, 4)
        )

    def test_full_coupling_serializes_computation(self):
        """dep_coupling = 1: comp(i) starts at comp_end(i-1); the steady
        inter-iteration gap becomes COMP (17.5) instead of 6.5."""
        n = 6
        expected = (n - 1) * COMP + BASE
        measured = run_region(2, 1.0, n)
        assert measured == pytest.approx(expected)

    def test_coupling_monotone(self):
        times = [run_region(2, c, 6) for c in (0.0, 0.5, 1.0)]
        assert times[0] < times[1] < times[2]


class TestManyTUs:
    def test_fork_serialization_limits_throughput(self):
        """With plenty of TUs the continuation+fork chain is the only
        serial resource: adding TUs beyond the pipeline depth changes
        nothing."""
        assert run_region(8, 0.0, 8) == pytest.approx(run_region(4, 0.0, 8))

    def test_pipeline_beats_serial(self):
        serial = run_region(1, 0.0, 8)
        piped = run_region(4, 0.0, 8)
        assert piped < serial / 2

    def test_region_cycles_scale_linearly_in_iterations(self):
        short = run_region(4, 0.0, 8)
        long = run_region(4, 0.0, 16)
        # Steady-state throughput: one iteration per (CONT + fork).
        assert long - short == pytest.approx(8 * (CONT + 4))


class TestWriteBackOrder:
    def test_wb_serialization_binds_when_wb_is_long(self):
        """A write-back-heavy split makes in-order WB the bottleneck."""
        wb_heavy = StageSplit(0.05, 0.05, 0.1, 0.8)
        machine = make_machine(4)
        sched = Scheduler(machine, TraceGenerator(StreamFactory(1)))
        region = make_region(0.0, 8)
        region = type(region)(
            **{**region.__dict__, "stage_split": wb_heavy, "name": "math.wb"}
        )
        sched.run_parallel_region(region, 0)
        cycles = sched.run_parallel_region(region, 1)[0]
        # Steady gap = WB stage length = 0.8 × 25 = 20 cycles.
        expected = 7 * 20 + BASE
        assert cycles == pytest.approx(expected)


#: A non-negative cycle count or time.
CYCLES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                   allow_infinity=False)


class TestComposeProperties:
    @settings(max_examples=300, deadline=None)
    @given(first=st.booleans(), fork_at=CYCLES, fork_cost=CYCLES,
           tu_free=CYCLES, stages=st.tuples(CYCLES, CYCLES, CYCLES, CYCLES),
           coupling=st.floats(min_value=0.0, max_value=1.0),
           prev_comp_end=CYCLES, prev_comp_len=CYCLES, prev_wb_end=CYCLES)
    def test_step_never_runs_a_clock_backwards(
        self, first, fork_at, fork_cost, tu_free, stages, coupling,
        prev_comp_end, prev_comp_len, prev_wb_end,
    ):
        start, cont_end, comp_end, wb_end = compose_pipeline_step(
            first, fork_at, fork_cost, tu_free, *stages, coupling,
            prev_comp_end, prev_comp_len, prev_wb_end,
        )
        # A TU starts an iteration only after its last one retired ...
        assert start >= tu_free
        # ... and only once its ring predecessor has forked it.
        if not first:
            assert start >= fork_at + fork_cost
        # The iteration's stages end in order ...
        assert start <= cont_end <= comp_end <= wb_end
        # ... and write-back stays in program order.
        assert wb_end >= prev_wb_end
