"""Tests for the thread-unit replay engine and wrong execution."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
    SimParams,
    ThreadUnitConfig,
    WrongExecutionConfig,
)
from repro.common.rng import StreamFactory
from repro.core.thread_unit import SEQ_SPLIT, ThreadUnit
from repro.isa.cfg import BlockSpec, BranchSpec, IterationCFG, MemSlot
from repro.mem.hierarchy import TUMemSystem
from repro.mem.l2 import SharedL2
from repro.sim.driver import run_simulation
from repro.sta.configs import named_config
from repro.workloads.patterns import RandomPattern, SequentialPattern
from repro.workloads.program import (
    ParallelRegionSpec,
    SequentialRegionSpec,
    WrongExecProfile,
)
from repro.workloads.tracegen import TraceGenerator


def make_region(noise=0.9):
    cfg = IterationCFG(
        entry="a",
        blocks=[
            BlockSpec(
                "a",
                24,
                mem_slots=(MemSlot("data"), MemSlot("data"),
                           MemSlot("out", is_store=True, is_target_store=True)),
                branch=BranchSpec(0.5, "b", "b", noise=noise),
            ),
            BlockSpec("b", 8, mem_slots=(MemSlot("data"),)),
        ],
    )
    return ParallelRegionSpec(
        name="tu.region",
        cfg=cfg,
        patterns={
            "data": SequentialPattern("data", 0x10000, 64 * 1024, stride=64,
                                      per_iter=3, stagger=False),
            "out": SequentialPattern("out", 0x200000, 8 * 1024, stride=8,
                                     per_iter=1, stagger=False),
            "poll": RandomPattern("poll", 0x300000, 64 * 1024, stagger=False),
        },
        iters_per_invocation=8,
        pollution_pattern="poll",
        wrong_exec=WrongExecProfile(wp_mean_loads=4.0, wp_max_loads=8,
                                    p_convergent=0.5, wth_fraction=1.0,
                                    wth_max_iters=1),
    )


def make_seq_region():
    cfg = IterationCFG(
        entry="a",
        blocks=[
            BlockSpec("a", 24, mem_slots=(
                MemSlot("data"), MemSlot("out", is_store=True))),
        ],
    )
    return SequentialRegionSpec(
        name="tu.seq",
        cfg=cfg,
        patterns={
            "data": SequentialPattern("data", 0x10000, 64 * 1024, stride=64,
                                      per_iter=1, stagger=False),
            "out": SequentialPattern("out", 0x400000, 8 * 1024, stride=8,
                                     per_iter=1, stagger=False),
        },
        chunks_per_invocation=4,
    )


def make_tu(wrong_path=False, wrong_thread=False, sidecar=SidecarKind.NONE,
            n_tus=2):
    cfg = MachineConfig(
        name="t",
        n_thread_units=n_tus,
        tu=ThreadUnitConfig(
            issue_width=4,
            rob_size=32,
            lsq_size=32,
            l1d=CacheConfig(size=1024, assoc=1, block_size=64, name="l1d"),
            l1i=CacheConfig(size=2048, assoc=2, block_size=64, name="l1i"),
            sidecar=SidecarConfig(kind=sidecar, entries=8),
        ),
        wrong_exec=WrongExecutionConfig(wrong_path=wrong_path,
                                        wrong_thread=wrong_thread),
    )
    l2 = SharedL2(cfg.mem)
    return ThreadUnit(0, cfg, l2, SimParams(seed=5))


class TestIterationExecution:
    def test_stores_committed_at_writeback(self):
        tu = make_tu()
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        trace = tg.iteration_trace(region, 0)
        tu.execute_iteration(region, 0, trace, tg)
        # Stores went through the speculative buffer and reached the L1.
        assert tu.mem.stats["stores"] == trace.n_stores
        assert tu.membuf.occupancy == 0  # drained

    def test_no_wrong_loads_when_disabled(self):
        tu = make_tu(wrong_path=False)
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        for i in range(8):
            tu.execute_iteration(region, i, tg.iteration_trace(region, i), tg)
        assert tu.mem.stats["wrong_loads"] == 0

    def test_wrong_loads_when_enabled(self):
        tu = make_tu(wrong_path=True)
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        for i in range(16):
            tu.execute_iteration(region, i, tg.iteration_trace(region, i), tg)
        assert tu.mem.stats["wrong_loads"] > 0
        assert tu.stats["wrong_path_loads"] == tu.mem.stats["wrong_loads"]

    def test_timing_fields_populated(self):
        tu = make_tu()
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        trace = tg.iteration_trace(region, 0)
        t = tu.execute_iteration(region, 0, trace, tg)
        assert t.total > 0
        assert t.base_cycles > 0

    def test_instructions_counted(self):
        tu = make_tu()
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        trace = tg.iteration_trace(region, 0)
        tu.execute_iteration(region, 0, trace, tg)
        assert tu.stats["instructions"] == trace.n_instr
        assert tu.stats["iterations"] == 1

    def test_upstream_targets_flow_to_membuf(self):
        tu = make_tu()
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        trace = tg.iteration_trace(region, 1)
        tu.execute_iteration(region, 1, trace, tg, upstream_targets=[0x10000])
        assert tu.membuf.stats["targets_received"] >= 1


class TestSequentialExecution:
    def test_stores_broadcast_on_bus(self):
        from repro.mem.coherence import UpdateBus

        tu = make_tu()
        region = make_seq_region()
        tg = TraceGenerator(StreamFactory(5))
        bus = UpdateBus([tu.mem])
        trace = tg.chunk_trace(region, 0)
        tu.execute_sequential_chunk(region, 0, trace, tg, update_bus=bus)
        assert bus.stats["store_broadcasts"] == trace.n_stores
        assert tu.stats["chunks"] == 1

    def test_seq_split_is_pure_computation(self):
        assert SEQ_SPLIT.computation == 1.0
        assert SEQ_SPLIT.continuation == 0.0


class TestWrongFillContention:
    def test_wec_pays_no_port_charge(self):
        tu = make_tu(wrong_path=True, sidecar=SidecarKind.WEC)
        assert tu._wrong_fill_charge == 0.0

    def test_plain_pays_port_charge(self):
        tu = make_tu(wrong_path=True, sidecar=SidecarKind.NONE)
        assert tu._wrong_fill_charge > 0.0

    def test_charge_raises_stall(self):
        """Identical replays, WEC vs plain: the plain TU's iteration must
        carry extra stall for its wrong fills."""
        region = make_region()
        totals = {}
        for kind in (SidecarKind.WEC, SidecarKind.NONE):
            tu = make_tu(wrong_path=True, sidecar=kind)
            tg = TraceGenerator(StreamFactory(5))
            stall = 0.0
            for i in range(20):
                t = tu.execute_iteration(region, i, tg.iteration_trace(region, i), tg)
                stall += t.mem_stall
            totals[kind] = stall
        # Plain wrong fills hit the same pool of stalls plus contention;
        # WEC's hits can only reduce stalls. The relation must hold.
        assert totals[SidecarKind.NONE] > totals[SidecarKind.WEC]


class TestWrongThread:
    def test_runs_future_iteration_loads(self):
        tu = make_tu(wrong_thread=True)
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        n = tu.run_wrong_thread(region, 100, tg)
        assert n > 0
        assert tu.mem.stats["wrong_loads"] == n
        assert tu.stats["wrong_threads"] == 1

    def test_membuf_aborted(self):
        tu = make_tu(wrong_thread=True)
        region = make_region()
        tg = TraceGenerator(StreamFactory(5))
        tu.membuf.buffer_store(0x123)
        tu.run_wrong_thread(region, 100, tg)
        assert tu.membuf.occupancy == 0
        assert tu.membuf.stats["aborts"] == 1

    def test_no_store_while_a_wrong_thread_runs(self, monkeypatch):
        # Wrong threads never store (§3.1.2): spy on every store handler
        # through a full oracle run and count the stores entered while
        # run_wrong_thread is on the stack.
        running = []
        stores = {"live": 0, "wrong": 0}
        run_wrong_thread = ThreadUnit.run_wrong_thread

        def spy_thread(self, *args):
            running.append(self.tu_id)
            try:
                return run_wrong_thread(self, *args)
            finally:
                running.pop()

        def spy_store(handler):
            def store(self, addr):
                stores["wrong" if running else "live"] += 1
                return handler(self, addr)
            return store

        monkeypatch.setattr(ThreadUnit, "run_wrong_thread", spy_thread)
        for name in ("_store_correct_sidecar", "_store_correct_nlp",
                     "_store_correct_plain"):
            monkeypatch.setattr(TUMemSystem, name,
                                spy_store(getattr(TUMemSystem, name)))
        result = run_simulation(
            "181.mcf", named_config("wth-wp-wec", n_tus=4),
            SimParams(seed=11, scale=2e-5, warmup_invocations=0),
        )
        assert result.wrong_thread_loads > 0 and stores["live"] > 0
        assert stores["wrong"] == 0


class TestForkCostAndReset:
    def test_fork_cost(self):
        tu = make_tu()
        # fork_delay 4 + 2 cycles per forwarded value
        assert tu.fork_cost(3) == 4 + 2 * 3
