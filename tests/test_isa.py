"""Tests for instruction classes, mixes, CFGs and trace encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.isa.cfg import BlockSpec, BranchSpec, IterationCFG, MemSlot
from repro.isa.encoding import (
    EV_BRANCH,
    EV_LOAD,
    EV_STORE,
    EV_TSTORE,
    IterationTrace,
    StageSplit,
)
from repro.isa.instructions import FU_CLASS_MAP, InstrClass, InstructionMix


class TestInstructionMix:
    def test_from_weights_exact_total(self):
        mix = InstructionMix.from_weights(
            100, {InstrClass.IALU: 0.6, InstrClass.LOAD: 0.25, InstrClass.FPALU: 0.15}
        )
        assert mix.total == 100

    @given(st.integers(min_value=0, max_value=100_000))
    def test_from_weights_total_always_exact(self, total):
        mix = InstructionMix.from_weights(
            total, {InstrClass.IALU: 0.5, InstrClass.LOAD: 0.3, InstrClass.BRANCH: 0.2}
        )
        assert mix.total == total

    def test_from_weights_negative_total(self):
        with pytest.raises(Exception):
            InstructionMix.from_weights(-1, {InstrClass.IALU: 1.0})

    def test_from_weights_zero_weights(self):
        with pytest.raises(Exception):
            InstructionMix.from_weights(10, {InstrClass.IALU: 0.0})

    def test_add_and_merge(self):
        a = InstructionMix()
        a.add(InstrClass.LOAD, 3)
        b = InstructionMix()
        b.add(InstrClass.LOAD, 2)
        b.add(InstrClass.STORE, 1)
        a.merge_from(b)
        assert a.count(InstrClass.LOAD) == 5
        assert a.count(InstrClass.STORE) == 1

    def test_mem_ops_counts_tstores(self):
        m = InstructionMix()
        m.add(InstrClass.LOAD, 2)
        m.add(InstrClass.STORE, 1)
        m.add(InstrClass.TSTORE, 1)
        assert m.mem_ops == 4

    def test_scaled(self):
        m = InstructionMix({InstrClass.IALU: 100, InstrClass.LOAD: 10})
        s = m.scaled(0.5)
        assert s.count(InstrClass.IALU) == 50
        assert s.count(InstrClass.LOAD) == 5

    def test_fu_demand_pools(self):
        m = InstructionMix()
        m.add(InstrClass.IALU, 4)
        m.add(InstrClass.LOAD, 2)   # address generation -> int_alu
        m.add(InstrClass.FPMULT, 3)
        d = m.fu_demand()
        assert d["int_alu"] == 6
        assert d["fp_mult"] == 3

    def test_fu_map_covers_compute_classes(self):
        for klass in (InstrClass.IALU, InstrClass.FPALU, InstrClass.LOAD,
                      InstrClass.STORE, InstrClass.BRANCH):
            assert klass in FU_CLASS_MAP


def _simple_cfg(noise: float = 0.0) -> IterationCFG:
    return IterationCFG(
        entry="a",
        blocks=[
            BlockSpec(
                "a",
                n_instr=10,
                mem_slots=(MemSlot("p"), MemSlot("q", is_store=True)),
                branch=BranchSpec(0.7, "b", None, noise=noise),
            ),
            BlockSpec(
                "b",
                n_instr=5,
                mem_slots=(MemSlot("q", is_store=True, is_target_store=True),),
            ),
        ],
    )


class TestCFGValidation:
    def test_unknown_entry(self):
        with pytest.raises(WorkloadError):
            IterationCFG(entry="missing", blocks=[BlockSpec("a", 1)])

    def test_unknown_target(self):
        with pytest.raises(WorkloadError):
            IterationCFG(
                entry="a",
                blocks=[BlockSpec("a", 1, branch=BranchSpec(0.5, "ghost", None))],
            )

    def test_duplicate_names(self):
        with pytest.raises(WorkloadError):
            IterationCFG(entry="a", blocks=[BlockSpec("a", 1), BlockSpec("a", 2)])

    def test_branch_and_next_block_exclusive(self):
        with pytest.raises(WorkloadError):
            BlockSpec("a", 1, branch=BranchSpec(0.5, None, None), next_block="b")

    def test_bad_probabilities(self):
        with pytest.raises(WorkloadError):
            BranchSpec(1.5, None, None)
        with pytest.raises(WorkloadError):
            BranchSpec(0.5, None, None, noise=2.0)

    def test_target_store_must_be_store(self):
        with pytest.raises(WorkloadError):
            MemSlot("p", is_store=False, is_target_store=True)

    def test_infinite_loop_guard(self):
        cfg = IterationCFG(
            entry="a",
            blocks=[BlockSpec("a", 1, branch=BranchSpec(1.0, "a", None))],
        )
        with pytest.raises(WorkloadError):
            cfg.walk(np.random.default_rng(0))


class TestCFGWalk:
    def test_walk_counts(self):
        cfg = _simple_cfg()
        rng = np.random.default_rng(0)
        w = cfg.walk(rng)
        # a (10 instr + 1 branch) always; b (5) with p=0.7.
        assert w.n_instr in (11, 16)
        assert len(w.branches) == 1
        assert w.blocks_executed in (1, 2)

    def test_mem_slot_positions_within_stream(self):
        cfg = _simple_cfg()
        w = cfg.walk(np.random.default_rng(1))
        for pos, _, _, _ in w.mem_ops:
            assert 0 <= pos < w.n_instr

    def test_branch_pc_stable(self):
        cfg = _simple_cfg()
        pcs = {cfg.walk(np.random.default_rng(i)).branches[0][1] for i in range(10)}
        assert len(pcs) == 1

    def test_taken_frequency_tracks_probability(self):
        cfg = _simple_cfg()
        rng = np.random.default_rng(3)
        taken = sum(cfg.walk(rng).branches[0][2] for _ in range(2000))
        assert 0.6 < taken / 2000 < 0.8

    def test_noise_pulls_toward_half(self):
        cfg = _simple_cfg(noise=1.0)
        rng = np.random.default_rng(3)
        taken = sum(cfg.walk(rng).branches[0][2] for _ in range(2000))
        assert 0.4 < taken / 2000 < 0.6

    def test_target_store_flag_propagates(self):
        cfg = _simple_cfg()
        for i in range(20):
            w = cfg.walk(np.random.default_rng(i))
            if w.blocks_executed == 2:
                tstores = [m for m in w.mem_ops if m[3]]
                assert len(tstores) == 1
                return
        pytest.fail("branch never taken in 20 walks")

    def test_stored_block_mixes_sum_like_fresh_ones(self):
        # "a" loops on itself, so a walk visits it 1 + (taken branches)
        # times, then "b" once.
        weights_a = {InstrClass.LOAD: 0.3, InstrClass.FPALU: 0.45,
                     InstrClass.IALU: 0.25}
        cfg = IterationCFG(entry="a", blocks=[
            BlockSpec("a", n_instr=7, mix_weights=weights_a,
                      branch=BranchSpec(0.6, "a", "b")),
            BlockSpec("b", n_instr=5, mix_weights={InstrClass.STORE: 1.0}),
        ])
        rng = np.random.default_rng(4)
        stored = None
        for _ in range(50):
            w = cfg.walk(rng)
            expected = InstructionMix()
            for _ in range(1 + sum(taken for _, _, taken in w.branches)):
                expected.merge_from(InstructionMix.from_weights(7, weights_a))
            expected.merge_from(
                InstructionMix.from_weights(5, {InstrClass.STORE: 1.0}))
            expected.add(InstrClass.BRANCH, len(w.branches))
            assert w.mix == expected
            if stored is None:
                stored = {name: dict(m.counts)
                          for name, m in cfg._block_mix.items()}
        assert {name: m.counts for name, m in cfg._block_mix.items()} == stored


class TestStageSplit:
    def test_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            StageSplit(0.5, 0.5, 0.5, 0.5)

    def test_negative_fraction(self):
        with pytest.raises(WorkloadError):
            StageSplit(-0.1, 0.1, 0.9, 0.1)

    def test_cycles_split(self):
        s = StageSplit(0.1, 0.2, 0.6, 0.1)
        cont, tsag, comp, wb = s.cycles(100.0)
        assert (cont, tsag, comp, wb) == pytest.approx((10, 20, 60, 10))


def _trace() -> IterationTrace:
    return IterationTrace(
        n_instr=20,
        mix=InstructionMix({InstrClass.IALU: 16, InstrClass.LOAD: 2, InstrClass.STORE: 2}),
        load_addrs=np.array([0x100, 0x200], dtype=np.int64),
        load_pos=np.array([3, 8], dtype=np.int64),
        store_addrs=np.array([0x300, 0x400], dtype=np.int64),
        store_pos=np.array([5, 12], dtype=np.int64),
        tstore_mask=np.array([False, True]),
        branch_pcs=np.array([0x4000], dtype=np.int64),
        branch_pos=np.array([6], dtype=np.int64),
        branch_taken=np.array([True]),
    )


class TestIterationTrace:
    def test_counts(self):
        t = _trace()
        assert t.n_loads == 2 and t.n_stores == 2 and t.n_branches == 1

    def test_branch_next_load(self):
        t = _trace()
        # Branch at pos 6: the first load after it is index 1 (pos 8).
        assert t.branch_next_load is not None
        assert t.branch_next_load[0] == 1

    def test_merged_events_ordered_and_complete(self):
        t = _trace()
        kinds, values, indices = t.merged_events()
        assert len(kinds) == 5
        assert list(kinds) == [EV_LOAD, EV_STORE, EV_BRANCH, EV_LOAD, EV_TSTORE]
        assert values[0] == 0x100 and values[2] == 0x4000

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(WorkloadError):
            IterationTrace(
                n_instr=1,
                mix=InstructionMix(),
                load_addrs=np.array([1], dtype=np.int64),
                load_pos=np.array([], dtype=np.int64),
                store_addrs=np.array([], dtype=np.int64),
                store_pos=np.array([], dtype=np.int64),
                tstore_mask=np.array([], dtype=bool),
                branch_pcs=np.array([], dtype=np.int64),
                branch_pos=np.array([], dtype=np.int64),
                branch_taken=np.array([], dtype=bool),
            )

    def test_empty(self):
        t = IterationTrace.empty(7)
        assert t.n_instr == 7
        assert t.n_loads == t.n_stores == t.n_branches == 0
        kinds, _, _ = t.merged_events()
        assert len(kinds) == 0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=40))
    def test_merged_events_sorted_by_position(self, positions):
        n = len(positions)
        t = IterationTrace(
            n_instr=1001,
            mix=InstructionMix(),
            load_addrs=np.arange(n, dtype=np.int64) * 64,
            load_pos=np.array(sorted(positions), dtype=np.int64),
            store_addrs=np.array([], dtype=np.int64),
            store_pos=np.array([], dtype=np.int64),
            tstore_mask=np.array([], dtype=bool),
            branch_pcs=np.array([], dtype=np.int64),
            branch_pos=np.array([], dtype=np.int64),
            branch_taken=np.array([], dtype=bool),
        )
        _, values, indices = t.merged_events()
        # Events come back in position order; indices refer correctly.
        assert list(indices) == sorted(range(n), key=lambda i: (sorted(positions)[i], i))
