"""Tests for the bimodal predictor, the BTB and the front-end unit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.frontend import BranchUnit
from repro.branch.predictors import BimodalPredictor
from repro.common.config import BranchPredictorConfig
from repro.common.errors import ConfigError

#: The bimodal predictor at a mid-size table and at the smallest table
#: ``BranchPredictorConfig`` accepts (4 bits).
PREDICTORS = [
    lambda: BimodalPredictor(10),
    lambda: BimodalPredictor(4),
]


@pytest.mark.parametrize("factory", PREDICTORS)
class TestPredictorsCommon:
    def test_learns_always_taken(self, factory):
        p = factory()
        pc = 0x1000
        for _ in range(8):
            p.update(pc, True)
        assert p.predict(pc) is True

    def test_learns_never_taken(self, factory):
        p = factory()
        pc = 0x1000
        for _ in range(8):
            p.update(pc, False)
        assert p.predict(pc) is False

    def test_biased_branch_accuracy(self, factory):
        p = factory()
        rng = np.random.default_rng(0)
        pc = 0x2000
        correct = 0
        n = 2000
        for _ in range(n):
            taken = bool(rng.random() < 0.9)
            if p.predict(pc) == taken:
                correct += 1
            p.update(pc, taken)
        # Must approach the 90% bias (allow warm-up slack).
        assert correct / n > 0.82

    def test_reset_restores_weak_taken(self, factory):
        p = factory()
        pc = 0x3000
        for _ in range(8):
            p.update(pc, False)
        p.reset()
        assert p.predict(pc) is True  # counters re-initialised weak-taken

    def test_smoke_mixed_pcs(self, factory):
        p = factory()
        for _ in range(8):
            p.update(0x100, True)
            p.update(0x104, False)
        assert isinstance(p.predict(0x100), bool)


def test_bimodal_independent_pcs():
    # Per-PC counters: adjacent non-aliasing PCs train independently.
    p = BimodalPredictor(10)
    for _ in range(8):
        p.update(0x100, True)
        p.update(0x104, False)
    assert p.predict(0x100) is True
    assert p.predict(0x104) is False


def test_bimodal_fails_alternating():
    # A period-2 pattern defeats per-PC counters: no history bits.
    p = BimodalPredictor(10)
    pc = 0x1234
    correct = 0
    for i in range(400):
        t = bool(i % 2)
        if p.predict(pc) == t:
            correct += 1
        p.update(pc, t)
    assert correct / 400 < 0.7


def test_bimodal_table_bits_range():
    with pytest.raises(ConfigError):
        BimodalPredictor(0)
    with pytest.raises(ConfigError):
        BimodalPredictor(25)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(64, 4)
        assert btb.lookup(0x100) is None
        btb.insert(0x100, 0x900)
        assert btb.lookup(0x100) == 0x900
        assert btb.hits == 1 and btb.misses == 1

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(8, 2)  # 4 sets, 2-way
        n_sets = 4
        # Three PCs mapping to the same set (pc>>2 % 4 == 0).
        pcs = [0x0, 0x0 + 4 * n_sets, 0x0 + 8 * n_sets]
        btb.insert(pcs[0], 1)
        btb.insert(pcs[1], 2)
        btb.lookup(pcs[0])        # refresh pcs[0] -> pcs[1] is LRU
        btb.insert(pcs[2], 3)     # evicts pcs[1]
        assert btb.lookup(pcs[0]) == 1
        assert btb.lookup(pcs[1]) is None
        assert btb.lookup(pcs[2]) == 3

    def test_update_existing(self):
        btb = BranchTargetBuffer(8, 2)
        btb.insert(0x40, 0x1)
        btb.insert(0x40, 0x2)
        assert btb.lookup(0x40) == 0x2
        assert btb.occupancy() == 1

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            BranchTargetBuffer(10, 4)
        with pytest.raises(ConfigError):
            BranchTargetBuffer(0, 1)

    def test_reset(self):
        btb = BranchTargetBuffer(8, 2)
        btb.insert(0x40, 1)
        btb.reset()
        assert btb.occupancy() == 0
        assert btb.lookup(0x40) is None
        assert btb.misses == 1  # the post-reset lookup


class TestBranchUnit:
    def test_counts_branches_and_mispredicts(self):
        bu = BranchUnit(BranchPredictorConfig())
        rng = np.random.default_rng(0)
        for _ in range(500):
            bu.resolve(0x100, bool(rng.random() < 0.95))
        assert bu.stats["branches"] == 500
        assert 0.0 < bu.mispredict_rate() < 0.2

    def test_btb_target_miss_counts_as_mispredict(self):
        bu = BranchUnit(BranchPredictorConfig())
        # Train taken so the direction is predicted taken, then clear
        # the BTB: correct direction + unknown target = redirect.
        for _ in range(4):
            bu.resolve(0x100, True)
        bu.btb.reset()
        before = bu.stats["mispredicts"]
        assert bu.resolve(0x100, True) is True
        assert bu.stats["btb_target_misses"] >= 1
        assert bu.stats["mispredicts"] == before + 1

    def test_mispredict_penalty_exposed(self):
        bu = BranchUnit(BranchPredictorConfig(mispredict_penalty=9))
        assert bu.mispredict_penalty == 9

    def test_reset(self):
        bu = BranchUnit(BranchPredictorConfig())
        bu.resolve(0x100, True)
        bu.reset()
        assert bu.stats["branches"] == 0

    def test_perfectly_biased_branch_low_mispredicts(self):
        bu = BranchUnit(BranchPredictorConfig())
        for _ in range(100):
            bu.resolve(0x200, True)
        # After warm-up, all predictions correct (taken, BTB warm).
        assert bu.stats["mispredicts"] <= 3
