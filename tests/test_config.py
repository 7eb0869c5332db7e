"""Tests for configuration dataclasses and their validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    BranchPredictorConfig,
    CacheConfig,
    FuncUnitMix,
    MachineConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
    SimParams,
    ThreadUnitConfig,
    WrongExecutionConfig,
)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_defaults_valid(self):
        c = CacheConfig()
        assert c.n_blocks == 128
        assert c.n_sets == 128

    def test_string_size(self):
        assert CacheConfig(size="8K").size == 8192

    def test_assoc_geometry(self):
        c = CacheConfig(size=8192, assoc=4, block_size=64)
        assert c.n_sets == 32
        assert c.n_blocks == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(assoc=0),
            dict(block_size=48),
            dict(size=0),
            dict(size=100, assoc=1, block_size=64),
            dict(hit_latency=-1),
            dict(size=192, assoc=1, block_size=64),  # 3 sets: not pow2
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)

    def test_scaled(self):
        c = CacheConfig(size=8192, assoc=2, block_size=64)
        half = c.scaled(0.5)
        assert half.size == 4096
        half.validate()

    def test_scaled_never_below_granule(self):
        c = CacheConfig(size=256, assoc=1, block_size=64)
        tiny = c.scaled(0.01)
        assert tiny.size == 64

    def test_frozen(self):
        c = CacheConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.assoc = 2  # type: ignore[misc]


class TestSidecarConfig:
    def test_none_kind_ignores_entries(self):
        SidecarConfig(kind=SidecarKind.NONE, entries=0)  # allowed

    def test_wec_needs_entries(self):
        with pytest.raises(ConfigError):
            SidecarConfig(kind=SidecarKind.WEC, entries=0)


class TestBranchPredictorConfig:
    def test_defaults(self):
        c = BranchPredictorConfig()
        assert c.btb_entries == 1024 and c.btb_assoc == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(table_bits=2),
            dict(table_bits=30),
            dict(btb_entries=1000, btb_assoc=3),
            dict(mispredict_penalty=-1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(**kwargs)


class TestFuncUnitMix:
    def test_defaults_are_paper_values(self):
        m = FuncUnitMix()
        assert (m.int_alu, m.int_mult, m.fp_alu, m.fp_mult) == (8, 4, 8, 4)

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigError):
            FuncUnitMix(int_alu=0)


class TestThreadUnitConfig:
    def test_defaults(self):
        tu = ThreadUnitConfig()
        assert tu.issue_width == 8
        assert tu.l1d.size == 8 * 1024
        assert tu.l1d.assoc == 1
        assert tu.l1i.size == 32 * 1024
        assert tu.mem_buffer_entries == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(issue_width=0),
            dict(issue_width=16, rob_size=8),
            dict(lsq_size=0),
            dict(mem_buffer_entries=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ThreadUnitConfig(**kwargs)


class TestMemorySystemConfig:
    def test_defaults_match_paper(self):
        m = MemorySystemConfig()
        assert m.l2.size == 512 * 1024
        assert m.l2.assoc == 4
        assert m.l2.block_size == 128
        assert m.memory_latency == 200

    def test_memory_must_be_slower_than_l2(self):
        with pytest.raises(ConfigError):
            MemorySystemConfig(memory_latency=5)


class TestWrongExecutionConfig:
    def test_any(self):
        assert not WrongExecutionConfig().any
        assert WrongExecutionConfig(wrong_path=True).any
        assert WrongExecutionConfig(wrong_thread=True).any


class TestMachineConfig:
    def test_defaults(self):
        m = MachineConfig()
        assert m.n_thread_units == 8
        assert m.fork_delay == 4
        assert m.comm_cycles_per_value == 2

    def test_describe_mentions_key_facts(self):
        text = MachineConfig(name="wth-wp-wec").describe()
        assert "wth-wp-wec" in text and "8TU" in text

    def test_invalid_tu_count(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_thread_units=0)

    def test_l1_block_must_not_exceed_l2_block(self):
        big_l1_blocks = ThreadUnitConfig(
            l1d=CacheConfig(size=8192, assoc=1, block_size=256)
        )
        with pytest.raises(ConfigError):
            MachineConfig(tu=big_l1_blocks)


class TestSimParams:
    def test_defaults(self):
        p = SimParams()
        assert p.seed == 2003
        assert 0 < p.scale <= 1
        assert p.warmup_invocations == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scale=0.0),
            dict(scale=1.5),
            dict(mlp_per_16_rob=0),
            dict(mlp_cap=0.5),
            dict(wrong_fill_mshr_fraction=-0.1),
            dict(wrong_fill_mshr_fraction=1.5),
            dict(warmup_invocations=-1),
            dict(prefetch_late_cycles=-1),
            dict(prefetch_late_far_cycles=-1),
            dict(seed=-1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimParams(**kwargs)
