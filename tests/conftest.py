"""Shared fixtures for the test suite.

Tests run at much smaller instruction scales than the calibrated
benchmark defaults — the goal here is exercising mechanisms, not
reproducing figures (``repro fidelity run`` does that).
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
    SimParams,
    ThreadUnitConfig,
)
from repro.mem.l2 import SharedL2

#: Instruction scale used by integration-ish tests (fast).
FAST_SCALE = 5e-5


@pytest.fixture
def fast_params() -> SimParams:
    """Small, warm-up-free simulation parameters for unit tests."""
    return SimParams(seed=7, scale=FAST_SCALE, warmup_invocations=0)


@pytest.fixture
def tiny_l1() -> CacheConfig:
    """A 4-block direct-mapped L1 for deterministic eviction tests."""
    return CacheConfig(size=256, assoc=1, block_size=64, name="l1d")


@pytest.fixture
def tiny_l1_2way() -> CacheConfig:
    """A 2-way, 4-set L1 (8 blocks)."""
    return CacheConfig(size=512, assoc=2, block_size=64, name="l1d")


@pytest.fixture
def l1i_cfg() -> CacheConfig:
    return CacheConfig(size=1024, assoc=2, block_size=64, name="l1i")


@pytest.fixture
def l2() -> SharedL2:
    """A small shared L2 (4KB, 4-way, 128B blocks) over 200-cycle memory."""
    return SharedL2(
        MemorySystemConfig(
            l2=CacheConfig(size=4096, assoc=4, block_size=128, hit_latency=12, name="l2")
        )
    )


def make_mem_system(kind: SidecarKind, l1_cfg, l1i, shared_l2, entries: int = 4):
    """Build a TUMemSystem with the given sidecar policy."""
    from repro.mem.hierarchy import TUMemSystem

    return TUMemSystem(
        0, l1_cfg, l1i, SidecarConfig(kind=kind, entries=entries), shared_l2
    )


@pytest.fixture
def machine_cfg_small() -> MachineConfig:
    """A 2-TU machine with tiny caches (fast end-to-end tests)."""
    return MachineConfig(
        name="test",
        n_thread_units=2,
        tu=ThreadUnitConfig(
            issue_width=4,
            rob_size=32,
            lsq_size=32,
            l1d=CacheConfig(size=1024, assoc=1, block_size=64, name="l1d"),
            l1i=CacheConfig(size=1024, assoc=2, block_size=64, name="l1i"),
        ),
        mem=MemorySystemConfig(
            l2=CacheConfig(size=8192, assoc=4, block_size=128, hit_latency=12, name="l2")
        ),
    )
