"""Shared infrastructure: configuration, statistics, RNG streams, units."""

from .config import (
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
from .errors import (
    AnalysisError,
    ConfigError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from .rng import StreamFactory, stable_hash32
from .stats import (
    Counter,
    CounterGroup,
    geometric_mean,
    normalized_time,
    relative_speedup_pct,
    speedup,
    weighted_mean_speedup,
)
from .units import (
    format_size,
    is_pow2,
    log2_exact,
    parse_size,
)

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "FuncUnitMix",
    "MachineConfig",
    "MemorySystemConfig",
    "SidecarConfig",
    "SidecarKind",
    "SimParams",
    "ThreadUnitConfig",
    "WrongExecutionConfig",
    "AnalysisError",
    "ConfigError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    "StreamFactory",
    "stable_hash32",
    "Counter",
    "CounterGroup",
    "geometric_mean",
    "normalized_time",
    "relative_speedup_pct",
    "speedup",
    "weighted_mean_speedup",
    "format_size",
    "is_pow2",
    "log2_exact",
    "parse_size",
]
