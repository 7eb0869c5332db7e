"""repro — reproduction of *Using Incorrect Speculation to Prefetch Data
in a Concurrent Multithreaded Processor* (Chen, Sendag, Lilja; IPPS 2003).

The library simulates a superthreaded architecture (STA): multiple
out-of-order thread units with private L1 caches, a shared L2, thread
pipelining with fork/abort, speculative memory buffers — plus the
paper's contribution: **wrong-path** and **wrong-thread** load execution
and the **Wrong Execution Cache (WEC)** that captures their indirect
prefetching effect without polluting the L1.

Quickstart::

    from repro import run_simulation, named_config

    mcf_wec = run_simulation("181.mcf", named_config("wth-wp-wec"))
    mcf_base = run_simulation("181.mcf", named_config("orig"))
    print(f"WEC speedup: {mcf_wec.relative_speedup_pct_vs(mcf_base):+.1f}%")

Package layout:

- :mod:`repro.common` — configuration, statistics, RNG streams;
- :mod:`repro.isa` — instruction classes, iteration CFGs, trace encoding;
- :mod:`repro.branch` — direction predictors, BTB, RAS;
- :mod:`repro.mem` — caches, the WEC / victim cache / prefetch buffer,
  shared L2, update-bus coherence;
- :mod:`repro.core` — thread-unit cores: replay engine, timing model,
  speculative memory buffer, wrong execution;
- :mod:`repro.sta` — the superthreaded machine, thread-pipelining
  scheduler, and the eight named configurations of §4.3;
- :mod:`repro.workloads` — the six SPEC2000-like benchmark models;
- :mod:`repro.sim` — the run driver, sweeps, result records;
- :mod:`repro.analysis` — suite-average speedup, ASCII bar charts.
"""

from .common.config import (
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
from .common.errors import (
    AnalysisError,
    ConfigError,
    ReproError,
    SimulationError,
    SweepError,
    WorkloadError,
)
from .sim.driver import run_program, run_simulation
from .sim.executor import SweepCell, run_cell, run_cells
from .sim.results import SimResult
from .sim.sweep import run_config_axis, run_grid
from .sta.configs import CONFIG_NAMES, named_config, table3_config
from .sta.machine import Machine
from .workloads.benchmarks import BENCHMARK_NAMES, benchmark_infos, build_benchmark
from .workloads.microbench import MICROBENCH_NAMES, build_microbenchmark

__version__ = "1.0.0"

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
    "SweepError",
    "WorkloadError",
    "run_program",
    "run_simulation",
    "SweepCell",
    "run_cell",
    "run_cells",
    "SimResult",
    "run_config_axis",
    "run_grid",
    "CONFIG_NAMES",
    "named_config",
    "table3_config",
    "Machine",
    "BENCHMARK_NAMES",
    "benchmark_infos",
    "build_benchmark",
    "MICROBENCH_NAMES",
    "build_microbenchmark",
    "__version__",
]
