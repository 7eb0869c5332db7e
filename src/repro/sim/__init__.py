"""Simulation driving, sweeps, results and table formatting."""

from .driver import run_program, run_simulation
from .executor import (
    DiskCache,
    SweepCell,
    SweepOutcome,
    SweepStats,
    cell_key,
    config_fingerprint,
    run_cell,
    run_cells,
)
from .results import SimResult, require_same_workload
from .sweep import (
    ResultGrid,
    benchmarks_of,
    run_grid,
)
from .tables import TextTable

__all__ = [
    "run_program",
    "run_simulation",
    "DiskCache",
    "SweepCell",
    "SweepOutcome",
    "SweepStats",
    "cell_key",
    "config_fingerprint",
    "run_cell",
    "run_cells",
    "SimResult",
    "require_same_workload",
    "ResultGrid",
    "benchmarks_of",
    "run_grid",
    "TextTable",
]
