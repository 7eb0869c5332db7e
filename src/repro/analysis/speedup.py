"""The suite-average speedup over a result grid.

:func:`suite_average_speedup_pct` is the "average" bar of Figures 9–12
and 15–17: the execution-time-weighted mean speedup of one axis label
over a baseline label, across every benchmark in a
:data:`~repro.sim.sweep.ResultGrid`.  The claim registry's
``avg_speedup`` and its Figure 11 table's ``average`` row go through it.
"""

from __future__ import annotations

from typing import List

from ..common.errors import AnalysisError
from ..common.stats import weighted_mean_speedup
from ..sim.results import SimResult
from ..sim.sweep import ResultGrid, benchmarks_of

__all__ = ["suite_average_speedup_pct"]


def _cell(grid: ResultGrid, bench: str, label: str) -> SimResult:
    """The grid cell for ``(bench, label)``, or a named AnalysisError."""
    result = grid.get((bench, label))
    if result is None:
        raise AnalysisError(f"grid is missing {bench} for {label!r}")
    return result


def suite_average_speedup_pct(
    grid: ResultGrid, baseline_label: str, label: str
) -> float:
    """Execution-time-weighted mean percent speedup across the suite.

    Matches the paper's methodology (§5, citing Lilja): each benchmark
    is weighted equally regardless of absolute run length.
    """
    base_times: List[float] = []
    new_times: List[float] = []
    for bench in benchmarks_of(grid):
        base_times.append(_cell(grid, bench, baseline_label).total_cycles)
        new_times.append(_cell(grid, bench, label).total_cycles)
    return (weighted_mean_speedup(base_times, new_times) - 1.0) * 100.0
