"""Parameter-sweep helpers used by the fidelity campaign and the CLI.

Every figure in the paper is a sweep over {benchmark} × {configuration
axis}; these helpers run such grids and return keyed result maps.  The
heavy lifting lives in :mod:`repro.sim.executor`: cells are resolved
from the persistent result cache when possible, and cache misses can be
fanned out over worker processes with ``jobs=N`` (results are identical
to a serial run — each cell reseeds deterministically from
``params.seed``).  The benchmark *program* is built once per benchmark
per process and shared across configurations (programs are immutable),
so a full Figure 11 grid is six program builds plus 48 machine
simulations — or zero of either when the cache is warm.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..common.config import MachineConfig, SimParams
from ..common.errors import AnalysisError
from ..workloads.benchmarks import BENCHMARK_NAMES
from .executor import SweepCell, run_cells
from .results import SimResult

__all__ = ["grid_cells", "run_grid", "ResultGrid"]

#: (benchmark name, axis label) -> SimResult
ResultGrid = Dict[Tuple[str, str], SimResult]


def grid_cells(
    configs: Mapping[str, MachineConfig],
    benchmarks: Optional[Sequence[str]] = None,
    params: SimParams = SimParams(),
) -> List[SweepCell]:
    """Expand a {label: config} axis × benchmarks into ordered cells.

    This is the single source of grid *order*: benchmarks outermost,
    axis labels in mapping order.
    """
    if not configs:
        raise AnalysisError("empty configuration axis")
    bench_names = (
        list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
    )
    if not bench_names:
        raise AnalysisError("empty benchmark list")
    return [
        SweepCell(bname, label, cfg, params)
        for bname in bench_names
        for label, cfg in configs.items()
    ]


def run_grid(
    configs: Mapping[str, MachineConfig],
    benchmarks: Optional[Sequence[str]] = None,
    params: SimParams = SimParams(),
    progress: Optional[Callable[[str, str], None]] = None,
    jobs: int = 1,
    cache: Optional[bool] = None,
    cache_dir: Union[str, Path, None] = None,
    manifest_path: Union[str, Path, None] = None,
    perf_context: str = "sweep",
    engine: Optional[str] = None,
    perf_dir: Union[str, Path, None] = None,
) -> ResultGrid:
    """Run every benchmark × configuration pair.

    ``configs`` maps an axis label (e.g. ``"wth-wp-wec 8"``) to a
    machine configuration.  ``progress`` (if given) is called once per
    cell with ``(benchmark, label)`` — before each run serially, on
    completion when ``jobs > 1``.  ``jobs``/``cache``/``cache_dir``/
    ``manifest_path`` are forwarded to
    :func:`repro.sim.executor.run_cells`; a failing cell raises
    :class:`~repro.common.errors.SweepError` naming its grid key after
    the rest of the grid has been attempted.  When ``perf_dir`` (default
    ``$REPRO_PERF_DIR``) is set, executed cells are appended to the perf
    ledger there under ``perf_context``.  ``engine`` selects the
    simulation engine for executed cells (``None``: ``$REPRO_ENGINE`` or
    ``oracle``).
    """
    cells = grid_cells(configs, benchmarks, params)
    outcome = run_cells(
        cells,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        progress=progress,
        manifest_path=manifest_path,
        perf_context=perf_context,
        engine=engine,
        perf_dir=perf_dir,
    )
    return outcome.results


def labels_of(grid: ResultGrid) -> List[str]:
    """Axis labels present in the grid, in first-seen order."""
    seen: List[str] = []
    for (_, label) in grid:
        if label not in seen:
            seen.append(label)
    return seen


def benchmarks_of(grid: ResultGrid) -> List[str]:
    """Benchmarks present in the grid, in first-seen order."""
    seen: List[str] = []
    for (bench, _) in grid:
        if bench not in seen:
            seen.append(bench)
    return seen
