"""Sweep execution engine: parallel fan-out plus a persistent result cache.

Every figure and ablation in the reproduction is a (benchmark ×
configuration) grid of *pure* simulations: ``run_program`` is a function
of ``(benchmark name, MachineConfig, SimParams)`` and nothing else — the
configuration dataclasses are frozen and every RNG stream is derived
from ``params.seed``.  This module exploits that purity twice:

* **Process fan-out** — grid cells are independent, so :func:`run_cells`
  distributes them over a ``ProcessPoolExecutor``.  Each worker rebuilds
  its own ``TraceGenerator`` from ``params.seed`` exactly as the serial
  path does, so parallel results are bit-identical to serial ones.
  When ``jobs <= 1``, only one cell needs executing, or the platform
  cannot ``fork`` (the only start method that is safe without a
  ``__main__`` guard), execution gracefully falls back to the serial
  in-process path.

* **Content-addressed caching** — a :class:`DiskCache` under
  ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) persists every
  :class:`~repro.sim.results.SimResult`, keyed by a SHA-256 over the
  *complete* canonicalized config/params dataclasses plus a
  code-version token (a hash of the installed ``repro`` sources).  Any
  change to a config field or to the simulator invalidates exactly the
  affected entries; re-running a campaign or tool on unchanged code
  is near-instant.  Set ``REPRO_NO_CACHE=1`` (or pass ``cache=False``)
  to bypass it.

Observability: :func:`run_cells` returns a :class:`SweepOutcome` whose
:class:`SweepStats` record per-cell wall-clock, cache hit/miss counts
and worker failures keyed by the failing ``(benchmark, label)`` cell —
never a bare traceback — and can be written out as a JSON run manifest.

Quickstart::

    from repro.sim.executor import SweepCell, run_cells

    cells = [SweepCell("181.mcf", name, named_config(name), params)
             for name in CONFIG_NAMES]
    outcome = run_cells(cells, jobs=4)
    outcome.results[("181.mcf", "wth-wp-wec")]   # -> SimResult
    outcome.stats.cache_hits, outcome.stats.executed
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import multiprocessing
import os
import tempfile
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..common.config import MachineConfig, SimParams
from ..common.errors import AnalysisError, ConfigError, SweepError
from ..obs.hostprof import HostProfiler, peak_rss_kb
from ..obs.ledger import Ledger, PerfRecord, default_perf_dir
from ..workloads.benchmarks import build_benchmark
from ..workloads.program import Program
from .driver import ENGINES, run_program
from .results import SimResult

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "CellFailure",
    "CellRecord",
    "DiskCache",
    "PruneResult",
    "SweepCell",
    "SweepOutcome",
    "SweepStats",
    "cell_key",
    "code_version_token",
    "config_fingerprint",
    "default_cache_root",
    "default_cache_quota_mb",
    "default_engine",
    "default_jobs",
    "run_cell",
    "run_cells",
]

#: Bumped whenever the on-disk entry layout changes; part of the cache path.
CACHE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Content-addressed keys
# ---------------------------------------------------------------------------


def _canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-stable structure covering *every* field.

    Dataclasses contribute their class name and all declared fields (so
    adding a field automatically changes every fingerprint), enums their
    value, containers their canonicalized elements.  Unknown objects
    fall back to ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, object] = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def config_fingerprint(obj: object) -> str:
    """SHA-256 hex digest of a canonicalized (frozen) dataclass.

    Unlike a hand-maintained format string this covers every declared
    field — two configs differing in *any* knob (L2 latency, memory
    ports, sidecar entries, ...) always get distinct
    fingerprints.
    """
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_code_token: Optional[str] = None


def code_version_token() -> str:
    """A hash of the installed ``repro`` sources (cached per process).

    Folded into every cache key so that editing the simulator invalidates
    stale results instead of silently replaying them.
    """
    global _code_token
    if _code_token is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(path.read_bytes())
        _code_token = h.hexdigest()[:16]
    return _code_token


def cell_key(
    benchmark: str, config: MachineConfig, params: SimParams
) -> str:
    """Content-addressed identity of one grid cell.

    Covers the benchmark name, the full machine configuration, the full
    simulation parameters and the code-version token — everything
    ``run_program`` depends on.
    """
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "code": code_version_token(),
            "benchmark": benchmark,
            "config": _canonical(config),
            "params": _canonical(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Persistent result cache
# ---------------------------------------------------------------------------


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def default_cache_quota_mb() -> Optional[float]:
    """``$REPRO_CACHE_MAX_MB`` as a positive float, or ``None`` (no quota).

    Keys fold in the code-version token, so every edit to the simulator
    strands the previous entries: without a quota, a local cache grows
    by one grid's worth of stale results per change, forever.  A
    malformed or non-positive value is a loud
    :class:`ConfigError` — a typo'd quota silently meaning "unlimited"
    is exactly the failure mode a quota exists to prevent.
    """
    raw = os.environ.get("REPRO_CACHE_MAX_MB", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_CACHE_MAX_MB={raw!r} is not a number (megabytes)"
        ) from None
    if value <= 0:
        raise ConfigError(f"REPRO_CACHE_MAX_MB={raw!r} must be positive")
    return value


@dataclass
class CacheStats:
    """Size accounting for one :class:`DiskCache` directory."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    quota_mb: Optional[float] = None

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024 * 1024)

    def to_dict(self) -> Dict:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "total_mb": self.total_mb,
            "quota_mb": self.quota_mb,
        }


@dataclass
class PruneResult:
    """What one :meth:`DiskCache.prune` pass removed and kept."""

    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0


def _json_default(obj: object) -> object:
    # numpy scalars (np.int64 cycle counts etc.) leak into counter dumps;
    # .item() turns them into plain Python numbers.
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


class DiskCache:
    """Content-addressed :class:`SimResult` store under one directory.

    Layout: ``<root>/results/v<schema>/<key[:2]>/<key>.json`` — one JSON
    document per cell, sharded by key prefix to keep directories small.
    Writes go through a uniquely named temp file in the entry's own
    directory (:func:`tempfile.mkstemp`) followed by an atomic
    ``os.replace``: two workers — processes *or* threads — filling the
    same key concurrently each publish a complete document and the last
    writer wins; a reader can never observe a torn entry.  Unreadable
    entries are treated as misses and deleted.

    Eviction: when a quota is set (``max_mb`` argument or
    ``$REPRO_CACHE_MAX_MB``), :meth:`put` periodically prunes the
    least-recently-*used* entries — :meth:`get` refreshes an entry's
    mtime on every hit, so hot cells survive and cold ones age out.
    The scan runs every :data:`PRUNE_INTERVAL` puts, so the directory
    can transiently overshoot the quota by at most that many entries
    between scans.
    """

    #: Puts between quota scans (a full-directory size scan per put
    #: would make large sweeps O(n²)).
    PRUNE_INTERVAL = 16

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        max_mb: Optional[float] = None,
    ) -> None:
        base = Path(root) if root is not None else default_cache_root()
        self.root = base / "results" / f"v{CACHE_SCHEMA_VERSION}"
        self.max_mb = max_mb if max_mb is not None else default_cache_quota_mb()
        self._puts_since_prune = 0
        self._write_warned = False

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                result = SimResult.from_dict(json.load(fh))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt/incompatible entry (unreadable file, bad JSON, or a
            # schema drift from_dict rejects): drop it, treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            # LRU bookkeeping: a hit marks the entry recently used so
            # quota pruning evicts cold cells first.
            os.utime(path)
        except OSError:
            pass
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Persist ``result`` under ``key`` (atomic, last-writer-wins).

        Best-effort: the cache is an optimization, so an unwritable or
        misconfigured cache directory degrades to uncached operation
        (with a one-time warning) instead of failing the sweep.
        """
        path = self._path(key)
        tmp: Optional[str] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # mkstemp (not a pid-derived name): unique per *writer*, so
            # two threads of one process racing on the same key cannot
            # interleave writes into a shared temp file.
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(result.to_dict(), fh, default=_json_default)
            os.replace(tmp, path)
            tmp = None
        except OSError as exc:
            if not self._write_warned:
                self._write_warned = True
                warnings.warn(
                    f"result cache at {self.root} is not writable ({exc}); "
                    "continuing without persisting results",
                    RuntimeWarning,
                    stacklevel=2,
                )
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        if self.max_mb is not None:
            self._puts_since_prune += 1
            if self._puts_since_prune >= self.PRUNE_INTERVAL:
                self._puts_since_prune = 0
                self.prune(self.max_mb)

    def _entries(self) -> List[Tuple[Path, float, int]]:
        """Every entry as ``(path, mtime, size)``; vanished files skipped."""
        out: List[Tuple[Path, float, int]] = []
        if not self.root.is_dir():
            return out
        for path in self.root.rglob("*.json"):
            try:
                st = path.stat()
            except OSError:
                continue  # concurrently pruned/replaced
            out.append((path, st.st_mtime, st.st_size))
        return out

    def stats(self) -> CacheStats:
        """Entry count and total size."""
        stats = CacheStats(root=str(self.root), quota_mb=self.max_mb)
        for _path, _mtime, size in self._entries():
            stats.entries += 1
            stats.total_bytes += size
        return stats

    def prune(self, max_mb: Optional[float] = None) -> PruneResult:
        """Evict least-recently-used entries until the cache fits ``max_mb``.

        ``max_mb`` defaults to the instance quota; calling without either
        is a :class:`ConfigError` (an unbounded prune would empty the
        cache).  Eviction order is mtime (oldest first) — :meth:`get`
        touches entries on hit, making this true LRU rather than
        fill-order FIFO.  Concurrent writers are safe: a vanished file
        is skipped, and an entry refreshed mid-prune at worst survives
        one extra round.
        """
        if max_mb is None:
            max_mb = self.max_mb
        if max_mb is None:
            raise ConfigError(
                "prune needs a quota: pass max_mb or set REPRO_CACHE_MAX_MB"
            )
        budget = int(max_mb * 1024 * 1024)
        entries = sorted(self._entries(), key=lambda e: (-e[1], e[0]))
        result = PruneResult()
        used = 0
        for path, _mtime, size in entries:
            if used + size <= budget:
                used += size
                result.kept += 1
                result.kept_bytes += size
                continue
            try:
                path.unlink()
            except OSError:
                continue
            result.removed += 1
            result.freed_bytes += size
        return result

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.json"):
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))


def _cache_enabled(flag: Optional[bool]) -> bool:
    if flag is not None:
        return flag
    return os.environ.get("REPRO_NO_CACHE", "").lower() not in ("1", "true", "yes")


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (default 1 = serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Cells, per-cell records, sweep statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One (benchmark, configuration) grid cell awaiting execution.

    ``label`` is the axis label the result is keyed under in the output
    grid (often, but not necessarily, ``config.name``).
    """

    benchmark: str
    label: str
    config: MachineConfig
    params: SimParams

    @property
    def grid_key(self) -> Tuple[str, str]:
        return (self.benchmark, self.label)

    def key(self) -> str:
        """Content-addressed cache key (see :func:`cell_key`)."""
        return cell_key(self.benchmark, self.config, self.params)


@dataclass
class CellRecord:
    """How one cell was resolved: from cache, by simulation, or from
    another cell of the same sweep that shares its key."""

    benchmark: str
    label: str
    key: str
    source: str  # "cache" | "run" | "dedup"
    wall_s: float
    #: Host metrics collected when perf recording is on (``wall_s``,
    #: ``peak_rss_kb``, a ``profile`` section breakdown); None otherwise.
    host: Optional[Dict] = None


@dataclass
class CellFailure:
    """A cell whose simulation raised, keyed by its grid position."""

    benchmark: str
    label: str
    key: str
    error: str
    traceback: str

    def __str__(self) -> str:
        return f"({self.benchmark}, {self.label}): {self.error}"


@dataclass
class SweepStats:
    """Aggregate observability for one :func:`run_cells` invocation."""

    jobs_requested: int = 1
    jobs_used: int = 1
    n_cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cells resolved from another cell of this sweep with the same key.
    deduped: int = 0
    executed: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cache_root: Optional[str] = None
    code_token: str = ""
    #: The simulation engine every executed cell ran with.
    engine: str = "oracle"
    #: Why a ``jobs > 1`` request ran serially anyway (``None`` when the
    #: fan-out happened, or when serial execution was requested):
    #: ``"single-cell"``, ``"fork-unavailable"`` or ``"all-cells-cached"``.
    serial_fallback: Optional[str] = None
    records: List[CellRecord] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)

    def to_manifest(self) -> Dict:
        """JSON-serializable run manifest."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "code_token": self.code_token,
            "engine": self.engine,
            "jobs_requested": self.jobs_requested,
            "jobs_used": self.jobs_used,
            "serial_fallback": self.serial_fallback,
            "n_cells": self.n_cells,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "deduped": self.deduped,
            "executed": self.executed,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "cache_root": self.cache_root,
            "cells": [dataclasses.asdict(r) for r in self.records],
            "failures": [dataclasses.asdict(f) for f in self.failures],
        }

    def write_manifest(self, path: Union[str, Path]) -> None:
        """Write the JSON run manifest to ``path`` (parents created)."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_manifest(), fh, indent=2)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.n_cells} cells: {self.cache_hits} cached, "
            f"{self.deduped} deduped, "
            f"{self.executed} simulated ({self.jobs_used} worker(s)), "
            f"{self.failed} failed, {self.wall_s:.1f}s"
        )


@dataclass
class SweepOutcome:
    """Results plus statistics of one sweep execution."""

    results: Dict[Tuple[str, str], SimResult]
    stats: SweepStats


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------

#: Benchmark models of the running sweep: programs are immutable and
#: shared across every configuration of a sweep, so each sweep builds
#: each (benchmark, scale) model at most once.  :func:`run_cells` empties
#: it when it returns.
_worker_programs: Dict[Tuple[str, float], Program] = {}


def _build_program(benchmark: str, scale: float) -> Program:
    key = (benchmark, scale)
    program = _worker_programs.get(key)
    if program is None:
        program = build_benchmark(benchmark, scale=scale)
        _worker_programs[key] = program
    return program


def _execute_cell(
    benchmark: str, config: MachineConfig, params: SimParams,
    profile: bool = False, engine: Optional[str] = None,
) -> Tuple[str, object, object]:
    """Run one cell in the current process.

    Returns ``("ok", result_dict, host_dict)`` or ``("err", message,
    tb)``; exceptions never propagate so that one bad cell cannot take
    down a worker (or, in the serial path, the rest of the grid).
    ``host_dict`` always carries ``wall_s``; with ``profile`` it adds
    the :class:`~repro.obs.hostprof.HostProfiler` section breakdown and
    the process's peak RSS.
    """
    profiler = HostProfiler() if profile else None
    t0 = time.perf_counter()  # lint: allow(DET001 host wall-clock for sweep stats)
    try:
        result = run_program(
            _build_program(benchmark, params.scale), config, params,
            profiler=profiler, engine=engine,
        )
        wall_s = time.perf_counter() - t0  # lint: allow(DET001 host wall-clock for sweep stats)
        host: Dict[str, object] = {"wall_s": wall_s}
        if profiler is not None:
            host["profile"] = profiler.snapshot(wall_s)
            rss = peak_rss_kb()
            if rss is not None:
                host["peak_rss_kb"] = rss
        return ("ok", result.to_dict(), host)
    # lint: allow(EXC001 worker isolation boundary: one bad cell is reported by key, never kills the sweep)
    except Exception as exc:
        return ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _fork_available() -> bool:
    # fork is the only start method that is safe without a __main__ guard
    # (spawn re-imports __main__, which would re-run unguarded scripts).
    return "fork" in multiprocessing.get_all_start_methods()


def default_engine() -> str:
    """The engine from ``$REPRO_ENGINE``, validated (default ``oracle``).

    Resolved here — at the process boundary — rather than in the driver:
    the driver stays environment-free so that a result is a pure function
    of ``(program, config, params)``, which is what the disk cache keys
    assume.  A typo in ``REPRO_ENGINE`` is a loud :class:`ConfigError`,
    never a silent fallback.
    """
    value = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if not value:
        return "oracle"
    if value not in ENGINES:
        raise ConfigError(
            f"REPRO_ENGINE={value!r} is not a recognised engine "
            f"(expected one of: {', '.join(ENGINES)})"
        )
    return value


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def run_cells(
    cells: Iterable[SweepCell],
    jobs: int = 1,
    cache: Optional[bool] = None,
    cache_dir: Union[str, Path, None] = None,
    progress: Optional[Callable[[str, str], None]] = None,
    manifest_path: Union[str, Path, None] = None,
    strict: bool = True,
    perf: Optional[bool] = None,
    perf_dir: Union[str, Path, None] = None,
    perf_context: str = "executor",
    engine: Optional[str] = None,
) -> SweepOutcome:
    """Execute a sweep: resolve every cell from cache or simulation.

    Parameters
    ----------
    cells:
        The grid cells to resolve.  Result/record order follows cell
        order regardless of parallel completion order.
    jobs:
        Worker processes for cache-miss cells.  ``1`` (or a platform
        without ``fork``) runs serially in-process.
    cache:
        ``True``/``False`` force the disk cache on/off; ``None`` (the
        default) enables it unless ``REPRO_NO_CACHE`` is set.
    cache_dir:
        Cache root override (default ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``).
    progress:
        Called once per cell with ``(benchmark, label)`` — before the
        run in serial mode, on completion in parallel mode.  Cells that
        share a cache key with an earlier cell (aliased labels) are not
        simulated again; they are reported, and resolved from that
        cell's result with source ``"dedup"``, once it completes.
    manifest_path:
        If given, the JSON run manifest is written there.
    strict:
        When ``True`` (default) any cell failure raises
        :class:`~repro.common.errors.SweepError` *after* the whole grid
        has been attempted; the error names each failing cell's grid key
        and carries the partial :class:`SweepOutcome`.  ``False`` returns
        the outcome with ``stats.failures`` populated instead.
    perf:
        ``True``/``False`` force performance recording on/off; ``None``
        (the default) enables it when ``$REPRO_PERF_DIR`` is set.  When
        on, every *executed* cell (never a cache hit — its wall time
        would measure a disk read) runs with a
        :class:`~repro.obs.hostprof.HostProfiler` attached and appends a
        :class:`~repro.obs.ledger.PerfRecord` to the ledger, including
        the speedup vs an ``orig``-labelled cell of the same benchmark
        when one is part of this sweep.
    perf_dir:
        Ledger directory override (default ``$REPRO_PERF_DIR``, or
        ``.perf`` when ``perf=True`` without a directory).
    perf_context:
        The ``context`` string stamped on recorded ledger entries.
    engine:
        Simulation engine for executed cells (``"oracle"``/``"fast"``);
        ``None`` resolves ``$REPRO_ENGINE`` via :func:`default_engine`.
        Deliberately *not* part of the cache key: engines are
        bit-identical on results, so a cached oracle result satisfies a
        fast-engine sweep and vice versa.  The engine used is recorded
        in the manifest and in each ledger record's provenance.
    """
    cells = list(cells)
    if engine is None:
        engine = default_engine()
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r} (expected one of: {', '.join(ENGINES)})"
        )
    t_start = time.perf_counter()  # lint: allow(DET001 host wall-clock for sweep stats)
    dcache = DiskCache(cache_dir) if _cache_enabled(cache) else None

    perf_root = Path(perf_dir) if perf_dir is not None else default_perf_dir()
    perf_on = perf if perf is not None else perf_root is not None
    ledger = Ledger(perf_root) if perf_on else None

    stats = SweepStats(
        jobs_requested=jobs,
        n_cells=len(cells),
        cache_root=str(dcache.root) if dcache is not None else None,
        code_token=code_version_token(),
        engine=engine,
    )
    results: Dict[Tuple[str, str], SimResult] = {}
    records: Dict[Tuple[str, str], CellRecord] = {}

    def fail(cell: SweepCell, key: str, error: str, tb: str) -> None:
        stats.failed += 1
        stats.failures.append(
            CellFailure(cell.benchmark, cell.label, key, error, tb)
        )

    def ingest(cell: SweepCell, key: str, payload: Tuple[str, object, object]) -> None:
        """Resolve an executed cell, then every cell that shares its key."""
        status, first, second = payload
        if status == "ok":
            result = SimResult.from_dict(first)  # type: ignore[arg-type]
            host: Dict = dict(second)  # type: ignore[arg-type]
            results[cell.grid_key] = result
            records[cell.grid_key] = CellRecord(
                cell.benchmark, cell.label, key, "run",
                float(host["wall_s"]), host=host,
            )
            stats.executed += 1
            if dcache is not None:
                dcache.put(key, result)
        else:
            fail(cell, key, str(first), str(second))
        # Like cache hits, deduped cells get no wall time and no ledger
        # record.
        for other in followers[key]:
            if progress is not None:
                progress(other.benchmark, other.label)
            if status != "ok":
                fail(other, key, str(first), str(second))
                continue
            results[other.grid_key] = result
            records[other.grid_key] = CellRecord(
                other.benchmark, other.label, key, "dedup", 0.0
            )

    # Phase 1: cache lookups (always in-process — lookups are cheap).  A
    # miss whose key an earlier miss already holds (aliased labels, e.g.
    # ``orig@8tu`` and ``orig``) is not run again: it follows that cell.
    to_run: List[Tuple[SweepCell, str]] = []
    followers: Dict[str, List[SweepCell]] = {}
    for cell in cells:
        key = cell.key()
        if key in followers:
            followers[key].append(cell)
            stats.deduped += 1
            continue
        hit = dcache.get(key) if dcache is not None else None
        if hit is not None:
            if progress is not None:
                progress(cell.benchmark, cell.label)
            results[cell.grid_key] = hit
            records[cell.grid_key] = CellRecord(
                cell.benchmark, cell.label, key, "cache", 0.0
            )
            stats.cache_hits += 1
        else:
            stats.cache_misses += 1
            to_run.append((cell, key))
            followers[key] = []

    # Phase 2: execute the misses — fanned out or serial.  A ``jobs > 1``
    # request that cannot be honoured is recorded in the manifest and
    # warned about, never silently degraded (a sweep that quietly ignores
    # ``jobs`` looks identical to a parallel one except for wall time).
    serial_reason: Optional[str] = None
    if jobs > 1:
        if not to_run:
            serial_reason = "all-cells-cached"
        elif len(to_run) == 1:
            serial_reason = "single-cell"
        elif not _fork_available():
            serial_reason = "fork-unavailable"
    use_parallel = jobs > 1 and serial_reason is None
    stats.serial_fallback = serial_reason
    if serial_reason is not None and to_run:
        warnings.warn(
            f"run_cells: jobs={jobs} requested but executing serially "
            f"({serial_reason})",
            RuntimeWarning,
            stacklevel=2,
        )
    # Warm-up pass, two reasons to run it.  Parallel: build each unique
    # benchmark model (and, with the fast engine, its compile/trace/
    # branch-stream memos) in the parent so forked workers inherit them
    # copy-on-write instead of each rebuilding them.  Serial with perf
    # recording on: the ledger's per-cell walls are meant to measure
    # steady-state engine throughput, so one-time memo construction must
    # not land in whichever cell happens to run first.  Keyed per
    # (benchmark, scale, wrong-exec flavour) because wrong-path and
    # wrong-thread address streams are separate memo families — warming
    # ``orig`` alone would leave the first ``wp``/``wth`` cell cold.
    try:
        if to_run and (use_parallel or perf_on):
            warmed = set()
            for cell, _key in to_run:
                we = cell.config.wrong_exec
                wkey = (cell.benchmark, cell.params.scale,
                        we.wrong_path, we.wrong_thread)
                if wkey in warmed:
                    continue
                warmed.add(wkey)
                try:
                    program = _build_program(cell.benchmark, cell.params.scale)
                    if engine == "fast":
                        run_program(program, cell.config, cell.params,
                                    engine="fast")
                # lint: allow(EXC001 warm-up is an optimisation only: a failing cell re-runs in its worker/cell and is reported there)
                except Exception:
                    pass
        if perf_on and to_run:
            # Measurement hygiene: move every object alive at this point
            # (interpreter, test harness, benchmark models, engine memos)
            # into the GC's permanent generation.  Without this, full
            # collections triggered mid-cell scan the whole long-lived heap
            # and land tens of milliseconds in whichever cell is running —
            # visible as outlier walls in the perf ledger.  After the
            # freeze, collections only trace objects allocated by the cells
            # themselves.  Results are unaffected.  The freeze hides
            # objects from the cyclic collector only: the sweep's programs
            # and their memos form no cycles, so reference counting still
            # frees them when the sweep ends.
            gc.collect()
            gc.freeze()
        if use_parallel:
            stats.jobs_used = min(jobs, len(to_run))
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=stats.jobs_used, mp_context=ctx) as pool:
                futures = {
                    pool.submit(_execute_cell, cell.benchmark, cell.config,
                                cell.params, perf_on, engine):
                    (cell, key)
                    for cell, key in to_run
                }
                for future in as_completed(futures):
                    cell, key = futures[future]
                    if progress is not None:
                        progress(cell.benchmark, cell.label)
                    try:
                        payload = future.result()
                    # lint: allow(EXC001 pool/pickling breakage surfaces as a per-cell failure, not a dead sweep)
                    except Exception as exc:
                        payload = ("err", f"{type(exc).__name__}: {exc}",
                                   traceback.format_exc())
                    ingest(cell, key, payload)
        else:
            stats.jobs_used = 1
            for cell, key in to_run:
                if progress is not None:
                    progress(cell.benchmark, cell.label)
                ingest(cell, key,
                       _execute_cell(cell.benchmark, cell.config, cell.params,
                                     perf_on, engine))
    finally:
        # Programs, and the memos they own, live for this sweep only:
        # forked workers have inherited them by now, and a process that
        # runs many sweeps must not keep every sweep's traces alive.
        _worker_programs.clear()

    # Deterministic output order: the caller's cell order, not completion
    # order (labels_of/benchmarks_of rely on grid insertion order).
    ordered = {
        cell.grid_key: results[cell.grid_key]
        for cell in cells
        if cell.grid_key in results
    }
    stats.records = [records[c.grid_key] for c in cells if c.grid_key in records]
    stats.wall_s = time.perf_counter() - t_start  # lint: allow(DET001 host wall-clock for sweep stats)

    if ledger is not None:
        _record_perf(ledger, cells, ordered, records, stats, perf_context,
                     engine)

    if manifest_path is not None:
        stats.write_manifest(manifest_path)

    outcome = SweepOutcome(results=ordered, stats=stats)
    if strict and stats.failures:
        raise SweepError(
            f"{stats.failed} of {stats.n_cells} sweep cell(s) failed: "
            + "; ".join(str(f) for f in stats.failures),
            failures=stats.failures,
            outcome=outcome,
        )
    return outcome


def _record_perf(
    ledger: Ledger,
    cells: List[SweepCell],
    results: Dict[Tuple[str, str], SimResult],
    records: Dict[Tuple[str, str], CellRecord],
    stats: SweepStats,
    context: str,
    engine: str = "oracle",
) -> None:
    """Append a ledger record for every cell this sweep *executed*.

    Cache hits are skipped: their wall time measures a disk read, not
    the simulator.  ``speedup_pct`` is filled in when an ``orig``-labelled
    cell of the same benchmark ran (or was cached) in the same sweep.
    """
    token = code_version_token()
    for cell in cells:
        record = records.get(cell.grid_key)
        if record is None or record.source != "run" or record.host is None:
            continue
        result = results[cell.grid_key]
        baseline = results.get((cell.benchmark, "orig"))
        speedup_pct = None
        if baseline is not None and cell.label != "orig":
            try:
                speedup_pct = result.relative_speedup_pct_vs(baseline)
            except AnalysisError:
                # Mismatched seed/scale grids have no comparable orig
                # cell; the record simply carries no speedup.
                speedup_pct = None
        host = record.host
        rss = host.get("peak_rss_kb")
        ledger.append(
            PerfRecord.from_result(
                result,
                wall_s=record.wall_s,
                speedup_pct=speedup_pct,
                profile=host.get("profile"),
                peak_rss_kb=int(rss) if rss is not None else None,
                context=context,
                config_fp=config_fingerprint(cell.config),
                params_fp=config_fingerprint(cell.params),
                code_token=token,
                engine=engine,
            )
        )


def run_cell(
    benchmark: str,
    config: MachineConfig,
    params: SimParams = SimParams(),
    cache: Optional[bool] = None,
    cache_dir: Union[str, Path, None] = None,
    engine: Optional[str] = None,
) -> SimResult:
    """Resolve a single (benchmark, configuration) cell through the cache."""
    cell = SweepCell(benchmark, config.name, config, params)
    outcome = run_cells([cell], jobs=1, cache=cache, cache_dir=cache_dir,
                        engine=engine)
    return outcome.results[cell.grid_key]
