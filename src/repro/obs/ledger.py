"""Persistent run ledger: append-only performance history across runs.

PR 2 made a *single* run inspectable; the ledger gives the repo memory
*across* runs.  Every recorded run lands as one JSON line in
``$REPRO_PERF_DIR/ledger.jsonl`` (default ``.perf/``) carrying three
groups of facts per (benchmark × config × seed):

* **sim metrics** — the deterministic simulation outcome (cycles, IPC,
  L1 miss rate, WEC hit rate, effective misses, speedup vs the ``orig``
  baseline when one ran alongside);
* **host metrics** — how fast the *simulator* ran (wall seconds,
  simulated events/sec, peak RSS) plus the optional
  :class:`~repro.obs.hostprof.HostProfiler` section breakdown;
* **provenance** — git SHA, the executor's code-version token, the
  config/params fingerprints, seed and scale — enough to know exactly
  which code and knobs produced the numbers.

Records are schema-versioned (:data:`LEDGER_SCHEMA_VERSION`); readers
skip lines they cannot parse or whose schema they do not know, so a
ledger written by a newer checkout never breaks an older one.  The
comparison engine (:mod:`repro.obs.compare`) consumes these records;
``repro perf record/compare/report`` is the CLI surface.

Recording is automatic: :func:`repro.sim.executor.run_cells` appends a
record for every cell it *executes* (never for cache hits — their wall
time would measure a disk read) whenever ``$REPRO_PERF_DIR`` is set.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..common.errors import AnalysisError

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "EXPORT_KIND",
    "Ledger",
    "PerfRecord",
    "default_perf_dir",
    "git_sha",
    "load_records",
    "validate_export",
    "write_export",
]

#: Bumped whenever the record layout changes; readers skip unknown versions.
LEDGER_SCHEMA_VERSION = 1

#: Marker in exported JSON documents (``repro perf report --json``).
EXPORT_KIND = "repro-perf-export"

#: The ledger file name inside the perf directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Sub-resolution wall-clock floor for *rate* metrics.  A cell that
#: completes faster than the host clock can resolve used to drop
#: ``events_per_sec``/``cycles_per_sec`` entirely, which silently
#: removed the record from every A/B comparison of those metrics.  The
#: raw ``wall_s`` is always recorded as measured; rates divide by
#: ``max(wall_s, WALL_EPSILON_S)`` and the record carries
#: ``host["wall_clamped"] = 1.0`` so readers can tell a clamped rate
#: from a measured one.
WALL_EPSILON_S = 1e-6


def default_perf_dir() -> Optional[Path]:
    """``$REPRO_PERF_DIR`` as a path, or ``None`` when recording is off."""
    env = os.environ.get("REPRO_PERF_DIR")
    return Path(env) if env else None


_git_sha: Optional[str] = None


def git_sha() -> str:
    """The working tree's HEAD commit (cached; empty when not a repo)."""
    global _git_sha
    if _git_sha is None:
        try:
            _git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5,
                check=False,
            ).stdout.strip()
        except OSError:
            _git_sha = ""
    return _git_sha


@dataclass
class PerfRecord:
    """One ledger line: sim + host metrics plus provenance for one run."""

    benchmark: str
    config: str
    seed: int = 0
    scale: float = 0.0
    #: Simulation metrics (deterministic for a fixed seed/scale/code).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Host metrics (stochastic: wall_s, events_per_sec, peak_rss_kb).
    host: Dict[str, float] = field(default_factory=dict)
    #: Optional HostProfiler section breakdown ({section: {s, calls, pct}}).
    profile: Optional[Dict] = None
    #: Who recorded the run ("cli.perf.record", "executor", "bench", ...).
    context: str = ""
    #: Free-form grouping label for A/B comparison (``record --label``).
    label: str = ""
    #: Code/config identity: git_sha, code_token, config_fp, params_fp.
    provenance: Dict[str, str] = field(default_factory=dict)
    ts: float = 0.0
    schema: int = LEDGER_SCHEMA_VERSION

    @classmethod
    def from_result(
        cls,
        result,
        wall_s: float,
        speedup_pct: Optional[float] = None,
        profile: Optional[Dict] = None,
        peak_rss_kb: Optional[int] = None,
        context: str = "",
        label: str = "",
        config_fp: str = "",
        params_fp: str = "",
        code_token: str = "",
        engine: str = "",
    ) -> "PerfRecord":
        """Build a record from a :class:`~repro.sim.results.SimResult`.

        Rate metrics are always recorded: a ``wall_s`` below the host
        clock's resolution is clamped to :data:`WALL_EPSILON_S` for the
        division (raw ``wall_s`` kept as measured, ``wall_clamped``
        marker set) instead of silently dropping the metrics.
        """
        sim = result.sim_metrics()
        if speedup_pct is not None:
            sim["speedup_pct"] = float(speedup_pct)
        host: Dict[str, float] = {"wall_s": float(wall_s)}
        rate_wall = wall_s if wall_s >= WALL_EPSILON_S else WALL_EPSILON_S
        host["events_per_sec"] = result.instructions / rate_wall
        host["cycles_per_sec"] = result.total_cycles / rate_wall
        if wall_s < WALL_EPSILON_S:
            host["wall_clamped"] = 1.0
        if peak_rss_kb is not None:
            host["peak_rss_kb"] = float(peak_rss_kb)
        provenance = {
            "git_sha": git_sha(),
            "code_token": code_token,
            "config_fp": config_fp,
            "params_fp": params_fp,
            "engine": engine or "oracle",
        }
        return cls(
            benchmark=result.benchmark,
            config=result.config,
            seed=result.seed,
            scale=result.scale,
            sim=sim,
            host=host,
            profile=profile,
            context=context,
            label=label,
            provenance=provenance,
            # lint: allow(DET001 ledger timestamp: record provenance only, never feeds sim state or cache keys)
            ts=time.time(),
        )

    def metric(self, source: str, name: str) -> Optional[float]:
        """The value of ``sim``/``host`` metric ``name``, or ``None``."""
        group = self.sim if source == "sim" else self.host
        value = group.get(name)
        return float(value) if value is not None else None

    @property
    def group_key(self):
        """Comparison grouping: same workload, config and knobs."""
        return (self.benchmark, self.config, self.seed, self.scale)

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "ts": self.ts,
            "benchmark": self.benchmark,
            "config": self.config,
            "seed": self.seed,
            "scale": self.scale,
            "context": self.context,
            "label": self.label,
            "provenance": self.provenance,
            "sim": self.sim,
            "host": self.host,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PerfRecord":
        """Parse one record; raises on missing required keys."""
        return cls(
            benchmark=data["benchmark"],
            config=data["config"],
            seed=int(data.get("seed", 0)),
            scale=float(data.get("scale", 0.0)),
            sim=dict(data.get("sim") or {}),
            host=dict(data.get("host") or {}),
            profile=data.get("profile"),
            context=str(data.get("context", "")),
            label=str(data.get("label", "")),
            provenance=dict(data.get("provenance") or {}),
            ts=float(data.get("ts", 0.0)),
            schema=int(data.get("schema", LEDGER_SCHEMA_VERSION)),
        )


class Ledger:
    """Append-only JSONL store of :class:`PerfRecord` under one directory."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = default_perf_dir() or Path(".perf")
        self.root = Path(root)
        self.path = self.root / LEDGER_FILENAME
        self._write_warned = False

    def append(self, record: PerfRecord) -> None:
        """Append one record (best-effort: an unwritable dir warns once)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            line = json.dumps(record.to_dict(), sort_keys=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            if not self._write_warned:
                self._write_warned = True
                warnings.warn(
                    f"perf ledger at {self.path} is not writable ({exc}); "
                    "continuing without recording",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def records(self, label: Optional[str] = None) -> List[PerfRecord]:
        """All parseable records, oldest first, optionally label-filtered."""
        out: List[PerfRecord] = []
        if not self.path.is_file():
            return out
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if int(data.get("schema", -1)) != LEDGER_SCHEMA_VERSION:
                        continue  # written by a different code generation
                    record = PerfRecord.from_dict(data)
                except (ValueError, KeyError, TypeError):
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping unparseable ledger "
                        "line",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if label is None or record.label == label:
                    out.append(record)
        return out

    def __len__(self) -> int:
        return len(self.records())


# ---------------------------------------------------------------------------
# Export documents (``repro perf report --json``, BENCH_smoke.json)
# ---------------------------------------------------------------------------


def write_export(
    records: List[PerfRecord], path: Union[str, Path]
) -> Path:
    """Write records as one self-describing JSON document."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "kind": EXPORT_KIND,
        "schema": LEDGER_SCHEMA_VERSION,
        "generated_ts": time.time(),
        "n_records": len(records),
        "records": [r.to_dict() for r in records],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def validate_export(doc: Dict) -> List[str]:
    """Schema-check an export document; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["export is not a JSON object"]
    if doc.get("kind") != EXPORT_KIND:
        problems.append(f"kind is {doc.get('kind')!r}, expected {EXPORT_KIND!r}")
    if doc.get("schema") != LEDGER_SCHEMA_VERSION:
        problems.append(f"unknown schema {doc.get('schema')!r}")
    records = doc.get("records")
    if not isinstance(records, list):
        return problems + ["records is not a list"]
    if doc.get("n_records") != len(records):
        problems.append("n_records does not match len(records)")
    for i, data in enumerate(records):
        for key in ("benchmark", "config", "sim", "host"):
            if key not in data:
                problems.append(f"records[{i}] missing {key!r}")
        host = data.get("host")
        if isinstance(host, dict) and "wall_s" not in host:
            problems.append(f"records[{i}].host missing 'wall_s'")
    return problems


def load_records(source: Union[str, Path]) -> List[PerfRecord]:
    """Load records from a ledger dir, a ``.jsonl`` file, or an export.

    ``source`` may be the perf directory itself, the ``ledger.jsonl``
    inside it, or a JSON export document written by :func:`write_export`.
    Raises :class:`~repro.common.errors.AnalysisError` when nothing
    loadable is found.
    """
    path = Path(source)
    if path.is_dir():
        records = Ledger(path).records()
        if not records:
            raise AnalysisError(f"no perf records under {path}")
        return records
    if not path.is_file():
        raise AnalysisError(f"no such perf source: {path}")
    if path.suffix == ".jsonl":
        records = Ledger(path.parent).records() if path.name == LEDGER_FILENAME \
            else _read_jsonl(path)
        if not records:
            raise AnalysisError(f"no perf records in {path}")
        return records
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise AnalysisError(f"{path} is not valid JSON: {exc}") from None
    problems = validate_export(doc)
    if problems:
        raise AnalysisError(
            f"{path} is not a valid perf export: {'; '.join(problems)}"
        )
    return [PerfRecord.from_dict(d) for d in doc["records"]]


def _read_jsonl(path: Path) -> List[PerfRecord]:
    out: List[PerfRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if int(data.get("schema", -1)) != LEDGER_SCHEMA_VERSION:
                    continue
                out.append(PerfRecord.from_dict(data))
            except (ValueError, KeyError, TypeError):
                continue
    return out
