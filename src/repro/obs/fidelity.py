"""Fidelity observatory: scored reproduction claims, campaigns, drift.

The rest of the observability stack answers "what did this run do" (the
tracer) and "how fast did the simulator go" (the perf ledger).  This
module answers the tier-1 question: **did we actually reproduce the
paper?**

Three pieces:

* **Claim registry** — ``benchmarks/claims.json`` holds every
  quantitative claim extracted from PAPER.md as data: an id, the source
  anchor (figure/table/section), an extraction expression over the
  campaign result grid, a tolerance band, a drift polarity and a
  severity (``gate`` claims fail the check, ``track`` claims are only
  reported).  :func:`load_claims` parses and validates it; its
  ``figure_tables`` are each figure's per-benchmark view, with the
  paper's values beside the measured ones (:func:`load_figure_tables`).
* **Campaign runner** — :func:`campaign_sections` declares the union
  grid behind Figures 8–17 plus the tables; :func:`run_campaign` runs
  it through :func:`repro.sim.sweep.run_grid`, records every executed
  cell in the perf ledger under ``context="fidelity"``, scores every
  claim, evaluates the figure tables of the sections it ran and
  returns a schema-versioned export document.  Unevaluable claims and
  tables surface as ``skipped`` with a reason — never silently
  unevaluated.
* **Drift tracking** — :func:`diff_exports` compares two campaign
  documents claim by claim, polarity-aware like
  :mod:`repro.obs.compare`; a regression on any *gate* claim is a
  failure.

Scoring is pure post-processing over the result grid: a
fidelity-instrumented run is bit-identical to a plain one (the tests
enforce the same discipline as for the tracer).

CLI surface: ``repro fidelity run | check``; the committed artifacts
are ``benchmarks/FIDELITY_baseline.json`` and ``docs/FIDELITY.md``
(refresh procedure: docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.speedup import suite_average_speedup_pct
from ..common.config import CacheConfig, MachineConfig, SidecarKind, SimParams
from ..common.errors import AnalysisError
from ..sim.executor import code_version_token, config_fingerprint
from ..sim.sweep import ResultGrid, benchmarks_of, grid_cells, run_grid
from ..sta.configs import CONFIG_NAMES, TABLE3_ROWS, named_config, table3_config
from ..workloads import BENCHMARK_NAMES, benchmark_infos
from .ledger import git_sha

__all__ = [
    "CLAIM_KINDS",
    "Claim",
    "ClaimDrift",
    "EXPORT_KIND",
    "FIDELITY_SCHEMA_VERSION",
    "FidelityDiff",
    "PERTURBATIONS",
    "POLARITIES",
    "SECTION_NAMES",
    "SEVERITIES",
    "STATUSES",
    "ScoredClaim",
    "apply_perturbation",
    "campaign_sections",
    "claims_fingerprint",
    "default_claims_path",
    "diff_exports",
    "evaluate_claims",
    "evaluate_figure_tables",
    "figure_table_cells",
    "load_claims",
    "load_figure_tables",
    "load_fidelity_export",
    "render_markdown",
    "run_campaign",
    "validate_fidelity_export",
]

#: Bumped on any incompatible change to claims.json or the export doc.
FIDELITY_SCHEMA_VERSION = 1

#: Marker in exported campaign documents (FIDELITY_baseline.json).
EXPORT_KIND = "repro-fidelity-export"

SEVERITIES = ("gate", "track")
CLAIM_KINDS = ("value", "bool")
#: Drift polarity: which direction of movement is a regression.
#: ``higher``/``lower`` mean higher/lower measured values are better;
#: ``nearer`` means closer to the claim's ``paper_value`` is better.
POLARITIES = ("higher", "lower", "nearer")
STATUSES = ("pass", "fail", "skipped")
_STATUS_RANK = {"pass": 2, "fail": 1, "skipped": 0}

#: Seeded config changes for proving the gate actually gates
#: (``repro fidelity check --perturb no-wec`` must exit 1).
PERTURBATIONS = ("no-wec",)

#: Campaign grid sections, in declaration order.  ``tables`` is the
#: pseudo-section of static Table 1–3 claims (no simulations).
SECTION_NAMES = (
    "tables", "fig08", "fig09", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16",
)

#: Avoids pass/fail flapping on exact band endpoints across platforms.
_EPS = 1e-9


def default_claims_path() -> Path:
    """``benchmarks/claims.json`` at the repo root (fallback: cwd)."""
    root = Path(__file__).resolve().parents[3]
    candidate = root / "benchmarks" / "claims.json"
    if candidate.is_file():
        return candidate
    return Path("benchmarks") / "claims.json"


# ---------------------------------------------------------------------------
# Claim registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One quantitative claim from the paper, as checkable data."""

    #: Stable id, ``<source-group>.<slug>`` (e.g. ``fig11.wec_avg_speedup``).
    id: str
    #: Where the paper makes the claim (figure / table / section anchor).
    source: str
    title: str
    #: ``value`` (numeric, scored against ``band``) or ``bool``
    #: (predicate, pass iff truthy).
    kind: str
    #: Extraction expression over the campaign grid namespace
    #: (see :func:`evaluate_claims`).
    expr: str
    severity: str
    #: Grid sections the expression needs; the claim is ``skipped`` with
    #: a reason when any of them was not part of the campaign.
    requires: Tuple[str, ...]
    unit: str = ""
    #: The paper's number as printed (display string).
    paper: str = ""
    #: The paper's number as a float, when one exists (enables the
    #: Δ-vs-paper column and ``nearer`` drift polarity).
    paper_value: Optional[float] = None
    #: Inclusive ``[lo, hi]`` tolerance band for ``value`` claims;
    #: either end may be ``None`` (unbounded).
    band: Optional[Tuple[Optional[float], Optional[float]]] = None
    better: str = "higher"
    notes: str = ""

    @classmethod
    def from_dict(cls, data: Dict, index: int) -> "Claim":
        where = f"claims[{index}]"
        for key in ("id", "source", "title", "kind", "expr", "severity"):
            if not isinstance(data.get(key), str) or not data.get(key):
                raise AnalysisError(f"{where}: missing or empty {key!r}")
        if data["kind"] not in CLAIM_KINDS:
            raise AnalysisError(
                f"{where}: kind {data['kind']!r} not in {CLAIM_KINDS}")
        if data["severity"] not in SEVERITIES:
            raise AnalysisError(
                f"{where}: severity {data['severity']!r} not in {SEVERITIES}")
        better = data.get("better", "higher")
        if better not in POLARITIES:
            raise AnalysisError(
                f"{where}: better {better!r} not in {POLARITIES}")
        band = data.get("band")
        if band is not None:
            if (not isinstance(band, (list, tuple)) or len(band) != 2
                    or all(v is None for v in band)):
                raise AnalysisError(
                    f"{where}: band must be [lo, hi] with at least one bound")
            band = tuple(None if v is None else float(v) for v in band)
            if band[0] is not None and band[1] is not None \
                    and band[0] > band[1]:
                raise AnalysisError(f"{where}: band lo > hi")
        if data["kind"] == "value" and band is None:
            raise AnalysisError(f"{where}: value claims need a band")
        if better == "nearer" and data.get("paper_value") is None:
            raise AnalysisError(
                f"{where}: better='nearer' needs a paper_value center")
        paper_value = data.get("paper_value")
        return cls(
            id=data["id"],
            source=data["source"],
            title=data["title"],
            kind=data["kind"],
            expr=data["expr"],
            severity=data["severity"],
            requires=_requires(data, where),
            unit=str(data.get("unit", "")),
            paper=str(data.get("paper", "")),
            paper_value=None if paper_value is None else float(paper_value),
            band=band,
            better=better,
            notes=str(data.get("notes", "")),
        )


def _requires(data: Dict, where: str) -> Tuple[str, ...]:
    requires = tuple(data.get("requires") or ())
    unknown = [s for s in requires if s not in SECTION_NAMES]
    if unknown:
        raise AnalysisError(
            f"{where}: unknown section(s) {unknown} in requires")
    return requires


def _read_registry(path: Union[str, Path, None]) -> Dict:
    path = Path(path) if path is not None else default_claims_path()
    if not path.is_file():
        raise AnalysisError(f"no claim registry at {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise AnalysisError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != "repro-claims":
        raise AnalysisError(f"{path}: kind is not 'repro-claims'")
    if doc.get("schema") != FIDELITY_SCHEMA_VERSION:
        raise AnalysisError(
            f"{path}: unknown claims schema {doc.get('schema')!r}")
    if not isinstance(doc.get("claims"), list) or not doc["claims"]:
        raise AnalysisError(f"{path}: claims must be a non-empty list")
    if not isinstance(doc.get("figure_tables", []), list):
        raise AnalysisError(f"{path}: figure_tables must be a list")
    return doc


def load_claims(path: Union[str, Path, None] = None) -> List[Claim]:
    """Parse and validate the claim registry."""
    raw = _read_registry(path)["claims"]
    claims = [Claim.from_dict(d, i) for i, d in enumerate(raw)]
    seen: Dict[str, int] = {}
    for i, claim in enumerate(claims):
        if claim.id in seen:
            raise AnalysisError(
                f"claims[{i}]: duplicate id {claim.id!r} "
                f"(first at claims[{seen[claim.id]}])")
        seen[claim.id] = i
    return claims


def load_figure_tables(path: Union[str, Path, None] = None) -> List[Dict]:
    """Parse and validate the registry's ``figure_tables`` (may be absent).

    A table is a figure's per-benchmark view: a row per benchmark, a
    column per ``{name, expr, fmt}`` (``expr`` runs in the claim
    namespace with ``b`` bound to the row's benchmark; ``fmt`` defaults
    to the table's), an optional ``average`` row of per-column
    expressions and the ``paper``'s ``{column: {benchmark: value}}``.
    Tables are reported, never scored.
    """
    tables = _read_registry(path).get("figure_tables", [])
    for i, table in enumerate(tables):
        where = f"figure_tables[{i}]"
        for key in ("id", "source", "title"):
            if not isinstance(table.get(key), str) or not table[key]:
                raise AnalysisError(f"{where}: missing or empty {key!r}")
        table["requires"] = _requires(table, where)
        columns = table.get("columns")
        if not columns or not all(isinstance(c, dict) and c.get("name")
                                  and c.get("expr") for c in columns):
            raise AnalysisError(
                f"{where}: columns must be a non-empty list of "
                "{name, expr} objects")
        for column in columns:
            column.setdefault("fmt", table.get("fmt", ".2f"))
            try:
                format(0.0, column["fmt"])
            except (TypeError, ValueError):
                raise AnalysisError(f"{where}: column {column['name']!r} "
                                    f"has an invalid fmt") from None
        names = {column["name"] for column in columns}
        for part in ("average", "paper"):
            unknown = sorted(set(table.get(part, {})) - names)
            if unknown:
                raise AnalysisError(
                    f"{where}: {part} key(s) {unknown} name no column")
        for name, cells in table.get("paper", {}).items():
            unknown = sorted(set(cells) - set(BENCHMARK_NAMES))
            if unknown:
                raise AnalysisError(
                    f"{where}: paper[{name!r}] names unknown "
                    f"benchmark(s) {unknown}")
    return tables


def claims_fingerprint(path: Union[str, Path, None] = None) -> str:
    """Content hash of the registry file (campaign provenance)."""
    path = Path(path) if path is not None else default_claims_path()
    if not path.is_file():
        return ""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Campaign grid
# ---------------------------------------------------------------------------


def campaign_sections() -> "OrderedDict[str, Dict[str, MachineConfig]]":
    """The union grid behind fig08–fig17 + tables, by section.

    Labels are unique across sections so the union runs as one
    :func:`run_grid` axis; configurations that coincide with the
    defaults (e.g. ``orig@8tu`` vs ``orig``) keep their own label — the
    executor simulates each distinct cell key once per sweep.  ``fig10``
    reuses the ``fig09`` grid and ``fig17`` the ``fig11`` grid, so
    neither declares cells of its own.
    """
    sections: "OrderedDict[str, Dict[str, MachineConfig]]" = OrderedDict()
    sections["fig11"] = {name: named_config(name) for name in CONFIG_NAMES}
    fig08 = {"t3-base": table3_config(1, single_issue_baseline=True)}
    for n_tus in (1, 2, 4, 8, 16):
        fig08[f"t3-{n_tus}tu"] = table3_config(n_tus)
    sections["fig08"] = fig08
    fig09: Dict[str, MachineConfig] = {}
    for n_tus in (1, 2, 4, 8, 16):
        fig09[f"orig@{n_tus}tu"] = named_config("orig", n_tus=n_tus)
        fig09[f"wec@{n_tus}tu"] = named_config("wth-wp-wec", n_tus=n_tus)
    sections["fig09"] = fig09
    l1_4way = CacheConfig(size=8 * 1024, assoc=4, block_size=64, name="l1d")
    sections["fig12"] = {
        f"{name}@4w": named_config(name, l1d=l1_4way)
        for name in ("orig", "vc", "wth-wp-vc", "wth-wp-wec")
    }
    fig13: Dict[str, MachineConfig] = {}
    for size_kb in (4, 8, 16, 32):
        l1d = CacheConfig(size=size_kb * 1024, assoc=1, block_size=64,
                          name="l1d")
        fig13[f"orig@l1-{size_kb}k"] = named_config("orig", l1d=l1d)
        fig13[f"wec@l1-{size_kb}k"] = named_config("wth-wp-wec", l1d=l1d)
    sections["fig13"] = fig13
    fig14: Dict[str, MachineConfig] = {}
    for size_kb in (128, 256, 512):
        l2 = CacheConfig(size=size_kb * 1024, assoc=4, block_size=128,
                         hit_latency=12, name="l2")
        fig14[f"orig@l2-{size_kb}k"] = named_config("orig", l2=l2)
        fig14[f"wec@l2-{size_kb}k"] = named_config("wth-wp-wec", l2=l2)
    sections["fig14"] = fig14
    fig15: Dict[str, MachineConfig] = {}
    for entries in (4, 16):
        for name in ("vc", "wth-wp-vc", "wth-wp-wec"):
            fig15[f"{name}@{entries}"] = named_config(
                name, sidecar_entries=entries)
    sections["fig15"] = fig15
    sections["fig16"] = {
        "nlp@16": named_config("nlp", sidecar_entries=16),
        "nlp@32": named_config("nlp", sidecar_entries=32),
        "wth-wp-wec@32": named_config("wth-wp-wec", sidecar_entries=32),
    }
    return sections


def apply_perturbation(
    sections: Mapping[str, Dict[str, MachineConfig]], name: str
) -> "OrderedDict[str, Dict[str, MachineConfig]]":
    """A seeded out-of-band config change, for proving the gate gates.

    ``no-wec`` strips the Wrong Execution Cache out of every
    configuration that has one (labels unchanged), which collapses the
    miss-reduction and headline-speedup claims out of their bands.
    """
    if name not in PERTURBATIONS:
        raise AnalysisError(
            f"unknown perturbation {name!r}; known: {PERTURBATIONS}")
    out: "OrderedDict[str, Dict[str, MachineConfig]]" = OrderedDict()
    for section, configs in sections.items():
        out[section] = {}
        for label, cfg in configs.items():
            if cfg.tu.sidecar.kind is SidecarKind.WEC:
                cfg = replace(cfg, tu=replace(
                    cfg.tu, sidecar=replace(
                        cfg.tu.sidecar, kind=SidecarKind.NONE)))
            out[section][label] = cfg
    return out


def _union_axis(
    sections: Mapping[str, Dict[str, MachineConfig]]
) -> Dict[str, MachineConfig]:
    axis: Dict[str, MachineConfig] = {}
    for section, configs in sections.items():
        for label, cfg in configs.items():
            if label in axis and config_fingerprint(axis[label]) \
                    != config_fingerprint(cfg):
                raise AnalysisError(
                    f"section {section!r} redefines label {label!r} with a "
                    "different configuration")
            axis.setdefault(label, cfg)
    return axis


# ---------------------------------------------------------------------------
# Claim evaluation
# ---------------------------------------------------------------------------


def _eval_namespace(grid: ResultGrid) -> Dict[str, object]:
    """The restricted namespace claim expressions evaluate in.

    Everything is a plain function over the campaign grid; speedups are
    percent, ``norm_time`` matches Figure 13/14's normalized execution
    time, ``wins(a, b)`` counts benchmarks where label ``a`` runs fewer
    cycles than label ``b``.
    """
    benches = benchmarks_of(grid) if grid else list(BENCHMARK_NAMES)

    def cell(bench: str, label: str):
        try:
            return grid[(bench, label)]
        except KeyError:
            raise AnalysisError(
                f"no campaign cell ({bench!r}, {label!r})") from None

    def speedup(bench: str, label: str, base: str = "orig") -> float:
        return cell(bench, label).relative_speedup_pct_vs(cell(bench, base))

    def avg_speedup(label: str, base: str = "orig") -> float:
        return suite_average_speedup_pct(grid, base, label)

    def norm_time(bench: str, label: str, base: str) -> float:
        return cell(bench, label).normalized_time_vs(cell(bench, base))

    def avg_norm(label: str, base: str) -> float:
        return sum(norm_time(b, label, base) for b in benches) / len(benches)

    def traffic(bench: str, label: str = "wth-wp-wec",
                base: str = "orig") -> float:
        return cell(bench, label).traffic_increase_pct_vs(cell(bench, base))

    def avg_traffic(label: str = "wth-wp-wec", base: str = "orig") -> float:
        return sum(traffic(b, label, base) for b in benches) / len(benches)

    def missred(bench: str, label: str = "wth-wp-wec",
                base: str = "orig") -> float:
        return cell(bench, label).miss_reduction_pct_vs(cell(bench, base))

    def avg_missred(label: str = "wth-wp-wec", base: str = "orig") -> float:
        return sum(missred(b, label, base) for b in benches) / len(benches)

    def parallel_speedup(bench: str, label: str,
                         base: str = "t3-base") -> float:
        return cell(bench, label).parallel_speedup_vs(cell(bench, base))

    def avg_parallel_speedup(label: str, base: str = "t3-base") -> float:
        return sum(parallel_speedup(b, label, base)
                   for b in benches) / len(benches)

    def wins(label: str, other: str) -> int:
        return sum(1 for b in benches
                   if cell(b, label).total_cycles
                   < cell(b, other).total_cycles)

    def info(bench: str, field: str) -> float:
        for entry in benchmark_infos():
            if entry.name == bench:
                return float(getattr(entry, field))
        raise AnalysisError(f"no benchmark info for {bench!r}")

    def t3_rows() -> List[Tuple[int, ...]]:
        return [tuple(row) for row in TABLE3_ROWS]

    return {
        "__builtins__": {},
        "benchmarks": list(benches),
        "cell": cell,
        "speedup": speedup,
        "avg_speedup": avg_speedup,
        "norm_time": norm_time,
        "avg_norm": avg_norm,
        "traffic": traffic,
        "avg_traffic": avg_traffic,
        "missred": missred,
        "avg_missred": avg_missred,
        "parallel_speedup": parallel_speedup,
        "avg_parallel_speedup": avg_parallel_speedup,
        "wins": wins,
        "info": info,
        "t3_rows": t3_rows,
        "abs": abs, "all": all, "any": any, "len": len, "max": max,
        "min": min, "round": round, "sorted": sorted, "sum": sum,
    }


@dataclass(frozen=True)
class ScoredClaim:
    """One claim after evaluation: verdict + measured value."""

    claim: Claim
    status: str
    measured: Optional[float] = None
    reason: str = ""

    def to_dict(self) -> Dict:
        c = self.claim
        return {
            "id": c.id,
            "source": c.source,
            "title": c.title,
            "kind": c.kind,
            "severity": c.severity,
            "requires": list(c.requires),
            "unit": c.unit,
            "paper": c.paper,
            "paper_value": c.paper_value,
            "band": None if c.band is None else list(c.band),
            "better": c.better,
            "notes": c.notes,
            "status": self.status,
            "measured": self.measured,
            "reason": self.reason,
        }


def _in_band(value: float,
             band: Tuple[Optional[float], Optional[float]]) -> bool:
    lo, hi = band
    if lo is not None and value < lo - _EPS:
        return False
    if hi is not None and value > hi + _EPS:
        return False
    return True


def evaluate_claims(
    claims: Sequence[Claim],
    grid: ResultGrid,
    sections_run: Sequence[str],
) -> List[ScoredClaim]:
    """Score every claim against the campaign grid.

    A claim whose ``requires`` sections were not all part of the
    campaign, or whose expression cannot be evaluated over the grid,
    is scored ``skipped`` with a reason — never dropped.
    """
    have = set(sections_run)
    namespace = _eval_namespace(grid)
    scored: List[ScoredClaim] = []
    for claim in claims:
        missing = [s for s in claim.requires if s not in have]
        if missing:
            scored.append(ScoredClaim(
                claim, "skipped",
                reason=f"campaign did not run section(s) "
                       f"{', '.join(missing)}"))
            continue
        try:
            value = eval(claim.expr, namespace)  # noqa: S307 — registry
            # expressions run with empty __builtins__ over grid helpers.
            if claim.kind == "bool":
                measured = 1.0 if value else 0.0
                status = "pass" if value else "fail"
            else:
                measured = float(value)
                status = "pass" if _in_band(measured, claim.band) else "fail"
            scored.append(ScoredClaim(claim, status,
                                      measured=round(measured, 6)))
        except Exception as exc:  # lint: allow(EXC001 claim isolation: one broken expression must score as skipped, not kill the campaign)
            scored.append(ScoredClaim(
                claim, "skipped",
                reason=f"{type(exc).__name__}: {exc}"))
    return scored


def evaluate_figure_tables(
    tables: Sequence[Dict],
    grid: ResultGrid,
    sections_run: Sequence[str],
) -> List[Dict]:
    """Every table whose ``requires`` sections all ran, with its ``rows``.

    Tables of sections the campaign did not run are left out.  A table
    whose expression raises keeps its place with no rows and a
    ``reason``, like a skipped claim; the campaign goes on.
    """
    have = set(sections_run)
    namespace = _eval_namespace(grid)
    out = []
    for table in tables:
        if not set(table["requires"]) <= have:
            continue
        columns, average = table["columns"], table.get("average", {})
        rows: List[List] = []
        try:
            for bench in namespace["benchmarks"]:
                row_ns = dict(namespace, b=bench)
                rows.append([bench] + [
                    round(float(eval(c["expr"], row_ns)), 6)  # noqa: S307
                    for c in columns])
            if average:
                rows.append(["average"] + [
                    round(float(eval(average[c["name"]], namespace)), 6)  # noqa: S307
                    if c["name"] in average else None for c in columns])
            out.append(dict(table, rows=rows, reason=""))
        except Exception as exc:  # lint: allow(EXC001 table isolation: a broken column expression must not discard the campaign's scored claims)
            out.append(dict(table, rows=[],
                            reason=f"{type(exc).__name__}: {exc}"))
    return out


def _summarize(scored: Sequence[ScoredClaim]) -> Dict[str, Dict[str, int]]:
    summary = {sev: {s: 0 for s in STATUSES} for sev in SEVERITIES}
    for item in scored:
        summary[item.claim.severity][item.status] += 1
    return summary


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------


def run_campaign(
    claims_path: Union[str, Path, None] = None,
    scale: float = 2e-4,
    seed: int = 2003,
    jobs: int = 1,
    engine: Optional[str] = None,
    cache: Optional[bool] = None,
    sections: Optional[Sequence[str]] = None,
    perturb: Optional[str] = None,
    progress: Optional[Callable[[str, str], None]] = None,
    perf_dir: Union[str, Path, None] = None,
) -> Dict:
    """Run the campaign grid, score every claim, return the export doc.

    ``sections`` restricts the grid (default: every section); claims
    needing an unrun section score ``skipped``, and figure tables
    needing one are left out.  Executed cells land in the perf ledger
    under ``perf_dir`` (default ``$REPRO_PERF_DIR``).
    """
    claims = load_claims(claims_path)
    tables = load_figure_tables(claims_path)
    all_sections = campaign_sections()
    if sections is None:
        selected = list(SECTION_NAMES)
    else:
        selected = list(sections)
        unknown = [s for s in selected if s not in SECTION_NAMES]
        if unknown:
            raise AnalysisError(
                f"unknown section(s) {unknown}; known: {SECTION_NAMES}")
        if "tables" not in selected:
            selected.insert(0, "tables")
    sim_sections = OrderedDict(
        (name, configs) for name, configs in all_sections.items()
        if name in selected
    )
    if perturb is not None:
        sim_sections = apply_perturbation(sim_sections, perturb)
    axis = _union_axis(sim_sections)
    params = SimParams(seed=seed, scale=scale)
    n_cells = len(grid_cells(axis, list(BENCHMARK_NAMES), params)) \
        if axis else 0

    grid: ResultGrid = {}
    if axis:
        grid = run_grid(
            axis,
            benchmarks=list(BENCHMARK_NAMES),
            params=params,
            progress=progress,
            jobs=jobs,
            cache=cache,
            perf_context="fidelity",
            engine=engine,
            perf_dir=perf_dir,
        )
    scored = evaluate_claims(claims, grid, selected)
    return {
        "kind": EXPORT_KIND,
        "schema": FIDELITY_SCHEMA_VERSION,
        "params": {
            "scale": scale,
            "seed": seed,
            "engine": engine or "",
            "perturb": perturb or "",
        },
        "sections": selected,
        "n_cells": n_cells,
        "provenance": {
            "git_sha": git_sha(),
            "code_token": code_version_token(),
            "claims_fp": claims_fingerprint(claims_path),
        },
        "summary": _summarize(scored),
        "claims": [item.to_dict() for item in scored],
        "figure_tables": evaluate_figure_tables(tables, grid, selected),
    }


# ---------------------------------------------------------------------------
# Export documents
# ---------------------------------------------------------------------------


def validate_fidelity_export(doc: Dict) -> List[str]:
    """Schema-check a campaign document; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["export is not a JSON object"]
    if doc.get("kind") != EXPORT_KIND:
        problems.append(
            f"kind is {doc.get('kind')!r}, expected {EXPORT_KIND!r}")
    if doc.get("schema") != FIDELITY_SCHEMA_VERSION:
        problems.append(f"unknown schema {doc.get('schema')!r}")
    claims = doc.get("claims")
    if not isinstance(claims, list) or not claims:
        return problems + ["claims is not a non-empty list"]
    for i, data in enumerate(claims):
        for key in ("id", "severity", "status"):
            if key not in data:
                problems.append(f"claims[{i}] missing {key!r}")
        if data.get("status") not in STATUSES:
            problems.append(
                f"claims[{i}] has unknown status {data.get('status')!r}")
        if data.get("status") == "skipped" and not data.get("reason"):
            problems.append(f"claims[{i}] skipped without a reason")
    return problems


def load_fidelity_export(path: Union[str, Path]) -> Dict:
    """Load and validate a campaign document written by ``fidelity run``."""
    path = Path(path)
    if not path.is_file():
        raise AnalysisError(f"no fidelity export at {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise AnalysisError(f"{path} is not valid JSON: {exc}") from None
    problems = validate_fidelity_export(doc)
    if problems:
        raise AnalysisError(
            f"{path} is not a valid fidelity export: {'; '.join(problems)}")
    return doc


# ---------------------------------------------------------------------------
# Drift checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimDrift:
    """One claim's movement between two campaign documents."""

    claim_id: str
    severity: str
    better: str
    base_status: str
    new_status: str
    base_measured: Optional[float]
    new_measured: Optional[float]
    #: Polarity-aware worsening in percent (positive = worse); ``None``
    #: when either side has no measured value.
    drift_pct: Optional[float]
    regressed: bool
    note: str = ""


@dataclass(frozen=True)
class FidelityDiff:
    """Claim-by-claim comparison of a fresh campaign vs a baseline."""

    rows: Tuple[ClaimDrift, ...]
    threshold_pct: float

    @property
    def gate_regressions(self) -> List[ClaimDrift]:
        return [r for r in self.rows if r.regressed and r.severity == "gate"]

    @property
    def track_regressions(self) -> List[ClaimDrift]:
        return [r for r in self.rows if r.regressed and r.severity == "track"]

    def render(self) -> str:
        lines = [
            f"fidelity drift vs baseline "
            f"(threshold {self.threshold_pct:g}%, {len(self.rows)} claims)"
        ]
        for row in self.rows:
            if not row.regressed and row.base_status == row.new_status:
                continue
            drift = ("" if row.drift_pct is None
                     else f" drift {row.drift_pct:+.1f}%")
            verdict = "REGRESSION" if row.regressed else "changed"
            lines.append(
                f"  [{verdict}] {row.claim_id} ({row.severity}): "
                f"{row.base_status} -> {row.new_status}{drift}"
                + (f" — {row.note}" if row.note else ""))
        gates = self.gate_regressions
        tracks = self.track_regressions
        if gates:
            lines.append(
                f"REGRESSION: {len(gates)} gate claim(s) regressed")
        elif tracks:
            lines.append(
                f"ok (gates held; {len(tracks)} track claim(s) drifted)")
        else:
            lines.append("ok: no fidelity drift")
        return "\n".join(lines)


def _drift_pct(better: str, base: float, new: float,
               center: Optional[float]) -> Optional[float]:
    denom = max(abs(base), _EPS)
    if better == "higher":
        return (base - new) / denom * 100.0
    if better == "lower":
        return (new - base) / denom * 100.0
    if center is None:
        return None
    # nearer: how much further from the paper's number did we move,
    # relative to the paper's number.
    return (abs(new - center) - abs(base - center)) \
        / max(abs(center), 1.0) * 100.0


def diff_exports(base_doc: Dict, new_doc: Dict,
                 threshold_pct: float = 10.0) -> FidelityDiff:
    """Polarity-aware drift between two campaign documents.

    A claim regresses when its status worsens (pass → fail, anything →
    skipped) or when both sides evaluated and the measured value moved
    against the claim's polarity by more than ``threshold_pct``.  Gate
    regressions fail ``repro fidelity check``; track regressions are
    reported only.  A claim present in the baseline but missing from
    the fresh run counts as a regression (it stopped being scored).
    """
    new_by_id = {c["id"]: c for c in new_doc.get("claims", [])}
    rows: List[ClaimDrift] = []
    for base in base_doc.get("claims", []):
        cid = base["id"]
        new = new_by_id.pop(cid, None)
        if new is None:
            rows.append(ClaimDrift(
                claim_id=cid, severity=base.get("severity", "gate"),
                better=base.get("better", "higher"),
                base_status=base["status"], new_status="missing",
                base_measured=base.get("measured"), new_measured=None,
                drift_pct=None, regressed=True,
                note="claim no longer scored"))
            continue
        base_status, new_status = base["status"], new["status"]
        base_measured = base.get("measured")
        new_measured = new.get("measured")
        drift = None
        regressed = _STATUS_RANK[new_status] < _STATUS_RANK[base_status]
        note = ""
        if regressed:
            note = new.get("reason", "")
        if base_measured is not None and new_measured is not None \
                and base.get("kind") != "bool":
            drift = _drift_pct(
                base.get("better", "higher"),
                float(base_measured), float(new_measured),
                base.get("paper_value"))
            if drift is not None and drift > threshold_pct + _EPS:
                regressed = True
                if not note:
                    note = (f"measured {base_measured:g} -> "
                            f"{new_measured:g}")
        rows.append(ClaimDrift(
            claim_id=cid, severity=base.get("severity", "gate"),
            better=base.get("better", "higher"),
            base_status=base_status, new_status=new_status,
            base_measured=base_measured, new_measured=new_measured,
            drift_pct=None if drift is None else round(drift, 3),
            regressed=regressed, note=note))
    for cid, new in new_by_id.items():
        rows.append(ClaimDrift(
            claim_id=cid, severity=new.get("severity", "track"),
            better=new.get("better", "higher"),
            base_status="missing", new_status=new["status"],
            base_measured=None, new_measured=new.get("measured"),
            drift_pct=None, regressed=False,
            note="new claim (not in baseline)"))
    return FidelityDiff(rows=tuple(rows), threshold_pct=threshold_pct)


# ---------------------------------------------------------------------------
# Markdown report (docs/FIDELITY.md)
# ---------------------------------------------------------------------------


def _fmt(value: Optional[float], unit: str = "") -> str:
    if value is None:
        return "—"
    text = f"{value:+.2f}" if abs(value) < 1000 else f"{value:+.4g}"
    return f"{text}{(' ' + unit) if unit else ''}"


def _fmt_band(band: Optional[Sequence[Optional[float]]]) -> str:
    if band is None:
        return "—"
    lo, hi = band
    lo_s = "−∞" if lo is None else f"{lo:g}"
    hi_s = "∞" if hi is None else f"{hi:g}"
    return f"[{lo_s}, {hi_s}]"


def figure_table_cells(table: Dict) -> Tuple[List[str], List[List[str]]]:
    """Header and formatted rows of an exported figure table.

    A cell the paper gives a value for shows it in parentheses after
    the measured one, in the column's format.
    """
    columns = table["columns"]
    paper = table.get("paper", {})
    rows = []
    for bench, *values in table["rows"]:
        cells = [bench]
        for column, value in zip(columns, values):
            fmt = column["fmt"]
            text = "—" if value is None else format(value, fmt)
            read_off = paper.get(column["name"], {}).get(bench)
            cells.append(text if read_off is None
                         else f"{text} ({read_off:{fmt}})")
        rows.append(cells)
    return ["benchmark"] + [c["name"] for c in columns], rows


def render_markdown(doc: Dict) -> str:
    """Render a campaign document as the committed fidelity report."""
    problems = validate_fidelity_export(doc)
    if problems:
        raise AnalysisError(
            f"cannot render invalid export: {'; '.join(problems)}")
    params = doc.get("params", {})
    summary = doc.get("summary", {})
    gate = summary.get("gate", {})
    track = summary.get("track", {})
    lines = [
        "# Fidelity report — measured vs. paper",
        "",
        "Generated by `repro fidelity run`; do not edit by hand.",
        "Claim registry: `benchmarks/claims.json` (schema "
        f"{doc.get('schema')}); semantics: `docs/OBSERVABILITY.md`, "
        "\"Fidelity observatory\".",
        "",
        f"- scale `{params.get('scale')}`, seed `{params.get('seed')}`, "
        f"engine `{params.get('engine') or 'default'}`, "
        f"{doc.get('n_cells', 0)} grid cells, sections: "
        f"{', '.join(doc.get('sections', []))}",
        f"- claims registry fingerprint "
        f"`{doc.get('provenance', {}).get('claims_fp', '')}`",
        "",
        f"**Verdict: {gate.get('pass', 0)}/"
        f"{sum(gate.get(s, 0) for s in STATUSES)} gate claims in band, "
        f"{track.get('pass', 0)}/"
        f"{sum(track.get(s, 0) for s in STATUSES)} track claims in band, "
        f"{gate.get('skipped', 0) + track.get('skipped', 0)} skipped.**",
        "",
    ]
    # Claims and figure tables, grouped by id prefix (their figure).
    groups: "OrderedDict[str, Tuple[List[Dict], List[Dict]]]" = OrderedDict()
    for index, key in enumerate(("claims", "figure_tables")):
        for item in doc.get(key, []):
            groups.setdefault(item["id"].split(".", 1)[0], ([], []))[index] \
                .append(item)
    for group, (claims, tables) in groups.items():
        source = (claims or tables)[0]["source"]
        lines.append(f"## {source.split(',')[0].split('—')[0].strip()} (`{group}`)")
        lines.append("")
        if claims:
            lines.append("| claim | severity | paper | measured | band "
                         "| Δ vs paper | status |")
            lines.append("|---|---|---|---|---|---|---|")
        for claim in claims:
            measured = claim.get("measured")
            paper_value = claim.get("paper_value")
            if claim["kind"] == "bool":
                shown = ("—" if measured is None
                         else ("yes" if measured else "no"))
            else:
                shown = _fmt(measured, claim.get("unit", ""))
            delta = (_fmt(measured - paper_value)
                     if measured is not None and paper_value is not None
                     else "—")
            status = claim["status"]
            mark = {"pass": "✅ pass", "fail": "❌ fail",
                    "skipped": "⏭ skipped"}[status]
            title = claim["title"]
            if status == "skipped" and claim.get("reason"):
                title += f" *(skipped: {claim['reason']})*"
            lines.append(
                f"| {title} | {claim['severity']} "
                f"| {claim.get('paper') or '—'} | {shown} "
                f"| {_fmt_band(claim.get('band'))} | {delta} | {mark} |")
        lines.append("")
        for table in tables:
            lines.append(f"**{table['title']}**")
            lines.append("")
            if table.get("reason"):
                lines.extend([f"*(skipped: {table['reason']})*", ""])
                continue
            header, rows = figure_table_cells(table)
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            lines.extend("| " + " | ".join(row) + " |" for row in rows)
            lines.append("")
    lines.append("Refresh: `repro fidelity run --out "
                 "benchmarks/FIDELITY_baseline.json --md docs/FIDELITY.md` "
                 "after any intentional model change, and commit both "
                 "artifacts with it.")
    lines.append("")
    return "\n".join(lines)
