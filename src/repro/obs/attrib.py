"""Cache-block provenance and lifetime attribution (``repro explain``).

The paper's argument is *causal*: wrong-path and wrong-thread loads act
as indirect prefetches, and the WEC absorbs the pollution they would
otherwise cause.  Aggregate counters (miss rate, WEC hit rate) cannot
separate the helpful fills from the harmful ones; this module can.

Every fill into the L1D or its sidecar is tagged with a **provenance**
(who caused the block to be resident) from the shared enum below —
``PROV_*`` constants are module-level ints exactly like the event kinds
in :mod:`repro.obs.events`, and lint rule OBS002 requires call sites to
pass the named constants, mirroring OBS001 for ``emit()``.  The tags
correspond to the per-block cache flags of :mod:`repro.mem.cache`
(``WRONG`` ↔ wrong-path/wrong-thread fills, ``PREFETCHED`` ↔
next-line prefetches); the flags mark *state* on a cached block
while the provenance tags name the *fill* that created it, so the
collector is the single naming authority for both.

A **lifetime** tracks one speculative fill from its insertion until its
*first correct-path use* (which settles the attribution question) or
until the block leaves the L1+sidecar hierarchy unused.  Closed
lifetimes are classified:

* **useful** — a correct-path access hit the block after the fill
  completed: the fill was a successful prefetch;
* **late** — used, but sooner after the fill than the fill latency: the
  block was still in flight, so only part of the miss was hidden;
* **unused** — evicted without ever being referenced by correct code;
* **polluting** — unused, *and* the correct path later missed on a
  block this fill displaced.

The pollution-attribution chain follows the paper's notion of cache
pollution: *displacement of demand working set from the L1*.  Every
insert into the L1 remembers its cause; when the block it displaced
finally leaves the L1+sidecar hierarchy without being rescued, that
cause is remembered as the evictor, and the evicted block's next
correct demand fill charges the evictor with one pollution miss.  A
victim that is demoted into a sidecar and later bumped out is still
charged to whoever pushed it *out of the L1* (the sidecar gave it a
second chance; the bump merely ended it) — while a speculative fill
that never made the L1 and is bumped out of the sidecar unused charges
nobody: the demand miss that may follow would have happened without
speculation too (a spoiled prefetch, not pollution).

Demand fills are born used (the access that triggered them is the use);
L1 victims demoted into a sidecar open a fresh ``PROV_VICTIM`` lifetime
(Jouppi's victim-caching usefulness), unless they carry a still-pending
speculative lifetime, which continues — matching the way the ``WRONG``
/ ``PREFETCHED`` flags survive demotion in :mod:`repro.mem.hierarchy`.

Like the tracer and the profiler, an ``AttributionCollector`` is
passed to :func:`repro.sim.driver.run_simulation` as a separate
argument — never inside hashed :class:`SimParams` — and it only *reads*
simulator state, so attributed runs are bit-identical to plain runs
(``tests/test_attrib.py`` enforces this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.errors import AnalysisError
from .events import ATTRIB_POLLUTE, ATTRIB_USE, CAT_ATTRIB

__all__ = [
    "PROV_DEMAND",
    "PROV_WRONG_PATH",
    "PROV_WRONG_THREAD",
    "PROV_NLP",
    "PROV_VICTIM",
    "PROVENANCES",
    "SPECULATIVE_PROVS",
    "WRONG_PROVS",
    "PREFETCH_PROVS",
    "PROV_NAMES",
    "OUTCOME_NAMES",
    "GAP_EDGES",
    "BlockLifetime",
    "AttributionCollector",
    "attribution_delta",
    "explain_report",
    "hist_lines",
    "explain_vs_report",
]


# -- the shared provenance enum ---------------------------------------------

#: Correct-path demand miss: the fill every cache performs.
PROV_DEMAND = 0
#: Load injected down a mispredicted path after branch resolution (§3.1.1).
PROV_WRONG_PATH = 1
#: Load issued by an aborted successor thread running on (§3.1.2).
PROV_WRONG_THREAD = 2
#: Next-line prefetch into the sidecar (§3.2.1 chains, or the nlp config).
PROV_NLP = 3
#: L1 victim demoted into the sidecar (victim caching).
PROV_VICTIM = 4

PROVENANCES: Tuple[int, ...] = (
    PROV_DEMAND, PROV_WRONG_PATH, PROV_WRONG_THREAD, PROV_NLP, PROV_VICTIM,
)

#: Fills whose usefulness is speculative (everything but demand).
SPECULATIVE_PROVS: Tuple[int, ...] = (
    PROV_WRONG_PATH, PROV_WRONG_THREAD, PROV_NLP, PROV_VICTIM,
)
#: Wrong-execution provenance classes (the paper's mechanism).
WRONG_PROVS: Tuple[int, ...] = (PROV_WRONG_PATH, PROV_WRONG_THREAD)
#: Explicit-prefetcher provenance classes.
PREFETCH_PROVS: Tuple[int, ...] = (PROV_NLP,)

PROV_NAMES: Dict[int, str] = {
    PROV_DEMAND: "demand",
    PROV_WRONG_PATH: "wrong-path",
    PROV_WRONG_THREAD: "wrong-thread",
    PROV_NLP: "nlp-prefetch",
    PROV_VICTIM: "victim",
}

# -- lifetime outcomes ------------------------------------------------------

_USEFUL, _LATE, _UNUSED, _POLLUTING = range(4)
OUTCOME_NAMES: Tuple[str, ...] = ("useful", "late", "unused", "polluting")

#: Upper edges of the fill→first-use gap histogram (cycles); one
#: overflow bucket follows.  Replay events share their iteration's start
#: cycle, so bucket 0 (gap = 0) means "used within the same iteration".
GAP_EDGES: Tuple[float, ...] = (0.0, 64.0, 256.0, 1024.0, 4096.0)


class BlockLifetime:
    """One speculative fill's residency, fill → first correct use/eviction."""

    __slots__ = (
        "prov", "tu", "block", "fill_cycle", "latency",
        "region", "pc", "outcome", "pollution", "demoted_by",
    )

    def __init__(
        self,
        prov: int,
        tu: int,
        block: int,
        fill_cycle: float,
        latency: float,
        region: str,
        pc: int,
    ) -> None:
        self.prov = prov
        self.tu = tu
        self.block = block
        self.fill_cycle = fill_cycle
        self.latency = latency
        self.region = region
        self.pc = pc
        #: Outcome index once closed (None while the lifetime is open).
        self.outcome: Optional[int] = None
        #: Correct-path misses charged to this fill (pollution chain).
        self.pollution = 0
        #: For ``PROV_VICTIM``: the cause that displaced this block out
        #: of the L1 (charged if the victim dies unused and re-misses).
        self.demoted_by: Optional[Tuple[int, Optional["BlockLifetime"]]] = None


def _gap_bucket(gap: float) -> int:
    for i, edge in enumerate(GAP_EDGES):
        if gap <= edge:
            return i
    return len(GAP_EDGES)


class AttributionCollector:
    """Per-block provenance/lifetime collector for one simulation run.

    The memory hierarchy calls the ``on_*`` hooks at every fill, use,
    demotion and eviction; the scheduler maintains :attr:`now` and
    :attr:`region` (exactly as it does for a tracer); the thread unit
    declares the active wrong-execution kind before injecting wrong
    loads.  All hooks are read-only on simulator state.

    ``tracer`` (optional) receives ``attrib``-category instants —
    ``attrib_use`` on every first correct use of a speculative fill and
    ``attrib_pollute`` on every charged pollution miss.
    """

    #: Mirrors :attr:`repro.obs.tracer.Tracer.enabled`: components bind a
    #: handle only when True, so a disabled collector costs nothing.
    enabled: bool = True

    __slots__ = (
        "now", "region", "window",
        "_obs", "_wrong_prov", "_wrong_pc", "_last_cause",
        "_open", "_evicted_by",
        "_fills", "_closed", "_pollution", "_gap_hist",
        "_region_stats", "_site_stats", "_buckets",
    )

    def __init__(self, window: float = 4096.0, tracer=None) -> None:
        #: Current simulated cycle, maintained by the scheduler.
        self.now: float = 0.0
        #: Name of the region currently executing (scheduler-maintained).
        self.region: str = ""
        self.window = float(window) if window > 0 else 4096.0
        live = tracer is not None and tracer.enabled
        self._obs = tracer if live and tracer.wants(CAT_ATTRIB) else None
        self._wrong_prov = PROV_WRONG_PATH
        self._wrong_pc = 0
        self._reset_state()

    def _reset_state(self) -> None:
        n = len(PROVENANCES)
        #: Pending cause for the next eviction: (prov, lifetime | None).
        self._last_cause: Tuple[int, Optional[BlockLifetime]] = (PROV_DEMAND, None)
        #: (tu, block) → open (not yet used) lifetime.
        self._open: Dict[Tuple[int, int], BlockLifetime] = {}
        #: (tu, block) → cause that evicted the block out of the hierarchy.
        self._evicted_by: Dict[Tuple[int, int], Tuple[int, Optional[BlockLifetime]]] = {}
        self._fills = [0] * n
        self._closed = [[0, 0, 0, 0] for _ in range(n)]
        self._pollution = [0] * n
        self._gap_hist = [[0] * (len(GAP_EDGES) + 1) for _ in range(n)]
        #: region name → [demand_fills, wrong_fills, useful_wrong, pollution].
        self._region_stats: Dict[str, List[int]] = {}
        #: (region, branch pc) → [wrong fills, useful, pollution] per site.
        self._site_stats: Dict[Tuple[str, int], List[int]] = {}
        #: window index → [spec fills, useful uses, pollution misses].
        self._buckets: Dict[int, List[int]] = {}

    def reset_measurement(self) -> None:
        """Drop everything collected so far (warm-up boundary).

        Mirrors ``Machine.reset_statistics()``: measurement starts from
        warmed cache state, so lifetimes opened during warm-up are
        discarded rather than closed.
        """
        self._reset_state()

    # -- context (thread unit / scheduler) ---------------------------------

    def set_wrong_context(self, prov: int, pc: int = 0) -> None:
        """Declare the wrong-execution kind for subsequent wrong fills.

        ``prov`` must be :data:`PROV_WRONG_PATH` (with the mispredicted
        branch's pc) or :data:`PROV_WRONG_THREAD` (lint OBS002 enforces
        the named constant).
        """
        self._wrong_prov = prov
        self._wrong_pc = pc

    # -- fill hooks (memory hierarchy) -------------------------------------

    def _bucket(self) -> List[int]:
        idx = int(self.now // self.window)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = [0, 0, 0]
            self._buckets[idx] = bucket
        return bucket

    def _region_row(self) -> List[int]:
        row = self._region_stats.get(self.region)
        if row is None:
            row = [0, 0, 0, 0]
            self._region_stats[self.region] = row
        return row

    def on_demand_fill(self, tu: int, block: int) -> None:
        """A correct-path miss filled ``block`` from beyond the hierarchy."""
        self._fills[PROV_DEMAND] += 1
        self._region_row()[0] += 1
        cause = self._evicted_by.pop((tu, block), None)
        if cause is not None:
            # This demand miss exists because someone displaced the block:
            # charge the evictor (the pollution-attribution chain).
            prov, lifetime = cause
            self._pollution[prov] += 1
            self._region_row()[3] += 1
            self._bucket()[2] += 1
            if lifetime is not None:
                lifetime.pollution += 1
                if lifetime.outcome == _UNUSED:
                    # Already closed as unused: reclassify as polluting.
                    self._closed[lifetime.prov][_UNUSED] -= 1
                    self._closed[lifetime.prov][_POLLUTING] += 1
                    lifetime.outcome = _POLLUTING
                if lifetime.prov == PROV_WRONG_PATH:
                    site = self._site_stats.get((lifetime.region, lifetime.pc))
                    if site is not None:
                        site[2] += 1
            if self._obs is not None:
                self._obs.emit(ATTRIB_POLLUTE, tu, block, prov, cycle=self.now)
        self._last_cause = (PROV_DEMAND, None)

    def on_wrong_fill(self, tu: int, block: int, latency: float) -> None:
        """A wrong-execution load filled ``block`` (into L1 or sidecar)."""
        prov = self._wrong_prov
        pc = self._wrong_pc if prov == PROV_WRONG_PATH else 0
        self._fills[prov] += 1
        self._region_row()[1] += 1
        if prov == PROV_WRONG_PATH:
            site = self._site_stats.setdefault((self.region, pc), [0, 0, 0])
            site[0] += 1
        self._evicted_by.pop((tu, block), None)
        lifetime = BlockLifetime(prov, tu, block, self.now, latency,
                                 self.region, pc)
        self._open[(tu, block)] = lifetime
        self._last_cause = (prov, lifetime)
        self._bucket()[0] += 1

    def on_prefetch_fill(self, tu: int, block: int, latency: float,
                         prov: int) -> None:
        """A prefetcher filled ``block`` into the sidecar.

        ``prov`` is :data:`PROV_NLP` (OBS002 enforces the named
        constant at call sites).
        """
        self._fills[prov] += 1
        self._evicted_by.pop((tu, block), None)
        lifetime = BlockLifetime(prov, tu, block, self.now, latency,
                                 self.region, 0)
        self._open[(tu, block)] = lifetime
        self._last_cause = (prov, lifetime)
        self._bucket()[0] += 1

    # -- use / movement hooks ----------------------------------------------

    def on_use(self, tu: int, block: int) -> None:
        """A correct-path access referenced ``block`` (L1 or sidecar hit)."""
        lifetime = self._open.pop((tu, block), None)
        if lifetime is None:
            # Demand-resident block (or pre-measurement state): the
            # attribution question was already settled.
            self._last_cause = (PROV_DEMAND, None)
            return
        gap = self.now - lifetime.fill_cycle
        outcome = _LATE if gap < lifetime.latency else _USEFUL
        lifetime.outcome = outcome
        prov = lifetime.prov
        self._closed[prov][outcome] += 1
        self._gap_hist[prov][_gap_bucket(gap)] += 1
        if prov in WRONG_PROVS:
            self._region_stats.setdefault(lifetime.region, [0, 0, 0, 0])[2] += 1
            if prov == PROV_WRONG_PATH:
                site = self._site_stats.get((lifetime.region, lifetime.pc))
                if site is not None:
                    site[1] += 1
        self._bucket()[1] += 1
        if self._obs is not None:
            self._obs.emit(ATTRIB_USE, tu, block, prov, cycle=self.now)
        self._last_cause = (prov, lifetime)

    def on_wrong_promote(self, tu: int, block: int) -> None:
        """A wrong-execution sidecar hit promoted ``block`` into the L1.

        Not a correct use — the open lifetime (if any) continues; this
        hook only marks the promoted block as the cause of the eviction
        its insertion is about to perform.
        """
        lifetime = self._open.get((tu, block))
        if lifetime is not None:
            self._last_cause = (lifetime.prov, lifetime)
        else:
            self._last_cause = (PROV_DEMAND, None)

    def on_demote(self, tu: int, block: int) -> None:
        """An L1 victim is being moved into the sidecar.

        A pending speculative lifetime survives the move (the flags do
        too); otherwise a fresh victim-cache lifetime opens — its later
        use is exactly Jouppi's victim-cache save — and remembers who
        displaced the block out of the L1, so a victim that dies unused
        still charges its *displacer*, not whatever later bumped it out
        of the sidecar.
        """
        key = (tu, block)
        lifetime = self._open.get(key)
        if lifetime is None:
            lifetime = BlockLifetime(PROV_VICTIM, tu, block, self.now, 0.0,
                                     self.region, 0)
            lifetime.demoted_by = self._last_cause
            self._open[key] = lifetime
            self._fills[PROV_VICTIM] += 1
        self._last_cause = (lifetime.prov, lifetime)

    def on_evict(self, tu: int, block: int, from_sidecar: bool = False) -> None:
        """``block`` left the L1+sidecar hierarchy entirely.

        ``from_sidecar`` marks sidecar bumps (vs direct L1 departures).
        Pollution eligibility follows the L1-displacement model of the
        module docstring: a direct L1 departure of settled demand state
        charges the insert that displaced it (:attr:`_last_cause`); a
        bumped victim charges its original L1 displacer; a speculative
        fill that dies unused charges nobody.
        """
        key = (tu, block)
        lifetime = self._open.pop(key, None)
        if lifetime is not None:
            outcome = _POLLUTING if lifetime.pollution else _UNUSED
            lifetime.outcome = outcome
            self._closed[lifetime.prov][outcome] += 1
            if lifetime.prov == PROV_VICTIM and lifetime.demoted_by is not None:
                self._evicted_by[key] = lifetime.demoted_by
            return
        if not from_sidecar:
            self._evicted_by[key] = self._last_cause

    # -- derived output ----------------------------------------------------

    def series(self) -> Dict[str, object]:
        """Per-window attribution counts (Perfetto counter tracks)."""
        starts: List[float] = []
        fills: List[int] = []
        uses: List[int] = []
        pollution: List[int] = []
        for idx in sorted(self._buckets):
            f, u, p = self._buckets[idx]
            starts.append(idx * self.window)
            fills.append(f)
            uses.append(u)
            pollution.append(p)
        return {
            "window": self.window,
            "window_start": starts,
            "spec_fills": fills,
            "useful_spec_uses": uses,
            "pollution_misses": pollution,
        }

    def summary(self, instructions: int = 0) -> Dict[str, object]:
        """Aggregate attribution report (JSON-friendly, pure read)."""
        open_by_prov = [0] * len(PROVENANCES)
        for lifetime in self._open.values():
            open_by_prov[lifetime.prov] += 1
        kilo = instructions / 1000.0

        def mpki(count: int) -> float:
            return count / kilo if kilo else 0.0

        demand_fills = self._fills[PROV_DEMAND]
        covered = {
            p: self._closed[p][_USEFUL] + self._closed[p][_LATE]
            for p in PROVENANCES
        }
        # Every useful/late speculative fill turned a would-be demand
        # miss into a hit: the coverage denominator is all correct-path
        # block demands that reached beyond the L1's own LRU residue.
        demand_denom = demand_fills + sum(covered[p] for p in SPECULATIVE_PROVS)

        per_source: Dict[str, Dict[str, object]] = {}
        for p in PROVENANCES:
            useful, late, unused, polluting = self._closed[p]
            fills = self._fills[p]
            per_source[PROV_NAMES[p]] = {
                "fills": fills,
                "useful": useful,
                "late": late,
                "unused": unused,
                "polluting": polluting,
                "open": open_by_prov[p],
                "pollution_misses": self._pollution[p],
                "accuracy": (useful + late) / fills if fills else 0.0,
                "coverage": covered[p] / demand_denom if demand_denom else 0.0,
                "pollution_mpki": mpki(self._pollution[p]),
                "gap_hist": {
                    "edges": list(GAP_EDGES),
                    "counts": list(self._gap_hist[p]),
                },
            }

        def aggregate(provs: Tuple[int, ...]) -> Dict[str, float]:
            fills = sum(self._fills[p] for p in provs)
            used = sum(covered[p] for p in provs)
            pollution = sum(self._pollution[p] for p in provs)
            polluting = sum(self._closed[p][_POLLUTING] for p in provs)
            return {
                "fills": fills,
                "useful": used,
                "polluting": polluting,
                "pollution_misses": pollution,
                "accuracy": used / fills if fills else 0.0,
                "coverage": used / demand_denom if demand_denom else 0.0,
                "polluting_mpki": mpki(pollution),
            }

        wrong = aggregate(WRONG_PROVS)
        prefetch = aggregate(PREFETCH_PROVS)
        spec_pollution = sum(
            self._pollution[p] for p in (*WRONG_PROVS, *PREFETCH_PROVS)
        )

        regions = [
            {
                "region": name,
                "demand_fills": row[0],
                "wrong_fills": row[1],
                "useful_wrong": row[2],
                "pollution_misses": row[3],
            }
            for name, row in sorted(
                self._region_stats.items(),
                key=lambda kv: (-kv[1][0], kv[0]),
            )
        ]
        sites = [
            {
                "region": region,
                "pc": pc,
                "wrong_fills": row[0],
                "useful": row[1],
                "pollution_misses": row[2],
            }
            for (region, pc), row in sorted(
                self._site_stats.items(),
                key=lambda kv: (-kv[1][0], kv[0]),
            )
        ]

        totals = {
            "fills": sum(self._fills),
            "useful": sum(c[_USEFUL] for c in self._closed),
            "late": sum(c[_LATE] for c in self._closed),
            "unused": sum(c[_UNUSED] for c in self._closed),
            "polluting": sum(c[_POLLUTING] for c in self._closed),
            "open": sum(open_by_prov),
            "pollution_misses": sum(self._pollution),
            "demand_fills": demand_fills,
            "demand_mpki": mpki(demand_fills),
            "instructions": instructions,
        }
        return {
            "per_source": per_source,
            "totals": totals,
            "wrong": wrong,
            "prefetch": prefetch,
            "metrics": {
                "wrong_coverage": wrong["coverage"],
                "wrong_accuracy": wrong["accuracy"],
                "wrong_polluting_mpki": wrong["polluting_mpki"],
                "prefetch_accuracy": prefetch["accuracy"],
                "polluting_mpki": mpki(spec_pollution),
                "demand_mpki": totals["demand_mpki"],
            },
            "regions": regions,
            "sites": sites,
            "series": self.series(),
        }


# ---------------------------------------------------------------------------
# Report rendering (`repro explain`, examples)
# ---------------------------------------------------------------------------

def _require_attribution(result) -> Dict:
    attribution = getattr(result, "attribution", None)
    if not attribution:
        raise AnalysisError(
            f"{result.benchmark}/{result.config}: result carries no "
            "attribution data (run with an AttributionCollector attached)"
        )
    return attribution


def hist_lines(name: str, hist: Dict[str, List]) -> List[str]:
    """Text histogram of one source's fill -> first-use gaps."""
    counts = hist["counts"]
    total = sum(counts)
    if not total:
        return []
    edges = hist["edges"]
    labels = []
    lo = 0.0
    for edge in edges:
        labels.append("same iter" if edge == 0.0 else f"{lo:>5.0f}-{edge:<5.0f}")
        lo = edge
    labels.append(f"{lo:>5.0f}+     ")
    width = max(counts)
    lines = [f"  {name}: fill -> first-use gap (cycles)"]
    for label, n in zip(labels, counts):
        bar = "#" * max(1, round(30 * n / width)) if n else ""
        lines.append(f"    {label:<12} {n:>7}  {bar}")
    return lines


def explain_report(result, top: int = 5) -> str:
    """Render one attributed run as a drill-down text report."""
    attribution = _require_attribution(result)
    per_source = attribution["per_source"]
    totals = attribution["totals"]
    wrong = attribution["wrong"]
    prefetch = attribution["prefetch"]
    lines = [
        f"{result.benchmark} on {result.config} ({result.n_tus} TUs, "
        f"scale {result.scale:g}, seed {result.seed})",
        f"  {result.total_cycles:.0f} cycles, ipc {result.ipc:.2f}, "
        f"{totals['demand_fills']} demand misses "
        f"({totals['demand_mpki']:.2f} MPKI), "
        f"{result.effective_misses} effective misses",
        "",
        "  fills by provenance (lifetimes: fill -> first correct use "
        "-> eviction):",
        "  {:<16} {:>7} {:>7} {:>6} {:>7} {:>9} {:>5} {:>9} {:>9}".format(
            "source", "fills", "useful", "late", "unused", "polluting",
            "open", "accuracy", "coverage",
        ),
    ]
    for prov in PROVENANCES:
        src = per_source[PROV_NAMES[prov]]
        if not src["fills"] and not src["open"]:
            continue
        lines.append(
            "  {:<16} {:>7} {:>7} {:>6} {:>7} {:>9} {:>5} {:>8.1%} {:>8.1%}".format(
                PROV_NAMES[prov], src["fills"], src["useful"], src["late"],
                src["unused"], src["polluting"], src["open"],
                src["accuracy"], src["coverage"],
            )
        )
    lines += [
        "",
        f"  wrong execution : coverage {wrong['coverage']:.1%}, "
        f"accuracy {wrong['accuracy']:.1%}, "
        f"{wrong['pollution_misses']} pollution misses "
        f"({wrong['polluting_mpki']:.2f} MPKI)",
        f"  prefetchers     : coverage {prefetch['coverage']:.1%}, "
        f"accuracy {prefetch['accuracy']:.1%}, "
        f"{prefetch['pollution_misses']} pollution misses "
        f"({prefetch['polluting_mpki']:.2f} MPKI)",
    ]
    gap_lines: List[str] = []
    for prov in SPECULATIVE_PROVS:
        src = per_source[PROV_NAMES[prov]]
        gap_lines += hist_lines(PROV_NAMES[prov], src["gap_hist"])
    if gap_lines:
        lines += ["", "  timeliness:"] + gap_lines

    regions = attribution["regions"][:top]
    if regions:
        lines += [
            "",
            f"  top {len(regions)} regions by demand misses:",
            "  {:<24} {:>8} {:>8} {:>8} {:>10}".format(
                "region", "misses", "wrongf", "usefulw", "pollution",
            ),
        ]
        for row in regions:
            lines.append(
                "  {:<24} {:>8} {:>8} {:>8} {:>10}".format(
                    row["region"], row["demand_fills"], row["wrong_fills"],
                    row["useful_wrong"], row["pollution_misses"],
                )
            )
    sites = attribution["sites"][:top]
    if sites:
        lines += [
            "",
            f"  top {len(sites)} wrong-path injection sites (by branch pc):",
            "  {:<24} {:>10} {:>8} {:>8} {:>10}".format(
                "region", "pc", "fills", "useful", "pollution",
            ),
        ]
        for row in sites:
            lines.append(
                "  {:<24} {:>10} {:>8} {:>8} {:>10}".format(
                    row["region"], f"0x{row['pc']:x}", row["wrong_fills"],
                    row["useful"], row["pollution_misses"],
                )
            )
    return "\n".join(lines)


def attribution_delta(a: Dict, b: Dict) -> Dict[str, object]:
    """Attribute the miss delta between two attributed runs (a vs b).

    Positive ``covered_delta`` means side *a* turned more would-be
    misses into hits from that source; positive ``pollution_delta``
    means side *a* suffered more pollution misses from it.
    """
    per: Dict[str, Dict[str, float]] = {}
    for prov in SPECULATIVE_PROVS:
        name = PROV_NAMES[prov]
        sa = a["per_source"][name]
        sb = b["per_source"][name]
        per[name] = {
            "fills_delta": sa["fills"] - sb["fills"],
            "covered_delta": (sa["useful"] + sa["late"])
            - (sb["useful"] + sb["late"]),
            "pollution_delta": sa["pollution_misses"] - sb["pollution_misses"],
        }
    return {
        "demand_misses_delta": a["totals"]["demand_fills"]
        - b["totals"]["demand_fills"],
        "per_source": per,
        "metrics": {
            key: a["metrics"][key] - b["metrics"][key]
            for key in a["metrics"]
            if key in b["metrics"]
        },
    }


def explain_vs_report(result_a, result_b, top: int = 5) -> str:
    """A/B drill-down: where does the miss-rate delta come from?"""
    a = _require_attribution(result_a)
    b = _require_attribution(result_b)
    delta = attribution_delta(a, b)
    ma, mb = a["metrics"], b["metrics"]
    ca, cb = result_a.config, result_b.config
    lines = [
        f"{result_a.benchmark}: {ca} vs {cb} ({result_a.n_tus} TUs, "
        f"scale {result_a.scale:g}, seed {result_a.seed})",
        "",
        "  {:<22} {:>14} {:>14} {:>12}".format("metric", ca[:14], cb[:14], "delta"),
    ]

    def row(label: str, va: float, vb: float, fmt: str) -> None:
        lines.append(
            "  {:<22} {:>14} {:>14} {:>12}".format(
                label, format(va, fmt), format(vb, fmt), format(va - vb, "+" + fmt)
            )
        )

    row("total cycles", result_a.total_cycles, result_b.total_cycles, ".0f")
    row("demand misses", a["totals"]["demand_fills"],
        b["totals"]["demand_fills"], ".0f")
    row("demand MPKI", ma["demand_mpki"], mb["demand_mpki"], ".2f")
    row("wrong coverage", ma["wrong_coverage"], mb["wrong_coverage"], ".1%")
    row("wrong accuracy", ma["wrong_accuracy"], mb["wrong_accuracy"], ".1%")
    row("wrong polluting MPKI", ma["wrong_polluting_mpki"],
        mb["wrong_polluting_mpki"], ".2f")
    row("spec polluting MPKI", ma["polluting_mpki"], mb["polluting_mpki"], ".2f")
    row("prefetch accuracy", ma["prefetch_accuracy"],
        mb["prefetch_accuracy"], ".1%")

    lines += [
        "",
        f"  miss delta attributed by provenance ({ca} minus {cb}):",
        "  {:<16} {:>12} {:>14} {:>16}".format(
            "source", "fills", "covered misses", "pollution misses",
        ),
    ]
    for name, d in delta["per_source"].items():
        if not any(d.values()):
            continue
        lines.append(
            "  {:<16} {:>+12.0f} {:>+14.0f} {:>+16.0f}".format(
                name, d["fills_delta"], d["covered_delta"], d["pollution_delta"],
            )
        )
    wa, wb = a["wrong"], b["wrong"]
    lines += [
        "",
        "  summary:",
        f"  - wrong-execution fills show useful coverage "
        f"{wa['coverage']:.1%} ({ca}) vs {wb['coverage']:.1%} ({cb})",
        f"  - wrong-execution polluting-fill MPKI "
        f"{wa['polluting_mpki']:.2f} ({ca}) vs "
        f"{wb['polluting_mpki']:.2f} ({cb})"
        + (
            f" — {ca} absorbs the pollution"
            if wa["polluting_mpki"] < wb["polluting_mpki"]
            else ""
        ),
        f"  - demand-miss delta {delta['demand_misses_delta']:+.0f} "
        f"({ca} minus {cb})",
    ]
    return "\n".join(lines)
