"""Simulation results: per-run records and derived metrics.

A :class:`SimResult` captures everything one (benchmark, configuration)
run produced: cycle counts split by region kind, the full counter dump,
and the headline memory-system metrics the paper's figures are built
from.  Comparison helpers implement the exact quantities plotted:
relative speedup (Figures 9–12, 15, 16), normalized execution time
(Figures 13, 14), and the Figure 17 traffic/miss deltas.

Both engines make their results here, in one way: :func:`run_regions`
is the one region loop (warm-up, cycle sums, region records, host
profiling), and :meth:`SimResult.from_counters` checks the counter dump
against :data:`RUN_IDENTITIES` and derives every headline number from
it.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..common.config import MachineConfig, SimParams
from ..common.errors import AnalysisError, SimulationError
from ..common.stats import normalized_time, relative_speedup_pct, speedup
from ..workloads.program import ParallelRegionSpec, Program

__all__ = [
    "RUN_IDENTITIES", "SimResult", "require_same_workload", "run_regions",
]

#: What :func:`run_regions` measures: total, parallel-region and
#: sequential-region cycles, and the ``record_regions`` records.
RegionCycles = Tuple[float, float, float, List[Dict]]

#: The counter identities each thread unit's dump satisfies on both
#: engines, checked on every result (docs/STATIC_ANALYSIS.md, "Run
#: invariants"): a name, then the ``tu{i}.*`` keys summed on each side.
RUN_IDENTITIES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    # Every wrong load comes from a wrong path or a wrong thread ...
    ("wrong split", ("core.wrong_path_loads", "core.wrong_thread_loads"),
     ("mem.wrong_loads",)),
    # ... and is served by the L1D, the sidecar or a fill.
    ("wrong service", ("mem.wrong_loads",),
     ("mem.wrong_l1_hits", "mem.wrong_sidecar_hits", "mem.wrong_fills")),
    # A correct-path L1D miss is a sidecar hit or a demand fill.
    ("miss service", ("mem.l1_misses",),
     ("mem.demand_fills", "mem.sidecar_hits")),
    # Every correct-path access hits or misses in the L1D.
    ("access split", ("mem.loads", "mem.stores"),
     ("mem.l1_hits", "mem.l1_misses")),
    # Every wrong thread ends in an abort and never writes back (§3.1.2):
    # only a parallel iteration commits its speculative buffer.
    ("wrong threads abort", ("membuf.aborts",), ("core.wrong_threads",)),
    ("only iterations commit", ("membuf.writebacks",), ("core.iterations",)),
)


@dataclass
class SimResult:
    """The outcome of simulating one benchmark on one machine config."""

    benchmark: str
    config: str
    n_tus: int
    total_cycles: float
    parallel_cycles: float
    sequential_cycles: float
    instructions: int
    # Memory-system headline numbers (summed across TUs):
    l1_traffic: int = 0
    l1_misses: int = 0
    effective_misses: int = 0
    wrong_loads: int = 0
    wrong_thread_loads: int = 0
    sidecar_hits: int = 0
    prefetches: int = 0
    useful_wrong_hits: int = 0
    useful_prefetch_hits: int = 0
    branches: int = 0
    mispredicts: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    #: Full flattened counter dump for deep inspection.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Optional per-region timing detail (``SimParams.record_regions``).
    region_cycles: List[Dict] = field(default_factory=list)
    seed: int = 0
    scale: float = 0.0
    #: Per-window metric series (``repro.obs.IntervalMetrics``); None
    #: unless the run was traced with an interval collector attached.
    interval_series: Optional[Dict] = None
    #: Provenance/lifetime attribution summary
    #: (``repro.obs.attrib.AttributionCollector.summary()``); None unless
    #: the run carried an attribution collector.
    attribution: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.total_cycles <= 0:
            raise AnalysisError(
                f"{self.benchmark}/{self.config}: non-positive cycle count"
            )

    @classmethod
    def from_counters(
        cls,
        program: Program,
        config: MachineConfig,
        params: SimParams,
        cycles: RegionCycles,
        counters: Dict[str, int],
    ) -> "SimResult":
        """The result of one run, from its cycles and its counter dump.

        ``cycles`` is what :func:`run_regions` returned and ``counters``
        the machine's flattened counters.  Every headline number is a
        sum of counter keys, read directly (``tu{i}.core.*``,
        ``tu{i}.mem.*``, ``tu{i}.bpred.*`` per thread unit, and
        ``l2.*``), so both engines derive it in this one place.  A dump
        that breaks one of :data:`RUN_IDENTITIES` raises
        :class:`SimulationError`.
        """
        n_tus = config.n_thread_units
        _check_identities(f"{program.name}/{config.name}", n_tus, counters)

        def per_tu(key: str) -> int:
            return sum(counters.get(f"tu{i}.{key}", 0) for i in range(n_tus))

        total, parallel, sequential, records = cycles
        wrong_loads = per_tu("mem.wrong_loads")
        return cls(
            benchmark=program.name,
            config=config.name,
            n_tus=n_tus,
            total_cycles=total,
            parallel_cycles=parallel,
            sequential_cycles=sequential,
            instructions=per_tu("core.instructions"),
            # Processor↔L1D traffic (Figure 17): wrong loads included.
            l1_traffic=per_tu("mem.loads") + per_tu("mem.stores") + wrong_loads,
            l1_misses=per_tu("mem.l1_misses"),
            # Correct-path misses serviced beyond the L1 and its sidecar.
            effective_misses=per_tu("mem.demand_fills"),
            wrong_loads=wrong_loads,
            wrong_thread_loads=per_tu("core.wrong_thread_loads"),
            sidecar_hits=per_tu("mem.sidecar_hits"),
            prefetches=per_tu("mem.prefetches"),
            useful_wrong_hits=per_tu("mem.useful_wrong_hits"),
            useful_prefetch_hits=per_tu("mem.useful_prefetch_hits"),
            branches=per_tu("bpred.branches"),
            mispredicts=per_tu("bpred.mispredicts"),
            l2_accesses=counters.get("l2.accesses", 0),
            l2_misses=counters.get("l2.misses", 0),
            counters=counters,
            region_cycles=records,
            seed=params.seed,
            scale=params.scale,
        )

    # -- paper metrics ---------------------------------------------------

    def speedup_vs(self, baseline: "SimResult") -> float:
        """Speedup of *this* run relative to ``baseline`` (>1 = faster)."""
        require_same_workload(self, baseline)
        return speedup(baseline.total_cycles, self.total_cycles)

    def relative_speedup_pct_vs(self, baseline: "SimResult") -> float:
        """Percent speedup, as plotted in Figures 9–12, 15 and 16."""
        require_same_workload(self, baseline)
        return relative_speedup_pct(baseline.total_cycles, self.total_cycles)

    def parallel_speedup_vs(self, baseline: "SimResult") -> float:
        """Speedup over the parallelized portions only (Figure 8)."""
        require_same_workload(self, baseline)
        if self.parallel_cycles <= 0 or baseline.parallel_cycles <= 0:
            raise AnalysisError("no parallel-region cycles recorded")
        return baseline.parallel_cycles / self.parallel_cycles

    def normalized_time_vs(self, baseline: "SimResult") -> float:
        """Execution time normalized to ``baseline`` (Figures 13, 14)."""
        require_same_workload(self, baseline)
        return normalized_time(baseline.total_cycles, self.total_cycles)

    def traffic_increase_pct_vs(self, baseline: "SimResult") -> float:
        """Figure 17: percent increase in processor↔L1D traffic."""
        require_same_workload(self, baseline)
        if baseline.l1_traffic <= 0:
            raise AnalysisError("baseline recorded no L1 traffic")
        return (self.l1_traffic - baseline.l1_traffic) / baseline.l1_traffic * 100.0

    def miss_reduction_pct_vs(self, baseline: "SimResult") -> float:
        """Figure 17: percent reduction in (effective) L1D miss count.

        A miss here is a correct-path access that had to be serviced
        beyond the L1 *and* its parallel sidecar — an L1 miss that hits
        in the WEC behaves as a hit (§3.2.1) and is not counted.
        """
        require_same_workload(self, baseline)
        if baseline.effective_misses <= 0:
            raise AnalysisError("baseline recorded no misses")
        return (
            (baseline.effective_misses - self.effective_misses)
            / baseline.effective_misses
            * 100.0
        )

    @property
    def ipc(self) -> float:
        """Aggregate committed instructions per cycle."""
        return self.instructions / self.total_cycles if self.total_cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def l1_miss_rate(self) -> float:
        """Correct-path L1D misses per correct-path L1D access."""
        return self.l1_misses / self.l1_traffic if self.l1_traffic else 0.0

    @property
    def wec_hit_rate(self) -> float:
        """Fraction of L1D misses absorbed by the sidecar (WEC/VC/PB)."""
        return self.sidecar_hits / self.l1_misses if self.l1_misses else 0.0

    def sim_metrics(self) -> Dict[str, float]:
        """The deterministic headline metrics the perf ledger records.

        Keys match :data:`repro.obs.compare.METRICS` entries with
        ``source == "sim"`` (``speedup_pct`` is added by the recorder
        when a baseline ran alongside).
        """
        out = {
            "total_cycles": float(self.total_cycles),
            "instructions": float(self.instructions),
            "ipc": self.ipc,
            "l1_miss_rate": self.l1_miss_rate,
            "wec_hit_rate": self.wec_hit_rate,
            "effective_misses": float(self.effective_misses),
            "mispredict_rate": self.mispredict_rate,
            "wrong_loads": float(self.wrong_loads),
        }
        if self.attribution:
            # Attributed runs additionally expose the prefetch-taxonomy
            # headlines, so the ledger / `repro perf compare` can diff
            # coverage, accuracy and pollution across configs.
            metrics = self.attribution.get("metrics", {})
            for key in (
                "wrong_coverage",
                "wrong_accuracy",
                "prefetch_accuracy",
                "polluting_mpki",
            ):
                if key in metrics:
                    out[key] = float(metrics[key])
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable), fields in declaration order.

        Equal to ``dataclasses.asdict(self)`` without its recursive deep
        copy of every field: the scalars are immutable, ``counters`` and
        each ``region_cycles`` record hold only scalars, so shallow
        copies suffice; the nested ``interval_series`` and
        ``attribution`` are deep-copied when set.
        """
        out = {name: getattr(self, name) for name in _FIELD_NAMES}
        out["counters"] = dict(self.counters)
        out["region_cycles"] = [dict(r) for r in self.region_cycles]
        if self.interval_series is not None:
            out["interval_series"] = copy.deepcopy(self.interval_series)
        if self.attribution is not None:
            out["attribution"] = copy.deepcopy(self.attribution)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        return cls(**data)

    def __repr__(self) -> str:
        return (
            f"SimResult({self.benchmark} on {self.config}/{self.n_tus}TU: "
            f"{self.total_cycles:.0f} cycles, ipc={self.ipc:.2f}, "
            f"misses={self.effective_misses})"
        )


#: ``SimResult``'s field names in declaration order (``to_dict``'s keys).
_FIELD_NAMES = tuple(f.name for f in fields(SimResult))


def run_regions(
    program: Program,
    params: SimParams,
    scheduler,
    machine,
    profiler=None,
    attrib=None,
) -> RegionCycles:
    """Run ``program``'s region schedule: the region loop of both engines.

    ``scheduler`` runs one region invocation: its
    ``run_parallel_region`` and ``run_sequential_region`` both return
    ``(cycles, iterations)``, the invocation's cycles and its iteration
    count.  ``machine`` zeroes its counters when the warm-up ends
    (``reset_statistics``), and so does the oracle's attribution
    collector ``attrib``.  The oracle passes its scheduler and machine,
    the fast engine its one machine as both.  A host ``profiler`` times
    each invocation into ``scheduler.parallel`` or
    ``scheduler.sequential``.

    Returns the measured cycles (see :data:`RegionCycles`) for
    :meth:`SimResult.from_counters`.
    """
    total = 0.0
    par_cycles = 0.0
    seq_cycles = 0.0
    region_records: List[Dict] = []

    warmup = min(params.warmup_invocations, program.n_invocations - 1)
    stats_live = warmup == 0

    perf_clock = (  # lint: allow(DET001 host profiling; never feeds sim state)
        time.perf_counter if profiler is not None else None
    )

    for invocation, region in program.schedule():
        if not stats_live and invocation >= warmup:
            # Warm-up complete: measure from warmed state.
            machine.reset_statistics()
            if attrib is not None:
                attrib.reset_measurement()
            stats_live = True
        if isinstance(region, ParallelRegionSpec):
            kind, run = "parallel", scheduler.run_parallel_region
        else:
            kind, run = "sequential", scheduler.run_sequential_region
        t0 = perf_clock() if perf_clock is not None else 0.0
        cycles, iterations = run(region, invocation)
        if perf_clock is not None:
            profiler.add(f"scheduler.{kind}", perf_clock() - t0)
        if not stats_live:
            continue
        total += cycles
        if kind == "parallel":
            par_cycles += cycles
        else:
            seq_cycles += cycles
        if params.record_regions:
            region_records.append(
                {
                    "name": region.name,
                    "kind": kind,
                    "invocation": invocation,
                    "cycles": cycles,
                    "iterations": iterations,
                }
            )
    return total, par_cycles, seq_cycles, region_records


def _check_identities(run: str, n_tus: int, counters: Dict[str, int]) -> None:
    """Raise :class:`SimulationError` on the first identity a TU breaks."""
    get = counters.get
    for i in range(n_tus):
        tu = f"tu{i}."
        for name, lhs, rhs in RUN_IDENTITIES:
            left = sum(get(tu + key, 0) for key in lhs)
            right = sum(get(tu + key, 0) for key in rhs)
            if left != right:
                raise SimulationError(
                    f"{run}: tu{i} breaks the {name!r} identity: "
                    f"{' + '.join(lhs)} = {left}, "
                    f"{' + '.join(rhs)} = {right}"
                )


def require_same_workload(a: SimResult, b: SimResult) -> None:
    """Guard against comparing runs of different benchmarks or scales."""
    if a.benchmark != b.benchmark:
        raise AnalysisError(
            f"cannot compare different benchmarks: {a.benchmark} vs {b.benchmark}"
        )
    if a.seed != b.seed or a.scale != b.scale:
        raise AnalysisError(
            f"{a.benchmark}: runs used different seed/scale "
            f"({a.seed}/{a.scale} vs {b.seed}/{b.scale})"
        )
