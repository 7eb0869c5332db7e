"""Tests for the simulation driver, results and sweeps."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import weakref

import pytest

from repro.common.config import SimParams
from repro.common.errors import AnalysisError, SimulationError
from repro.mem.l2 import SharedL2
from repro.obs.attrib import AttributionCollector
from repro.obs.tracer import IntervalMetrics
from repro.sim.driver import ENGINES, run_program, run_simulation
from repro.sim.fast.engine import _FastL2
from repro.sim.results import RUN_IDENTITIES, SimResult, require_same_workload
from repro.sim.sweep import (
    benchmarks_of,
    run_grid,
)
from repro.sta.configs import named_config
from repro.workloads.benchmarks import build_benchmark

SCALE = 3e-5
PARAMS = SimParams(seed=9, scale=SCALE, warmup_invocations=1)


@pytest.fixture(scope="module")
def mcf_orig():
    return run_simulation("181.mcf", named_config("orig"), PARAMS)


@pytest.fixture(scope="module")
def mcf_wec():
    return run_simulation("181.mcf", named_config("wth-wp-wec"), PARAMS)


class TestDriver:
    def test_accepts_name_or_program(self):
        prog = build_benchmark("175.vpr", SCALE)
        by_name = run_simulation("175.vpr", named_config("orig"), PARAMS)
        by_prog = run_program(prog, named_config("orig"), PARAMS)
        assert by_name.total_cycles == pytest.approx(by_prog.total_cycles)

    def test_deterministic(self):
        a = run_simulation("164.gzip", named_config("orig"), PARAMS)
        b = run_simulation("164.gzip", named_config("orig"), PARAMS)
        assert a.total_cycles == b.total_cycles
        assert a.counters == b.counters

    def test_result_fields_consistent(self, mcf_orig):
        r = mcf_orig
        assert r.benchmark == "181.mcf"
        assert r.config == "orig"
        assert r.n_tus == 8
        assert r.total_cycles == pytest.approx(
            r.parallel_cycles + r.sequential_cycles
        )
        assert r.instructions > 0
        assert 0 < r.ipc < 64
        assert r.l1_traffic > 0
        assert r.effective_misses <= r.l1_misses

    def test_orig_has_no_wrong_loads(self, mcf_orig):
        assert mcf_orig.wrong_loads == 0
        assert mcf_orig.wrong_thread_loads == 0

    def test_wec_has_wrong_loads(self, mcf_wec):
        assert mcf_wec.wrong_loads > 0
        assert mcf_wec.wrong_thread_loads > 0
        assert mcf_wec.sidecar_hits > 0

    def test_warmup_reduces_measured_work(self):
        no_wu = run_simulation(
            "175.vpr", named_config("orig"),
            SimParams(seed=9, scale=SCALE, warmup_invocations=0),
        )
        wu = run_simulation(
            "175.vpr", named_config("orig"),
            SimParams(seed=9, scale=SCALE, warmup_invocations=1),
        )
        # One of four invocations excluded: ~3/4 the instructions.
        assert wu.instructions < no_wu.instructions
        assert wu.instructions == pytest.approx(no_wu.instructions * 0.75, rel=0.1)

    def test_warmup_capped_below_invocations(self):
        r = run_simulation(
            "175.vpr", named_config("orig"),
            SimParams(seed=9, scale=SCALE, warmup_invocations=100),
        )
        assert r.total_cycles > 0  # at least one timed invocation remains

    def test_record_regions(self):
        r = run_simulation(
            "175.vpr", named_config("orig"),
            SimParams(seed=9, scale=SCALE, record_regions=True),
        )
        assert r.region_cycles
        kinds = {rec["kind"] for rec in r.region_cycles}
        assert kinds == {"parallel", "sequential"}


class TestRunIsFreed:
    """A finished run is freed by reference counting, on both engines.

    Left to the cycle collector, a run's caches, shared L2 and
    collectors wait for a full collection, which a process making many
    runs seldom makes.  So each case runs with the collector off and
    checks, through a weak reference, that the run's shared L2 is gone
    as soon as ``run_program`` returns or raises.
    """

    #: Where each engine's machine looks up the class of its shared L2.
    L2_CLASS = {
        "oracle": ("repro.sta.machine.SharedL2", SharedL2),
        "fast": ("repro.sim.fast.engine._FastL2", _FastL2),
    }

    def _watch_l2(self, monkeypatch, engine):
        """Weak references to the shared L2 of each machine built."""
        target, base = self.L2_CLASS[engine]
        refs = []

        class Watched(base):
            __slots__ = ("__weakref__",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(target, Watched)
        return refs

    @pytest.mark.parametrize("raises", [False, True], ids=["returned", "raised"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_l2_is_freed(self, monkeypatch, engine, raises):
        refs = self._watch_l2(monkeypatch, engine)
        if raises:
            def fail(*args, **kwargs):
                raise SimulationError("injected")

            monkeypatch.setattr(SimResult, "from_counters", fail)
        program = build_benchmark("181.mcf", SCALE)
        gc.collect()
        gc.disable()
        try:
            with (pytest.raises(SimulationError, match="injected") if raises
                  else contextlib.nullcontext()):
                run_program(program, named_config("wth-wp-wec"), PARAMS,
                            engine=engine)
            assert len(refs) == 1
            assert refs[0]() is None, "the finished run's L2 is still alive"
        finally:
            gc.enable()


class TestSimResultMath:
    def test_speedups(self, mcf_orig, mcf_wec):
        s = mcf_wec.speedup_vs(mcf_orig)
        pct = mcf_wec.relative_speedup_pct_vs(mcf_orig)
        assert pct == pytest.approx((s - 1) * 100)
        assert mcf_wec.normalized_time_vs(mcf_orig) == pytest.approx(1 / s)

    def test_traffic_and_missred(self, mcf_orig, mcf_wec):
        assert mcf_wec.traffic_increase_pct_vs(mcf_orig) > 0
        assert mcf_wec.miss_reduction_pct_vs(mcf_orig) > 0

    def test_cross_benchmark_comparison_rejected(self, mcf_orig):
        other = run_simulation("175.vpr", named_config("orig"), PARAMS)
        with pytest.raises(AnalysisError):
            other.speedup_vs(mcf_orig)

    def test_cross_seed_comparison_rejected(self, mcf_orig):
        other = run_simulation(
            "181.mcf", named_config("orig"), SimParams(seed=10, scale=SCALE)
        )
        with pytest.raises(AnalysisError):
            require_same_workload(other, mcf_orig)

    def test_serialization_roundtrip(self, mcf_orig):
        data = mcf_orig.to_dict()
        back = SimResult.from_dict(data)
        assert back.total_cycles == mcf_orig.total_cycles
        assert back.counters == mcf_orig.counters
        assert "181.mcf" in json.dumps(data)

    def test_nonpositive_cycles_rejected(self):
        with pytest.raises(AnalysisError):
            SimResult("b", "c", 1, 0.0, 0.0, 0.0, 10)


#: A two-TU counter dump that keeps every run identity.
COUNTERS = {
    "tu0.core.instructions": 10, "tu1.core.instructions": 20,
    "tu0.core.iterations": 2, "tu1.core.iterations": 3,
    "tu0.membuf.writebacks": 2, "tu1.membuf.writebacks": 3,
    "tu0.core.wrong_threads": 1, "tu0.membuf.aborts": 1,
    "tu0.core.wrong_path_loads": 1, "tu1.core.wrong_path_loads": 1,
    "tu0.core.wrong_thread_loads": 3,
    "tu0.mem.wrong_loads": 4, "tu1.mem.wrong_loads": 1,
    "tu0.mem.wrong_fills": 3, "tu0.mem.wrong_sidecar_hits": 1,
    "tu1.mem.wrong_l1_hits": 1,
    "tu0.mem.loads": 5, "tu1.mem.loads": 6, "tu1.mem.stores": 2,
    "tu0.mem.l1_hits": 2, "tu1.mem.l1_hits": 4,
    "tu0.mem.l1_misses": 3, "tu1.mem.l1_misses": 4,
    "tu0.mem.demand_fills": 2, "tu1.mem.demand_fills": 3,
    "tu0.mem.sidecar_hits": 1, "tu1.mem.sidecar_hits": 1,
    "tu0.mem.prefetches": 8,
    "tu1.mem.useful_wrong_hits": 1, "tu0.mem.useful_prefetch_hits": 2,
    "tu0.bpred.branches": 30, "tu1.bpred.mispredicts": 4,
    "l2.accesses": 9, "l2.misses": 6,
    # Outside the machine's two TUs, so no headline or identity reads it.
    "tu2.mem.loads": 100,
}


def from_counters(counters, records=None):
    cfg = dataclasses.replace(named_config("wth-wp-wec"), n_thread_units=2)
    return cfg, SimResult.from_counters(
        build_benchmark("181.mcf", SCALE), cfg, PARAMS,
        (100.0, 60.0, 40.0, records or []), counters,
    )


class TestFromCounters:
    def test_headline_fields_sum_counter_keys(self):
        counters = dict(COUNTERS)
        records = [{"name": "r", "kind": "parallel", "invocation": 1,
                    "cycles": 60.0, "iterations": 4}]
        cfg, r = from_counters(counters, records)
        assert (r.benchmark, r.config, r.n_tus) == ("181.mcf", cfg.name, 2)
        assert (r.total_cycles, r.parallel_cycles, r.sequential_cycles) == (
            100.0, 60.0, 40.0)
        assert (r.seed, r.scale) == (PARAMS.seed, PARAMS.scale)
        assert r.region_cycles is records
        assert r.counters is counters
        assert r.instructions == 30
        assert r.l1_traffic == 5 + 6 + 2 + 4 + 1  # wrong loads included
        assert (r.l1_misses, r.effective_misses, r.sidecar_hits) == (7, 5, 2)
        assert (r.wrong_loads, r.wrong_thread_loads) == (5, 3)
        assert (r.prefetches, r.useful_wrong_hits,
                r.useful_prefetch_hits) == (8, 1, 2)
        assert (r.branches, r.mispredicts) == (30, 4)
        assert (r.l2_accesses, r.l2_misses) == (9, 6)
        assert r.interval_series is None and r.attribution is None

    @pytest.mark.parametrize("name,lhs,rhs", RUN_IDENTITIES,
                             ids=[name.replace(" ", "-")
                                  for name, _, _ in RUN_IDENTITIES])
    def test_broken_identity_raises_naming_it_and_the_tu(self, name, lhs,
                                                         rhs):
        # Bump a key no other identity reads, so only this one breaks.
        others = {key for other, left, right in RUN_IDENTITIES
                  if other != name for key in left + right}
        key = next(key for key in lhs + rhs if key not in others)
        counters = dict(COUNTERS)
        counters[f"tu1.{key}"] = counters.get(f"tu1.{key}", 0) + 1
        left = sum(counters.get(f"tu1.{k}", 0) for k in lhs)
        right = sum(counters.get(f"tu1.{k}", 0) for k in rhs)
        with pytest.raises(SimulationError) as exc:
            from_counters(counters)
        assert str(exc.value) == (
            f"181.mcf/wth-wp-wec: tu1 breaks the {name!r} identity: "
            f"{' + '.join(lhs)} = {left}, {' + '.join(rhs)} = {right}"
        )


class TestToDict:
    """``to_dict`` builds its dict field by field; it must equal asdict()."""

    @staticmethod
    def _check(result):
        got = result.to_dict()
        want = dataclasses.asdict(result)
        assert got == want
        assert list(got) == list(want)
        # Copies, never views into the result.
        assert got["counters"] is not result.counters
        assert got["region_cycles"] is not result.region_cycles
        for copy, orig in zip(got["region_cycles"], result.region_cycles):
            assert copy is not orig
        for name in ("interval_series", "attribution"):
            value = getattr(result, name)
            if value is not None:
                assert got[name] is not value
        return got

    def test_fast_engine_result(self):
        result = run_simulation("181.mcf", named_config("wth-wp-wec"),
                                PARAMS, engine="fast")
        got = self._check(result)
        assert got["interval_series"] is None and got["attribution"] is None

    def test_oracle_result_with_attribution_and_interval_series(self):
        result = run_simulation(
            "181.mcf", named_config("wth-wp-wec"),
            SimParams(seed=9, scale=1e-5),
            tracer=IntervalMetrics(window=500.0),
            attrib=AttributionCollector(),
        )
        assert result.interval_series and result.attribution
        got = self._check(result)
        nested = next(iter(got["attribution"]["per_source"].values()))
        assert nested is not next(
            iter(result.attribution["per_source"].values()))

    def test_result_with_record_regions(self):
        result = run_simulation(
            "175.vpr", named_config("orig"),
            SimParams(seed=9, scale=SCALE, record_regions=True),
            engine="fast",
        )
        assert result.region_cycles
        self._check(result)


class TestSweep:
    def test_run_grid(self):
        grid = run_grid(
            {"orig": named_config("orig"), "vc": named_config("vc")},
            benchmarks=["175.vpr", "164.gzip"],
            params=PARAMS,
        )
        assert len(grid) == 4
        assert benchmarks_of(grid) == ["175.vpr", "164.gzip"]
        assert list(grid) == [("175.vpr", "orig"), ("175.vpr", "vc"),
                              ("164.gzip", "orig"), ("164.gzip", "vc")]

    def test_empty_axis_rejected(self):
        with pytest.raises(AnalysisError):
            run_grid({}, benchmarks=["175.vpr"], params=PARAMS)

    def test_progress_callback(self):
        calls = []
        run_grid(
            {"orig": named_config("orig")},
            benchmarks=["175.vpr"],
            params=PARAMS,
            progress=lambda b, l: calls.append((b, l)),
        )
        assert calls == [("175.vpr", "orig")]
