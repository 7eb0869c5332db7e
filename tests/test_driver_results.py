"""Tests for the simulation driver, results and sweeps."""

from __future__ import annotations

import pytest

from repro.common.config import SimParams
from repro.common.errors import AnalysisError
from repro.sim.driver import run_program, run_simulation
from repro.sim.results import SimResult, require_same_workload
from repro.sim.sweep import (
    benchmarks_of,
    labels_of,
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
        assert "181.mcf" in mcf_orig.to_json()

    def test_nonpositive_cycles_rejected(self):
        with pytest.raises(AnalysisError):
            SimResult("b", "c", 1, 0.0, 0.0, 0.0, 10)


class TestSweep:
    def test_run_grid(self):
        grid = run_grid(
            {"orig": named_config("orig"), "vc": named_config("vc")},
            benchmarks=["175.vpr", "164.gzip"],
            params=PARAMS,
        )
        assert len(grid) == 4
        assert benchmarks_of(grid) == ["175.vpr", "164.gzip"]
        assert labels_of(grid) == ["orig", "vc"]

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
