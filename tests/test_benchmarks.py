"""Tests for the six SPEC2000-like benchmark models."""

from __future__ import annotations

import pytest

from repro.common.errors import WorkloadError
from repro.common.rng import StreamFactory
from repro.workloads.benchmarks import (
    BENCHMARK_INFO,
    BENCHMARK_NAMES,
    N_INVOCATIONS,
    benchmark_infos,
    build_benchmark,
)
from repro.workloads.program import ParallelRegionSpec, SequentialRegionSpec
from repro.workloads.tracegen import TraceGenerator

SCALE = 5e-5  # small builds for fast tests


class TestRegistry:
    def test_six_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 6
        assert set(BENCHMARK_NAMES) == {
            "175.vpr", "164.gzip", "181.mcf", "197.parser",
            "183.equake", "177.mesa",
        }

    def test_short_names_resolve(self):
        assert build_benchmark("mcf", SCALE).name == "181.mcf"
        assert build_benchmark("vpr", SCALE).name == "175.vpr"

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            build_benchmark("482.sphinx3", SCALE)

    def test_bad_scale(self):
        with pytest.raises(WorkloadError):
            build_benchmark("mcf", 0.0)
        with pytest.raises(WorkloadError):
            build_benchmark("mcf", 2.0)

    def test_infos_order_and_table2_values(self):
        infos = benchmark_infos()
        assert [i.name for i in infos] == list(BENCHMARK_NAMES)
        mcf = BENCHMARK_INFO["181.mcf"]
        assert mcf.whole_minstr == 601.6
        assert mcf.targeted_minstr == 217.3
        assert mcf.input_set == "MinneSPEC large"
        assert mcf.fraction_parallelized == pytest.approx(0.361, abs=0.001)

    def test_table1_transformations_present(self):
        paper_three = {
            "loop coalescing",
            "loop unrolling",
            "statement reordering to increase overlap",
        }
        for info in benchmark_infos():
            assert len(info.transformations) >= 1
            assert set(info.transformations) <= paper_three


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestEachBenchmark:
    def test_builds_and_validates(self, name):
        prog = build_benchmark(name, SCALE)
        assert prog.n_invocations == N_INVOCATIONS
        assert prog.parallel_regions, "every benchmark has a parallel loop"
        assert prog.sequential_regions, "every benchmark has sequential glue"

    def test_traces_generate(self, name):
        prog = build_benchmark(name, SCALE)
        tg = TraceGenerator(StreamFactory(3))
        for region in prog.body:
            if isinstance(region, ParallelRegionSpec):
                t = tg.iteration_trace(region, 0)
            else:
                t = tg.chunk_trace(region, 0)
            assert t.n_instr > 0
            assert t.n_loads > 0

    def test_wrong_execution_configured(self, name):
        prog = build_benchmark(name, SCALE)
        for region in prog.parallel_regions:
            assert region.pollution_pattern is not None
            assert region.wrong_exec.wp_max_loads > 0

    def test_instruction_budget_tracks_table2(self, name):
        """Dynamic instructions per run should be within 2x of the
        Table-2 budget at the build scale (CFG walks are stochastic)."""
        prog = build_benchmark(name, 2e-4)
        tg = TraceGenerator(StreamFactory(3))
        total = 0.0
        for region in prog.body:
            per = tg.estimate_iteration_cost(region, n_samples=16)
            if isinstance(region, ParallelRegionSpec):
                total += per * region.iters_per_invocation * prog.n_invocations
            else:
                total += per * region.chunks_per_invocation * prog.n_invocations
        expected = prog.info.whole_minstr * 1e6 * 2e-4
        assert 0.5 * expected < total < 2.0 * expected

    def test_parallel_fraction_tracks_table2(self, name):
        prog = build_benchmark(name, 2e-4)
        tg = TraceGenerator(StreamFactory(3))
        par = seq = 0.0
        for region in prog.body:
            per = tg.estimate_iteration_cost(region, n_samples=16)
            if isinstance(region, ParallelRegionSpec):
                par += per * region.iters_per_invocation
            else:
                seq += per * region.chunks_per_invocation
        measured = par / (par + seq)
        expected = prog.info.fraction_parallelized
        assert abs(measured - expected) < 0.15

    def test_footprints_disjoint(self, name):
        """Data patterns within one benchmark must not overlap each other.

        Pollution patterns are exempt: some deliberately alias the
        benchmark's own structures (off-path loads touch the same data).
        """
        prog = build_benchmark(name, SCALE)
        spans = []
        for region in prog.body:
            for pat in region.patterns.values():
                if "pollute" in pat.name:
                    continue
                spans.append((pat.base, pat.base + pat.size, pat.name))
        spans.sort()
        for (lo1, hi1, n1), (lo2, hi2, n2) in zip(spans, spans[1:]):
            if n1 == n2:
                continue  # shared pattern across regions
            assert hi1 <= lo2, f"{n1} overlaps {n2}"


class TestCharacterDifferences:
    def test_mcf_is_chase_heavy(self):
        from repro.workloads.patterns import PointerChasePattern

        prog = build_benchmark("181.mcf", SCALE)
        kinds = {
            type(p).__name__
            for r in prog.body
            for p in r.patterns.values()
        }
        assert "PointerChasePattern" in kinds

    def test_vpr_has_highest_coupling(self):
        couplings = {}
        for name in BENCHMARK_NAMES:
            prog = build_benchmark(name, SCALE)
            couplings[name] = max(r.dep_coupling for r in prog.parallel_regions)
        assert couplings["175.vpr"] == max(couplings.values())

    def test_gzip_has_lowest_coupling(self):
        prog = build_benchmark("164.gzip", SCALE)
        assert all(r.dep_coupling <= 0.05 for r in prog.parallel_regions)

    def test_fp_codes_use_fp_instructions(self):
        from repro.isa.instructions import InstrClass
        from repro.common.rng import StreamFactory

        for name in ("183.equake", "177.mesa"):
            prog = build_benchmark(name, SCALE)
            tg = TraceGenerator(StreamFactory(1))
            region = prog.parallel_regions[0]
            t = tg.iteration_trace(region, 0)
            assert t.mix.count(InstrClass.FPALU) > 0
