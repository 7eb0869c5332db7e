"""Differential and unit tests for the fast trace-replay engine.

The fast engine (:mod:`repro.sim.fast`) must be *bit-identical* to the
oracle interpreter on every ``SimResult`` field — not statistically
close, equal.  The tests here enforce that contract across the paper's
eight configurations and several seeds, on runs that record their
branch streams and on runs that replay them, compare compiled traces
with the oracle's trace generator address by address, check the batch
stream seeding against numpy's ``SeedSequence``, check that a
program's memo dies with the program, pin down the engine-selection
rules in the driver, and cover the coherence hook (``bus_update``)
and each memory policy handler, call by call, under every sidecar
policy on both engines, with the paper's cache-state invariants
checked after every call.

Executor fallback and perf-ledger clamping tests (the satellite fixes
that shipped with the engine) live here too since they are exercised
through the same engine plumbing.
"""

from __future__ import annotations

import gc
import math
import random
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    MemorySystemConfig,
    SidecarConfig,
    SidecarKind,
    SimParams,
    ThreadUnitConfig,
    WrongExecutionConfig,
)
from repro.common.errors import ConfigError, WorkloadError
from repro.common.rng import StreamFactory
from repro.isa.cfg import BlockSpec, BranchSpec, IterationCFG, MemSlot
from repro.mem.cache import DIRTY, WRONG, SetAssocCache
from repro.mem.hierarchy import TUMemSystem
from repro.mem.l2 import SharedL2
from repro.mem.layout import geometry_of
from repro.obs.hostprof import HostProfiler
from repro.obs.ledger import WALL_EPSILON_S, PerfRecord
from repro.sim import executor
from repro.sim.driver import ENGINES, run_simulation
from repro.sim.executor import SweepCell, default_engine, run_cells
from repro.sim.fast import compile as compile_mod
from repro.sim.fast import streams as streams_mod
from repro.sim.fast import compile_program_fast, run_program_fast
from repro.sim.fast.compile import CompiledRegion, program_memo
from repro.sim.fast.engine import _FastMachine, _FastTU
from repro.sim.fast.streams import FastStreamFactory, PrepooledSeedSequence
from repro.sta.configs import CONFIG_NAMES, named_config
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.microbench import MICROBENCH_NAMES, build_microbenchmark
from repro.workloads.patterns import StridedPattern
from repro.workloads.program import (
    ParallelRegionSpec,
    SequentialRegionSpec,
    WrongExecProfile,
)
from repro.workloads.tracegen import TraceGenerator
from tests.test_perf_obs import assert_region_profile

SEEDS = (2003, 7, 42)
SCALE = 1e-5


@pytest.fixture(scope="module")
def mcf_program():
    # Programs are stateless/seed-independent; build once, reuse across
    # every (config, seed, engine) cell.
    return build_benchmark("181.mcf", scale=SCALE)


# ---------------------------------------------------------------------------
# Bit-identity: the acceptance contract
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_ladder_bit_identical(self, mcf_program, config_name, seed):
        cfg = named_config(config_name)
        params = SimParams(seed=seed, scale=SCALE)
        oracle = run_simulation(mcf_program, cfg, params, engine="oracle")
        fast = run_simulation(mcf_program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("kind", ["random", "mixed", "chase"])
    @pytest.mark.parametrize("config_name", ["wth-wp-wec", "nlp"])
    def test_microbench_workloads_bit_identical(self, kind, config_name):
        # Synthetic access patterns (uniform random, pointer chase, the
        # mixed blend) stress sidecar/replacement paths the SPEC models
        # visit rarely at smoke scale.
        program = build_microbenchmark(kind, iters_per_invocation=80,
                                       n_invocations=3)
        cfg = named_config(config_name)
        params = SimParams(seed=7)
        oracle = run_simulation(program, cfg, params, engine="oracle")
        fast = run_simulation(program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_recording_run_bit_identical(self, config_name):
        # A fresh program per configuration, so the fast run resolves
        # and records its branch stream; on the shared ``mcf_program``
        # only the first configuration records and the rest replay.
        program = build_benchmark("181.mcf", scale=SCALE)
        cfg = named_config(config_name)
        params = SimParams(seed=2003, scale=SCALE)
        fast = run_simulation(program, cfg, params, engine="fast")
        assert len(program_memo(program).branch_streams) == 1
        oracle = run_simulation(program, cfg, params, engine="oracle")
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("config_name", ["wth-wp-wec", "nlp"])
    def test_seed_past_32_bits_bit_identical(self, mcf_program, config_name):
        # numpy splits such a seed into two entropy words, so the fast
        # engine's streams take numpy's own pooling, batches included.
        cfg = named_config(config_name)
        params = SimParams(seed=2**32 + 2003, scale=SCALE)
        assert not FastStreamFactory(params.seed)._fast
        oracle = run_simulation(mcf_program, cfg, params, engine="oracle")
        fast = run_simulation(mcf_program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize(
        "params",
        [SimParams(seed=2003, scale=SCALE, record_regions=True),
         SimParams(seed=2003, scale=SCALE, warmup_invocations=0)],
        ids=["record-regions", "no-warmup"],
    )
    @pytest.mark.parametrize("config_name", ["orig", "wth-wp-wec", "nlp"])
    def test_region_loop_options_bit_identical(self, mcf_program,
                                               config_name, params):
        # The shared region loop's two optional paths: per-region
        # records, and measuring from the first invocation.
        cfg = named_config(config_name)
        oracle = run_simulation(mcf_program, cfg, params, engine="oracle")
        fast = run_simulation(mcf_program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()
        assert bool(oracle.region_cycles) == params.record_regions

    def test_repeat_runs_deterministic(self, mcf_program):
        cfg = named_config("wth-wp-wec")
        params = SimParams(seed=42, scale=SCALE)
        first = run_simulation(mcf_program, cfg, params, engine="fast")
        second = run_simulation(mcf_program, cfg, params, engine="fast")
        assert first.to_dict() == second.to_dict()


# ---------------------------------------------------------------------------
# Branch streams: resolved while recording, replayed afterwards
# ---------------------------------------------------------------------------

class TestBranchStream:
    def test_resolve_runs_only_while_recording(self, monkeypatch):
        calls = []
        resolve = _FastTU._resolve

        def counting(tu, path):
            calls.append(tu.tu_id)
            return resolve(tu, path)

        monkeypatch.setattr(_FastTU, "_resolve", counting)
        program = build_benchmark("181.mcf", scale=SCALE)
        params = SimParams(seed=7, scale=SCALE)
        recording = run_simulation(program, named_config("orig"), params,
                                   engine="fast")
        n_executes = len(calls)
        assert n_executes > 0
        (stream,) = program_memo(program).branch_streams.values()
        assert len(stream) == n_executes  # one record per execute
        replaying = run_simulation(program, named_config("wth-wp-wec"),
                                   params, engine="fast")
        assert len(calls) == n_executes
        assert (replaying.branches, replaying.mispredicts) == (
            recording.branches, recording.mispredicts)

    def test_replay_on_invocations_off_the_tu_grid(self):
        # 81 iterations an invocation: later invocations start off a
        # multiple of the TU count, so each record must be charged to
        # the TU of its global iteration, recording and replaying.
        program = build_microbenchmark("mixed", iters_per_invocation=81,
                                       n_invocations=3)
        params = SimParams(seed=7)
        for config_name in ("orig", "wth-wp-wec"):  # record, then replay
            cfg = named_config(config_name)
            fast = run_simulation(program, cfg, params, engine="fast")
            oracle = run_simulation(program, cfg, params, engine="oracle")
            assert fast.to_dict() == oracle.to_dict(), config_name
        assert len(program_memo(program).branch_streams) == 1


    def test_wrong_path_replays_skip_burst_seeding(self, monkeypatch):
        # The first wrong-path run over a stream seeds its bursts; later
        # wrong-path runs over it seed none, and with the memo's bound
        # cutting the seeding short they draw the rest on demand.
        seeded = []
        seed_wrong_paths = CompiledRegion.seed_wrong_paths

        def counting(region, streams, seed, sites):
            seeded.append(len(sites))
            return seed_wrong_paths(region, streams, seed, sites)

        monkeypatch.setattr(CompiledRegion, "seed_wrong_paths", counting)
        monkeypatch.setattr(compile_mod, "_MAX_TRACES", 16)
        program = build_microbenchmark("mixed", iters_per_invocation=40,
                                       n_invocations=3)
        params = SimParams(seed=7)
        memo = program_memo(program)
        for config_name in ("wth-wp-wec", "wp", "wth-wp-vc"):
            cfg = named_config(config_name)
            fast = run_simulation(program, cfg, params, engine="fast")
            oracle = run_simulation(program, cfg, params, engine="oracle")
            assert fast.to_dict() == oracle.to_dict(), config_name
            assert len(memo.wp_seeded) == 1
            if config_name == "wth-wp-wec":
                n_seeding_calls = len(seeded)
                assert n_seeding_calls > 0
        assert len(seeded) == n_seeding_calls


# ---------------------------------------------------------------------------
# Random machine configurations: every geometry the campaign varies
# ---------------------------------------------------------------------------

#: The microbenchmark programs, built once: later examples replay the
#: branch streams earlier ones recorded.
_MICRO_PROGRAMS = {}


def _micro_program(kind):
    if kind not in _MICRO_PROGRAMS:
        # 24 iterations an invocation: with 16 TUs later invocations
        # start off the TU grid.
        _MICRO_PROGRAMS[kind] = build_microbenchmark(
            kind, iters_per_invocation=24, n_invocations=3)
    return _MICRO_PROGRAMS[kind]


@st.composite
def machine_configs(draw):
    l1d = CacheConfig(size=draw(st.sampled_from([2, 4, 8, 16, 32])) * 1024,
                      assoc=draw(st.sampled_from([1, 2, 4])),
                      block_size=64, name="l1d")
    l2 = CacheConfig(size=draw(st.sampled_from([128, 256, 512])) * 1024,
                     assoc=4, block_size=128, hit_latency=12, name="l2")
    sidecar = SidecarConfig(kind=draw(st.sampled_from(list(SidecarKind))),
                            entries=draw(st.sampled_from([4, 8, 16, 32])))
    return MachineConfig(
        name="drawn",
        n_thread_units=draw(st.sampled_from([1, 2, 4, 8, 16])),
        tu=ThreadUnitConfig(l1d=l1d, sidecar=sidecar),
        mem=MemorySystemConfig(l2=l2),
        wrong_exec=WrongExecutionConfig(wrong_path=draw(st.booleans()),
                                        wrong_thread=draw(st.booleans())),
    )


class TestRandomConfigs:
    @settings(max_examples=60, deadline=None)
    @given(cfg=machine_configs(), kind=st.sampled_from(MICROBENCH_NAMES),
           seed=st.sampled_from(SEEDS))
    def test_random_machine_bit_identical(self, cfg, kind, seed):
        program = _micro_program(kind)
        params = SimParams(seed=seed)
        oracle = run_simulation(program, cfg, params, engine="oracle")
        fast = run_simulation(program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()


# ---------------------------------------------------------------------------
# Compile-only warm-up: the memo a full run leaves, without simulating
# ---------------------------------------------------------------------------

def _memo_state(program):
    """Everything a run leaves in the program's memo, comparably."""
    memo = program_memo(program)
    regions = {
        comp.region.name: (
            {seed: sorted(traces) for seed, traces in comp.traces.items()},
            {seed: {key: list(burst) for key, burst in bursts.items()}
             for seed, bursts in comp.wp_addrs.items()},
            sorted(comp.paths),
        )
        for comp in memo.regions.values()
    }
    streams = {key: [tuple(rec) for rec in stream]
               for key, stream in memo.branch_streams.items()}
    return regions, streams, set(memo.wp_seeded)


#: Recording and replaying runs, with and without wrong execution, on
#: 2, 4 and 8 TUs and a 4-way L1D.
COMPILE_SEQUENCE = ("orig", "wth-wp-wec", "wec@2tu", "wp", "t3-4tu", "nlp")


class TestCompileOnly:
    def test_leaves_the_memo_as_a_full_run(self):
        from repro.obs.fidelity import campaign_axis
        axis = campaign_axis()
        params = SimParams(seed=42, scale=SCALE)
        compiled = build_benchmark("181.mcf", scale=SCALE)
        simulated = build_benchmark("181.mcf", scale=SCALE)
        for label in COMPILE_SEQUENCE:
            assert compile_program_fast(compiled, axis[label], params) is None
            run_program_fast(simulated, axis[label], params)
            assert _memo_state(compiled) == _memo_state(simulated), label
        assert len(program_memo(compiled).branch_streams) == 3  # 8, 2, 4 TUs
        assert len(program_memo(compiled).wp_seeded) == 2

    @pytest.mark.parametrize("config_name", ["orig", "wth-wp-wec", "nlp"])
    def test_full_run_after_it_compiles_nothing(self, monkeypatch,
                                                config_name):
        program = build_benchmark("181.mcf", scale=SCALE)
        cfg = named_config(config_name)
        params = SimParams(seed=7, scale=SCALE)
        compile_program_fast(program, cfg, params)
        calls = []

        def counting(cls, name):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counting(CompiledRegion, "_bind")      # binds a trace
        counting(CompiledRegion, "_burst")     # draws a burst
        counting(_FastTU, "_resolve")          # records a stream
        fast = run_simulation(program, cfg, params, engine="fast")
        assert calls == []
        oracle = run_simulation(program, cfg, params, engine="oracle")
        assert fast.to_dict() == oracle.to_dict()


# ---------------------------------------------------------------------------
# Compile level: bound traces against the oracle's trace generator
# ---------------------------------------------------------------------------

#: Iterations/chunks bound per region and seed, in one batch: well above
#: the crossover where the stream pooling switches to numpy.
N_COMPILED = 64


def _strided_region():
    """A small region on a ``StridedPattern``, which no benchmark uses.

    The self-looping block makes the per-walk occurrence count of
    ``col`` vary from 3 to 9+, so one batch holds several paths.
    """
    cfg = IterationCFG(
        entry="walk",
        blocks=[BlockSpec(
            "walk", n_instr=20,
            mem_slots=(MemSlot("col"), MemSlot("col"),
                       MemSlot("col", is_store=True, is_target_store=True)),
            branch=BranchSpec(0.6, "walk", None, noise=0.2),
        )],
    )
    patterns = {
        "col": StridedPattern("col", 0x5000000, 256 * 1024, stride=4096,
                              per_iter=5),
        "junk": StridedPattern("junk", 0x6000000, 64 * 1024, stride=320),
    }
    return ParallelRegionSpec(
        name="strided.walk", cfg=cfg, patterns=patterns,
        iters_per_invocation=N_COMPILED, pollution_pattern="junk",
        wrong_exec=WrongExecProfile(wp_mean_loads=3.0, wp_max_loads=6,
                                    p_convergent=0.5, wp_lookahead=4),
    )


def _long_walk_region():
    """A region whose walks often take more than 16 branch decisions.

    Its loop repeats with probability 0.9, so about one walk in five
    runs past the bulk walker's draw window; the exit block has no
    memory slots and the loop block a load and a store.
    """
    cfg = IterationCFG(
        entry="head",
        blocks=[
            BlockSpec("head", n_instr=6, next_block="loop"),
            BlockSpec("loop", n_instr=12,
                      mem_slots=(MemSlot("row"), MemSlot("row", is_store=True)),
                      branch=BranchSpec(0.9, "loop", "exit")),
            BlockSpec("exit", n_instr=3),
        ],
    )
    patterns = {"row": StridedPattern("row", 0x7000000, 64 * 1024,
                                      stride=64, per_iter=3)}
    return SequentialRegionSpec(
        name="long.walk", cfg=cfg, patterns=patterns,
        chunks_per_invocation=N_COMPILED,
        wrong_exec=WrongExecProfile(wp_mean_loads=2.0, wp_max_loads=5,
                                    p_convergent=0.6, wp_lookahead=12),
    )


@pytest.fixture(scope="module")
def compile_regions():
    regions = [region for name in BENCHMARK_NAMES
               for region in build_benchmark(name, scale=SCALE).body]
    return regions + [_strided_region(), _long_walk_region()]


class TestCompiledTraces:
    """A compile bug shows here by region and index, not as a digest."""

    @pytest.mark.parametrize("seed", (2003, 7))
    def test_traces_match_trace_generator(self, compile_regions, seed):
        # Two range binds, one below the bulk-draw threshold and one at
        # or above it, then the next index as a lone miss.
        small = streams_mod.BULK_MIN - 1
        assert N_COMPILED - small >= streams_mod.BULK_MIN
        gen = TraceGenerator(StreamFactory(seed))
        streams = FastStreamFactory(seed)
        mixed_batches = 0
        past_window = 0
        for region in compile_regions:
            comp = CompiledRegion(region)
            sequential = isinstance(region, SequentialRegionSpec)
            oracle = gen.chunk_trace if sequential else gen.iteration_trace
            traces = comp.trace_range(streams, seed, 0, small)
            bulk = comp.trace_range(streams, seed, small, N_COMPILED)
            traces += bulk
            assert sorted(comp.traces[seed]) == list(range(N_COMPILED))
            traces.append(comp.trace(streams, seed, N_COMPILED))
            # The flat binder cut a batch into traces of unequal length.
            mixed_batches += len({(len(t.load_addrs), len(t.store_addrs))
                                  for t in bulk}) >= 2
            past_window += sum(len(t.path.branch_pcs) > compile_mod._WALK_DRAWS
                               for t in bulk)
            wants = [oracle(region, index) for index in range(N_COMPILED + 1)]
            for index, (got, want) in enumerate(zip(traces, wants)):
                where = f"{region.name}[{index}] seed {seed}"
                assert got.load_addrs.typecode == "q", where
                assert got.load_addrs.tolist() == want.load_addrs.tolist(), where
                assert got.store_addrs.tolist() == want.store_addrs.tolist(), where
                assert got.path.branch_pcs == want.branch_pcs.tolist(), where
                assert isinstance(got.targets, tuple), where
                assert list(got.targets) == (
                    want.store_addrs[want.tstore_mask].tolist()), where
                if not sequential:
                    assert list(comp.wrong_thread_addrs(streams, seed, index)) == (
                        gen.wrong_thread_addrs(region, index).tolist()), where
            # Every burst, seeded as invocations seed them: one batch
            # below the threshold, one above, against the oracle's
            # one-at-a-time bursts.
            sites = [
                (traces[index], b, index,
                 traces[index + 1].load_addrs if sequential else None)
                for index in range(N_COMPILED)
                for b in range(wants[index].n_branches)
            ]
            assert sites, region.name
            comp.seed_wrong_paths(streams, seed, sites[:small])
            comp.seed_wrong_paths(streams, seed, sites[small:])
            prof = region.wrong_exec
            if prof.wp_max_loads != 0 and prof.wp_mean_loads > 0:
                assert len(comp.wp_addrs[seed]) == len(sites), region.name
            for trace, b, index, future_fast in sites:
                where = f"{region.name}[{index}] branch {b} seed {seed}"
                burst = comp.wrong_path_addrs(streams, seed, trace, b, index,
                                              future_fast)
                assert burst == () or burst.typecode == "q", where
                future = wants[index + 1].load_addrs if sequential else None
                assert list(burst) == gen.wrong_path_addrs(
                    region, wants[index], b, index, future_loads=future), where
        assert mixed_batches > 0
        assert past_window > 0

    def test_exact_fallback_binds_the_same_traces(self, compile_regions,
                                                   monkeypatch):
        # With the self-check forced off every stream takes numpy's own
        # seeding and a generator: same traces, paths and bursts, on a
        # benchmark region and on one whose walks outrun the bulk draws.
        regions = (compile_regions[0], compile_regions[-1])

        def compiled(factory):
            state = []
            for region in regions:
                comp = CompiledRegion(region)
                traces = comp.trace_range(factory, 2003, 0, N_COMPILED)
                comp.seed_wrong_paths(factory, 2003, [
                    (trace, b, index, None) for index, trace in enumerate(traces)
                    for b in range(len(trace.path.branch_pcs))])
                state.append(([(t.load_addrs, t.store_addrs, t.targets,
                                t.path.key) for t in traces], comp.wp_addrs))
            return state

        fast = compiled(FastStreamFactory(2003))
        monkeypatch.setattr(streams_mod, "POOLING_EXACT", False)
        factory = FastStreamFactory(2003)
        assert not factory._fast
        assert compiled(factory) == fast

    def test_inexact_draws_take_their_generators(self, compile_regions,
                                                 monkeypatch):
        # A burst whose bulk draws are inexact (a Lemire rejection, a
        # geometric sum numpy's search never passes) takes its stream's
        # own generator.
        region = compile_regions[-1]
        assert (1.0 / region.wrong_exec.wp_mean_loads
                >= streams_mod.GEOMETRIC_SEARCH_MIN)
        streams = FastStreamFactory(7)
        gen = TraceGenerator(StreamFactory(7))
        comp = CompiledRegion(region)
        traces = comp.trace_range(streams, 7, 0, N_COMPILED)
        sites = [(trace, b, index, None) for index, trace in enumerate(traces)
                 for b in range(len(trace.path.branch_pcs))]
        assert len(sites) >= streams_mod.BULK_MIN

        def reject_odd_rows(raw, n):
            values, exact = streams_mod.lemire_bounded(raw, n)
            exact[1::2] = False
            return values, exact
        monkeypatch.setattr(compile_mod, "lemire_bounded", reject_odd_rows)
        drawn = []
        draws = CompiledRegion._draws
        monkeypatch.setattr(CompiledRegion, "_draws",
                            lambda self, rng: drawn.append(rng) or draws(self, rng))
        comp.seed_wrong_paths(streams, 7, sites)
        assert len(drawn) == len(sites) // 2
        for trace, b, index, _ in sites:
            want = gen.wrong_path_addrs(region, gen.chunk_trace(region, index),
                                        b, index)
            assert list(comp.wp_addrs[7][(index, b)]) == want

    def test_bounded_memos_stay_bit_identical(self, monkeypatch):
        # Each batch binds and seeds many entries at once; the memos must
        # still stop at their bound, and results must not change.
        monkeypatch.setattr(compile_mod, "_MAX_TRACES", 16)
        program = build_microbenchmark("mixed", iters_per_invocation=80,
                                       n_invocations=3)
        cfg = named_config("wth-wp-wec")
        params = SimParams(seed=7)
        fast = run_simulation(program, cfg, params, engine="fast")
        oracle = run_simulation(program, cfg, params, engine="oracle")
        assert fast.to_dict() == oracle.to_dict()
        memo = program_memo(program)
        sizes = [len(per_seed) for comp in memo.regions.values()
                 for memo_dict in (comp.traces, comp.wp_addrs)
                 for per_seed in memo_dict.values()]
        assert sizes and max(sizes) == 16


# ---------------------------------------------------------------------------
# Stream seeding: batch pooling against numpy's SeedSequence
# ---------------------------------------------------------------------------

class TestStreamSeeding:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40))
    def test_batch_pooling_matches_numpy(self, seed, words):
        got = streams_mod.pooled_state_batch(seed, words)
        assert got.dtype == np.uint64 and got.shape == (len(words), 4)
        for word, row in zip(words, got.tolist()):
            ref = SeedSequence(seed, spawn_key=(word,)).generate_state(
                4, np.uint64)
            assert row == ref.tolist()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
           n_draws=st.integers(1, 20))
    def test_raw_draws_match_numpy(self, seed, words, n_draws):
        raw = streams_mod.pcg64_raw(
            streams_mod.pooled_state_batch(seed, words), n_draws)
        assert raw.dtype == np.uint64 and raw.shape == (len(words), n_draws)
        doubles = streams_mod.raw_doubles(raw)
        for word, row, double_row in zip(words, raw.tolist(), doubles.tolist()):
            seq = SeedSequence(seed, spawn_key=(word,))
            assert row == PCG64(seq).random_raw(n_draws).tolist()
            assert double_row == Generator(PCG64(seq)).random(n_draws).tolist()

    def test_raw_batch_matches_oracle_streams(self):
        # Past one pass of rows, and only from the bulk threshold on.
        oracle = StreamFactory(2003)
        factory = FastStreamFactory(2003)
        names = [f"wp:r:{i}:0" for i in range(streams_mod._POOL_ROWS + 3)]
        raw = factory.raw_batch(names, 3)
        assert raw.tolist() == [
            oracle.fresh(name).bit_generator.random_raw(3).tolist()
            for name in names]
        assert factory.raw_batch(names[:streams_mod.BULK_MIN - 1], 3) is None
        assert FastStreamFactory(2**32 + 2003).raw_batch(names, 3) is None

    def test_geometric_search_matches_numpy(self):
        third = streams_mod.GEOMETRIC_SEARCH_MIN
        programs = [build_benchmark(name, scale=SCALE) for name in BENCHMARK_NAMES]
        programs += [build_microbenchmark(kind) for kind in MICROBENCH_NAMES]
        workload_ps = {min(1.0, 1.0 / region.wrong_exec.wp_mean_loads)
                       for program in programs for region in program.body
                       if region.wrong_exec.wp_mean_loads > 0}
        rng = random.Random(5)
        ps = [1.0, third, float(np.nextafter(third, 1.0))]
        ps += sorted(p for p in workload_ps if p >= third)
        ps += [rng.uniform(third, 1.0) for _ in range(8)]
        assert len(ps) > 8
        states = streams_mod.pooled_state_batch(2003, list(range(300)))
        raw = streams_mod.pcg64_raw(states, 2)
        for p in ps:
            got = streams_mod.geometric_search(
                streams_mod.raw_doubles(raw[:, 0]), p)
            for row, k, second in zip(states, got.tolist(), raw[:, 1].tolist()):
                bitgen = PCG64(PrepooledSeedSequence(row))
                assert Generator(bitgen).geometric(p) == k, p
                # numpy's search draws one double, even at p == 1.
                assert bitgen.random_raw() == second, p
        # Just below 1/3 numpy inverts an exponential instead.
        below = float(np.nextafter(third, 0.0))
        got = streams_mod.geometric_search(streams_mod.raw_doubles(raw[:, 0]),
                                           below)
        assert any(Generator(PCG64(PrepooledSeedSequence(row))).geometric(below)
                   != k for row, k in zip(states, got.tolist()))

    def test_geometric_search_at_numpy_boundaries(self):
        # Draws on, and one double either side of, each of numpy's
        # running sums, fed to numpy through crafted states.
        for p in (1.0, 0.5, 0.35, streams_mod.GEOMETRIC_SEARCH_MIN):
            sums = streams_mod._geometric_sums(p)
            draws = sorted({float(np.nextafter(s, toward))
                            for s in sums for toward in (0.0, s, 1.0)})
            # Draws are the multiples of 2**-53 below 1, and numpy never
            # returns for one above a sum that stopped growing.
            draws = [u for u in draws if (u * 2**53).is_integer()
                     and u < 1.0 and u <= sums[-1]]
            assert draws
            got = streams_mod.geometric_search(np.array(draws), p)
            for u, k in zip(draws, got.tolist()):
                bitgen = _pcg64_emitting(int(u * 2**53) << 11)
                assert Generator(bitgen).geometric(p) == k, (p, u)

    def test_geometric_search_marks_unending_sums(self):
        # At p = 0.35 numpy's running sum stops growing below the
        # largest double a draw can be; its search never returns there.
        sums = streams_mod._geometric_sums(0.35)
        assert sums[-1] < streams_mod._U_MAX
        top = np.array([sums[-1], streams_mod._U_MAX])
        got = streams_mod.geometric_search(top, 0.35)
        assert got.tolist() == [len(sums), 0]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lemire_matches_integers(self, n):
        states = streams_mod.pooled_state_batch(7, list(range(300)))
        raw = streams_mod.pcg64_raw(states, 2)
        values, exact = streams_mod.lemire_bounded(raw[:, 0], n)
        assert exact.all()
        for row, value, first, second in zip(states, values.tolist(),
                                             raw[:, 0].tolist(),
                                             raw[:, 1].tolist()):
            bitgen = PCG64(PrepooledSeedSequence(row))
            assert Generator(bitgen).integers(0, n) == value
            # integers(0, 1) draws nothing; otherwise one raw output.
            assert bitgen.random_raw() == (first if n == 1 else second)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lemire_rejection_is_marked(self, n):
        # A raw output whose low half is 0 falls in numpy's rejection
        # zone unless n is a power of two; numpy then takes the high
        # half.
        high = 0x9E3779B9
        word = high << 32
        bitgen = _pcg64_emitting(word)
        value, exact = streams_mod.lemire_bounded(
            np.array([word], dtype=np.uint64), n)
        numpy_value = Generator(bitgen).integers(0, n)
        if n & (n - 1):
            assert not exact[0]
            assert numpy_value == (high * n) >> 32 != value[0]
        else:
            assert exact[0] and numpy_value == value[0] == 0
        # The lowest accepted product: its low half equals the threshold.
        threshold = ((1 << 32) - n) % n
        g = math.gcd(n, 1 << 32)
        if threshold % g == 0:
            low = (threshold // g) * pow(n // g, -1, (1 << 32) // g) % (1 << 32)
            assert low * n % (1 << 32) == threshold
            word = (high << 32) | low
            value, exact = streams_mod.lemire_bounded(
                np.array([word], dtype=np.uint64), n)
            assert exact[0]
            assert Generator(_pcg64_emitting(word)).integers(0, n) == value[0]

    def test_fast_seeding_is_live(self, monkeypatch):
        # Canary: a numpy whose pooling, integer promotion or sampling
        # we do not reproduce sends every stream down the exact (numpy)
        # path.  Results stay right, so nothing else fails; only speed
        # is lost.
        factory = FastStreamFactory(2003)
        assert factory._fast
        assert streams_mod.POOLING_EXACT
        assert streams_mod._self_check()
        # A batch at the threshold walks its bulk draws: no generator.
        comp = CompiledRegion(_strided_region())
        for name in ("fresh", "fresh_batch"):
            monkeypatch.setattr(FastStreamFactory, name, None)
        traces = comp.trace_range(factory, 2003, 0, streams_mod.BULK_MIN)
        assert len(traces) == streams_mod.BULK_MIN

    @pytest.mark.parametrize("seed", (2003, 2**32 + 2003))
    def test_fresh_batch_matches_oracle_streams(self, seed):
        oracle = StreamFactory(seed)
        factory = FastStreamFactory(seed)
        for n in (1, streams_mod.BATCH_MIN - 1, streams_mod.BATCH_MIN,
                  streams_mod._POOL_ROWS + 3):
            names = [f"it:r:{i}" for i in range(n)]
            draws = [g.random(4).tolist() for g in factory.fresh_batch(names)]
            assert draws == [oracle.fresh(name).random(4).tolist()
                             for name in names]


def _pcg64_emitting(word: int) -> PCG64:
    """A ``PCG64`` whose next raw output is ``word``.

    The state after the step has a zero rotation, so its output is the
    XOR of its halves; the state before it undoes the LCG step.
    """
    mult = streams_mod._PCG_MULT
    inc = 0x5851F42D4C957F2D
    high = 0x0123456789ABCDEF
    after = (high << 64) | (high ^ word)
    before = ((after - inc) * pow(mult, -1, 1 << 128)) % (1 << 128)
    bitgen = PCG64()
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": before, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    probe = PCG64()
    probe.state = bitgen.state
    assert probe.random_raw() == word
    return bitgen


# ---------------------------------------------------------------------------
# Runaway walks: a CFG that never ends fails loudly on every walker
# ---------------------------------------------------------------------------

def _runaway_region(kind):
    if kind == "taken-back-edge":
        blocks = [BlockSpec("loop", n_instr=4,
                            branch=BranchSpec(1.0, "loop", None))]
    else:  # an unconditional cycle
        blocks = [BlockSpec("a", n_instr=4, next_block="b"),
                  BlockSpec("b", n_instr=4, next_block="a")]
    return ParallelRegionSpec(
        name=f"runaway.{kind}", cfg=IterationCFG(entry=blocks[0].name,
                                                 blocks=blocks),
        patterns={}, iters_per_invocation=streams_mod.BULK_MIN)


@pytest.mark.parametrize("kind", ("taken-back-edge", "unconditional-cycle"))
class TestRunawayWalks:
    def test_oracle_walker_raises(self, kind):
        region = _runaway_region(kind)
        with pytest.raises(WorkloadError, match="CFG walk exceeded"):
            region.cfg.walk(StreamFactory(7).fresh("it:runaway:0"))

    def test_bulk_walker_raises(self, kind):
        comp = CompiledRegion(_runaway_region(kind))
        with pytest.raises(WorkloadError, match="CFG walk exceeded"):
            comp.trace_range(FastStreamFactory(7), 7, 0, streams_mod.BULK_MIN)
        assert not comp.paths and not comp.traces[7]

    def test_lone_miss_raises(self, kind):
        comp = CompiledRegion(_runaway_region(kind))
        with pytest.raises(WorkloadError, match="CFG walk exceeded"):
            comp.trace(FastStreamFactory(7), 7, 0)


# ---------------------------------------------------------------------------
# Memo lifetime: a program's compiled state dies with the program
# ---------------------------------------------------------------------------

def _build_run_drop() -> list:
    """Run a fresh program on the fast engine, drop it, collect.

    Returns weak references to the program, its regions, its memo and
    the memo's compiled regions.
    """
    program = build_benchmark("164.gzip", scale=SCALE)
    run_simulation(program, named_config("wth-wp-wec"),
                   SimParams(seed=7, scale=SCALE), engine="fast")
    memo = program_memo(program)
    assert memo.regions and memo.branch_streams
    refs = [weakref.ref(program), weakref.ref(memo)]
    refs += [weakref.ref(region) for region in program.body]
    refs += [weakref.ref(comp) for comp in memo.regions.values()]
    del program, memo
    gc.collect()
    return refs


class TestMemoLifetime:
    def test_dropped_program_frees_compiled_state(self):
        refs = _build_run_drop()
        assert [ref() for ref in refs if ref() is not None] == []

    def test_build_run_drop_rounds_stay_flat(self):
        tracemalloc.start()
        try:
            sizes = []
            for _ in range(3):
                _build_run_drop()
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # The first round may leave one-time state (interned strings,
        # lazily built tables); later rounds must not add to it.
        assert sizes[2] - sizes[0] < 32 * 1024, sizes


# ---------------------------------------------------------------------------
# Engine selection rules in the driver
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_unknown_engine_rejected(self, mcf_program):
        with pytest.raises(ConfigError, match="unknown engine"):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="turbo")

    @pytest.mark.parametrize("observer", ["tracer", "attrib"])
    def test_fast_rejects_event_level_observers(self, mcf_program, observer):
        # The fast engine has no event loop to observe; asking for one
        # must be a loud error, never a silently observer-less run.
        with pytest.raises(ConfigError, match=observer):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="fast",
                           **{observer: object()})

    def test_policy_message_names_escape_hatch(self, mcf_program):
        with pytest.raises(ConfigError, match="--engine oracle"):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="fast",
                           tracer=object())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiler_region_sections(self, mcf_program, engine):
        profiler = HostProfiler()
        t0 = time.perf_counter()
        run_simulation(mcf_program, named_config("orig"),
                       SimParams(scale=SCALE), engine=engine,
                       profiler=profiler)
        wall_s = time.perf_counter() - t0
        assert_region_profile(profiler.snapshot(wall_s), wall_s)

    def test_default_engine_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "oracle"
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert default_engine() == "fast"
        monkeypatch.setenv("REPRO_ENGINE", " Oracle ")
        assert default_engine() == "oracle"
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ConfigError, match="REPRO_ENGINE"):
            default_engine()


# ---------------------------------------------------------------------------
# bus_update under every sidecar policy, both engines
# ---------------------------------------------------------------------------

POLICY_CONFIGS = (
    ("orig", SidecarKind.NONE),
    ("vc", SidecarKind.VICTIM),
    ("wth-wp-wec", SidecarKind.WEC),
    ("nlp", SidecarKind.PREFETCH),
)


class TestBusUpdate:
    """The coherence hook answers "does this TU cache the block?".

    Presence must include sidecar-resident blocks (whatever their
    flags — a WRONG-flagged WEC block is still a valid copy under the
    update protocol) and must bump ``bus_updates`` only on application.
    """

    @staticmethod
    def _pair(config_name):
        cfg = named_config(config_name)
        params = SimParams(scale=SCALE)
        oracle = TUMemSystem(
            0, cfg.tu.l1d, cfg.tu.l1i, cfg.tu.sidecar, SharedL2(cfg.mem),
            prefetch_late_cycles=params.prefetch_late_cycles,
            prefetch_late_far_cycles=params.prefetch_late_far_cycles,
        )
        fast = _FastMachine(cfg, params).tus[0]
        return oracle, fast

    @staticmethod
    def _agree(oracle, fast, addr):
        got_o = oracle.bus_update(addr)
        got_f = fast.bus_update(addr >> fast.l1d_bits, 1)
        assert got_o == got_f
        assert oracle.stats["bus_updates"] == fast.m["bus_updates"]
        return got_o

    @pytest.mark.parametrize("config_name,kind", POLICY_CONFIGS)
    def test_dirty_l1_block_applies(self, config_name, kind):
        oracle, fast = self._pair(config_name)
        block, bits = 5, oracle.l1d.block_bits
        oracle.l1d.insert(block, DIRTY)
        fast.l1d_sets[block & fast.l1d_mask][block] = DIRTY
        assert self._agree(oracle, fast, block << bits) is True
        assert oracle.stats["bus_updates"] == 1

    @pytest.mark.parametrize("config_name,kind", POLICY_CONFIGS)
    def test_wrong_sidecar_block_applies(self, config_name, kind):
        if kind is SidecarKind.NONE:
            pytest.skip("no sidecar under the plain policy")
        oracle, fast = self._pair(config_name)
        block, bits = 9, oracle.l1d.block_bits
        oracle.sidecar.insert(block, WRONG)
        fast.side[block] = WRONG
        assert self._agree(oracle, fast, block << bits) is True
        assert oracle.stats["bus_updates"] == 1

    @pytest.mark.parametrize("config_name,kind", POLICY_CONFIGS)
    def test_absent_block_is_a_miss(self, config_name, kind):
        oracle, fast = self._pair(config_name)
        assert self._agree(oracle, fast, 0xBEEF00) is False
        assert oracle.stats["bus_updates"] == 0


#: The policy handlers a TU's event loop calls.
HANDLERS = ("load_correct", "store_correct", "load_wrong")

#: 16 L1D blocks over two L1D sets and two L2 sets: eight blocks contend
#: for each L1D set and four for each two-way L2 set.
N_BLOCKS = 16


class TestPolicyHandlers:
    """Each policy handler, call by call, on caches small enough that
    every victim route runs: an L1D victim into the sidecar, a dirty L1D
    victim to the L2, a dirty sidecar victim to the L2, a dirty L2
    victim to memory, and a prefetch into a full sidecar.  After every
    call both engines' caches must also hold the paper's invariants
    (``_check_state``)."""

    @staticmethod
    def _pair(kind, assoc):
        l1d = CacheConfig(size=2 * assoc * 64, assoc=assoc, block_size=64,
                          name="l1d")
        l2 = CacheConfig(size=2 * 2 * 128, assoc=2, block_size=128,
                         hit_latency=12, name="l2")
        cfg = MachineConfig(
            name="tiny", n_thread_units=1,
            tu=ThreadUnitConfig(l1d=l1d,
                                sidecar=SidecarConfig(kind=kind, entries=2)),
            mem=MemorySystemConfig(l2=l2),
        )
        params = SimParams()
        oracle = TUMemSystem(
            0, cfg.tu.l1d, cfg.tu.l1i, cfg.tu.sidecar, SharedL2(cfg.mem),
            prefetch_late_cycles=params.prefetch_late_cycles,
            prefetch_late_far_cycles=params.prefetch_late_far_cycles,
        )
        fast = _FastMachine(cfg, params).tus[0]
        return oracle, fast

    @staticmethod
    def _state(mem):
        """The L1D's and the sidecar's ``(block, flags)``, LRU first."""
        if isinstance(mem, TUMemSystem):
            l1d = list(mem.l1d.resident_blocks())
            side = mem.sidecar.items() if mem.sidecar is not None else ()
        else:
            l1d = [item for s in mem.l1d_sets for item in s.items()]
            side = mem.side.items() if mem.side is not None else ()
        return l1d, list(side)

    @classmethod
    def _check_state(cls, mem, kind, handler, block, before):
        l1d, side = cls._state(mem)
        # No block sits in both the L1D and the sidecar.
        assert not {b for b, _ in l1d} & {b for b, _ in side}, (
            handler, block)
        if handler != "load_wrong":
            return
        l1d_before, side_before = before
        if kind is SidecarKind.WEC:
            # Pollution elimination (Figure 6): a WEC wrong load leaves
            # the L1D's blocks, flags and order as they were; a hit only
            # refreshes its own block's LRU position.
            assert sorted(l1d) == sorted(l1d_before), block
            assert [i for i in l1d if i[0] != block] == [
                i for i in l1d_before if i[0] != block], block
        # Wrong execution writes nothing: no block it brought in is dirty.
        resident = {b for b, _ in l1d_before} | {b for b, _ in side_before}
        assert not [b for b, flags in l1d + side
                    if b not in resident and flags & DIRTY], block

    @classmethod
    def _replay(cls, oracle, fast, ops):
        kind = oracle.sidecar_kind
        for handler, block in ops:
            addr = block * 64 + 8
            before = cls._state(oracle), cls._state(fast)
            want = getattr(oracle, handler)(addr)
            got = getattr(fast, handler)(addr)
            assert (type(got), got) == (type(want), want), (handler, block)
            for mem, state in zip((oracle, fast), before):
                cls._check_state(mem, kind, handler, block, state)
        assert dict(fast.m) == oracle.stats.as_dict(qualified=False)
        assert dict(fast.l2.c) == oracle.l2.stats.as_dict(qualified=False)
        assert dict(fast.l2.memc) == (
            oracle.l2.memory.stats.as_dict(qualified=False))
        # Contents, flags and LRU order: each set LRU first, in set order.
        assert [item for s in fast.l1d_sets for item in s.items()] == list(
            oracle.l1d.resident_blocks())
        assert [item for s in fast.l2.sets for item in s.items()] == list(
            oracle.l2.cache.resident_blocks())
        if oracle.sidecar is None:
            assert fast.side is None
        else:
            assert list(fast.side.items()) == list(oracle.sidecar.items())

    @pytest.mark.parametrize("assoc", [1, 2])
    @pytest.mark.parametrize("kind", list(SidecarKind))
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(HANDLERS),
                                  st.integers(0, N_BLOCKS - 1)),
                        max_size=80))
    def test_handlers_agree(self, kind, assoc, ops):
        oracle, fast = self._pair(kind, assoc)
        self._replay(oracle, fast, ops)

    @pytest.mark.parametrize("assoc", [1, 2])
    @pytest.mark.parametrize("kind", list(SidecarKind))
    def test_every_victim_route_runs(self, kind, assoc):
        rng = random.Random(2003)
        ops = [(rng.choice(HANDLERS), rng.randrange(N_BLOCKS))
               for _ in range(400)]
        oracle, fast = self._pair(kind, assoc)
        self._replay(oracle, fast, ops)
        m = fast.m
        # A dirty L1D victim (plain, nlp) or a dirty sidecar victim (WEC,
        # VC: their L1D victims all go to the sidecar) reaches the L2 ...
        assert m["writebacks"] > 0
        # ... and a dirty L2 victim reaches memory.
        assert fast.l2.c["writebacks_to_memory"] > 0
        if kind in (SidecarKind.WEC, SidecarKind.VICTIM):
            assert m["victims_to_sidecar"] > 0
        if kind is SidecarKind.PREFETCH:
            # Only prefetches fill an nlp sidecar, so every block it lost
            # other than by promotion was bumped by a prefetch.
            promoted = m["sidecar_hits"] + m["wrong_sidecar_hits"]
            assert m["prefetches"] - promoted > len(fast.side)


# ---------------------------------------------------------------------------
# Executor: no silent serial fallback
# ---------------------------------------------------------------------------

def _two_cells():
    params = SimParams(scale=SCALE)
    return [
        SweepCell("181.mcf", "orig", named_config("orig"), params),
        SweepCell("181.mcf", "vc", named_config("vc"), params),
    ]


class TestSerialFallback:
    def test_fork_unavailable_recorded_and_warned(self, monkeypatch):
        monkeypatch.setattr(executor, "_fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork-unavailable"):
            out = run_cells(_two_cells(), jobs=2, cache=False)
        assert out.stats.serial_fallback == "fork-unavailable"
        assert (out.stats.jobs_requested, out.stats.jobs_used) == (2, 1)
        assert len(out.results) == 2

    def test_single_cell_fallback_reason(self):
        with pytest.warns(RuntimeWarning, match="single-cell"):
            out = run_cells(_two_cells()[:1], jobs=4, cache=False)
        assert out.stats.serial_fallback == "single-cell"

    def test_serial_run_has_no_fallback_marker(self):
        out = run_cells(_two_cells(), jobs=1, cache=False)
        assert out.stats.serial_fallback is None
        assert out.stats.jobs_used == 1

    def test_parallel_path_matches_serial(self):
        serial = run_cells(_two_cells(), jobs=1, cache=False)
        parallel = run_cells(_two_cells(), jobs=2, cache=False)
        assert parallel.stats.serial_fallback is None
        assert parallel.stats.jobs_used == 2
        for key, result in serial.results.items():
            assert parallel.results[key].to_dict() == result.to_dict()


# ---------------------------------------------------------------------------
# Perf ledger: sub-resolution walls and engine provenance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_result(mcf_program):
    return run_simulation(mcf_program, named_config("orig"),
                          SimParams(scale=SCALE), engine="fast")


class TestPerfRecord:
    def test_zero_wall_clamps_rates(self, tiny_result):
        rec = PerfRecord.from_result(tiny_result, wall_s=0.0)
        assert rec.host["wall_s"] == 0.0  # raw measurement preserved
        assert rec.host["wall_clamped"] == 1.0
        assert rec.host["events_per_sec"] == pytest.approx(
            tiny_result.instructions / WALL_EPSILON_S
        )
        assert rec.host["cycles_per_sec"] == pytest.approx(
            tiny_result.total_cycles / WALL_EPSILON_S
        )

    def test_normal_wall_unclamped(self, tiny_result):
        rec = PerfRecord.from_result(tiny_result, wall_s=0.25)
        assert "wall_clamped" not in rec.host
        assert rec.host["events_per_sec"] == pytest.approx(
            tiny_result.instructions / 0.25
        )

    def test_engine_provenance_stamped(self, tiny_result):
        assert PerfRecord.from_result(
            tiny_result, wall_s=0.1, engine="fast"
        ).provenance["engine"] == "fast"
        # Pre-engine ledgers defaulted to the oracle; an empty stamp
        # must read back the same way.
        assert PerfRecord.from_result(
            tiny_result, wall_s=0.1
        ).provenance["engine"] == "oracle"


# ---------------------------------------------------------------------------
# Shared cache geometry
# ---------------------------------------------------------------------------

class TestLayoutGeometry:
    @pytest.mark.parametrize("config_name", ["orig", "wth-wp-wec"])
    def test_matches_oracle_cache_arrays(self, config_name):
        for cache_cfg in (named_config(config_name).tu.l1d,
                          named_config(config_name).tu.l1i,
                          named_config(config_name).mem.l2):
            cache = SetAssocCache(cache_cfg)
            geom = geometry_of(cache_cfg)
            assert geom.n_sets == cache.n_sets
            assert geom.assoc == cache.assoc
            assert geom.block_bits == cache.block_bits
            assert geom.set_mask == cache.n_sets - 1

    def test_block_and_set_math(self):
        geom = geometry_of(named_config("orig").tu.l1d)
        byte_addr = (geom.n_sets + 3) << geom.block_bits
        block = geom.block_of(byte_addr)
        assert block == geom.n_sets + 3
        assert geom.set_index(block) == 3
