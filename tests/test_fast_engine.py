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
under every sidecar policy on both engines.

Executor fallback and perf-ledger clamping tests (the satellite fixes
that shipped with the engine) live here too since they are exercised
through the same engine plumbing.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

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
from repro.common.errors import ConfigError
from repro.common.rng import StreamFactory
from repro.isa.cfg import BlockSpec, BranchSpec, IterationCFG, MemSlot
from repro.mem.cache import DIRTY, WRONG, SetAssocCache
from repro.mem.hierarchy import TUMemSystem
from repro.mem.l2 import SharedL2
from repro.mem.layout import geometry_of
from repro.obs.hostprof import HostProfiler
from repro.obs.ledger import WALL_EPSILON_S, PerfRecord
from repro.sim import executor
from repro.sim.driver import run_simulation
from repro.sim.executor import SweepCell, default_engine, run_cells
from repro.sim.fast import compile as compile_mod
from repro.sim.fast import streams as streams_mod
from repro.sim.fast import compile_program_fast, run_program_fast
from repro.sim.fast.compile import CompiledRegion, program_memo
from repro.sim.fast.engine import _FastMachine, _FastTU
from repro.sim.fast.streams import FastStreamFactory
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

SEEDS = (2003, 7, 42)
SCALE = 1e-5


@pytest.fixture(scope="module", autouse=True)
def _no_env_sanitizer():
    """Strip a process-wide ``REPRO_SANITIZE=1`` (the CI sanitize leg).

    The observer policy is raise-not-fallback: with the env sanitizer
    active, every ``engine="fast"`` call here would be a ConfigError by
    design.  These tests pin engines explicitly and test the sanitizer
    interplay on purpose (TestEngineSelection), so the ambient knob is
    removed first.  Module-scoped so it precedes the module-scoped
    result fixtures.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_SANITIZE", raising=False)
        yield


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


@pytest.fixture(scope="module")
def compile_regions():
    regions = [region for name in BENCHMARK_NAMES
               for region in build_benchmark(name, scale=SCALE).body]
    return regions + [_strided_region()]


class TestCompiledTraces:
    """A compile bug shows here by region and index, not as a digest."""

    @pytest.mark.parametrize("seed", (2003, 7))
    def test_traces_match_trace_generator(self, compile_regions, seed):
        assert N_COMPILED >= 4 * streams_mod.BATCH_MIN
        gen = TraceGenerator(StreamFactory(seed))
        streams = FastStreamFactory(seed)
        paths_per_batch = []
        small_groups = 0
        for region in compile_regions:
            comp = CompiledRegion(region)
            sequential = isinstance(region, SequentialRegionSpec)
            oracle = gen.chunk_trace if sequential else gen.iteration_trace
            # One range bind, then the next index as a lone miss.
            traces = comp.trace_range(streams, seed, 0, N_COMPILED)
            assert sorted(comp.traces[seed]) == list(range(N_COMPILED))
            traces.append(comp.trace(streams, seed, N_COMPILED))
            paths_per_batch.append(len({id(t.path) for t in traces}))
            small_groups += sum(len(e.occ) < 8
                                for path in comp.paths.values()
                                for e in path.bind)
            wants = [oracle(region, index) for index in range(N_COMPILED + 1)]
            for index, (got, want) in enumerate(zip(traces, wants)):
                where = f"{region.name}[{index}] seed {seed}"
                assert got.load_addrs.typecode == "q", where
                assert got.load_addrs.tolist() == want.load_addrs.tolist(), where
                assert got.store_addrs.tolist() == want.store_addrs.tolist(), where
                assert isinstance(got.targets, tuple), where
                assert list(got.targets) == (
                    want.store_addrs[want.tstore_mask].tolist()), where
                if not sequential:
                    assert list(comp.wrong_thread_addrs(streams, seed, index)) == (
                        gen.wrong_thread_addrs(region, index).tolist()), where
            # Every burst of the batch, seeded together as an invocation
            # seeds them, against the oracle's one-at-a-time bursts.
            sites = [
                (traces[index], b, index,
                 traces[index + 1].load_addrs if sequential else None)
                for index in range(N_COMPILED)
                for b in range(wants[index].n_branches)
            ]
            assert sites, region.name
            comp.seed_wrong_paths(streams, seed, sites)
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
        # Some batch held several paths, and some path bound a pattern
        # with only a few occurrences.
        assert max(paths_per_batch) >= 2
        assert small_groups > 0

    def test_exact_fallback_binds_the_same_traces(self, compile_regions,
                                                   monkeypatch):
        region = compile_regions[0]
        fast = CompiledRegion(region).trace_range(
            FastStreamFactory(2003), 2003, 0, N_COMPILED)
        monkeypatch.setattr(streams_mod, "POOLING_EXACT", False)
        factory = FastStreamFactory(2003)
        assert not factory._fast
        exact = CompiledRegion(region).trace_range(factory, 2003, 0, N_COMPILED)
        assert [(t.load_addrs, t.store_addrs, t.targets) for t in exact] == [
            (t.load_addrs, t.store_addrs, t.targets) for t in fast]

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

    def test_fast_seeding_is_live(self):
        # Canary: a numpy whose pooling or integer promotion we do not
        # reproduce sends every stream down the exact (numpy) path.
        # Results stay right, so nothing else fails; only speed is lost.
        assert streams_mod.POOLING_EXACT
        assert streams_mod._self_check()
        assert FastStreamFactory(2003)._fast

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

    @pytest.mark.parametrize("observer", ["tracer", "sanitizer", "attrib"])
    def test_fast_rejects_event_level_observers(self, mcf_program, observer):
        # The fast engine has no event loop to observe; asking for one
        # must be a loud error, never a silently observer-less run.
        with pytest.raises(ConfigError, match=observer):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="fast",
                           **{observer: object()})

    def test_sanitize_env_raises_like_kwarg_observers(self, mcf_program,
                                                      monkeypatch):
        # One policy for every event-level observer: the env-derived
        # sanitizer raises the same ConfigError as explicit kwargs
        # (historically it warned and silently fell back to oracle).
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cfg = named_config("wth-wp")
        params = SimParams(scale=SCALE)
        with pytest.raises(ConfigError, match="REPRO_SANITIZE"):
            run_simulation(mcf_program, cfg, params, engine="fast")
        monkeypatch.delenv("REPRO_SANITIZE")
        # With the observer gone the fast engine runs again.
        run_simulation(mcf_program, cfg, params, engine="fast")

    def test_policy_message_names_escape_hatch(self, mcf_program):
        with pytest.raises(ConfigError, match="--engine oracle"):
            run_simulation(mcf_program, named_config("orig"),
                           SimParams(scale=SCALE), engine="fast",
                           tracer=object())

    def test_profiler_supported_on_fast(self, mcf_program):
        profiler = HostProfiler()
        run_simulation(mcf_program, named_config("orig"),
                       SimParams(scale=SCALE), engine="fast",
                       profiler=profiler)
        snap = profiler.snapshot(1.0)
        assert "engine.fast" in snap

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
