"""Differential and unit tests for the fast trace-replay engine.

The fast engine (:mod:`repro.sim.fast`) must be *bit-identical* to the
oracle interpreter on every ``SimResult`` field — not statistically
close, equal.  The tests here enforce that contract across the full
configuration ladder and several seeds, compare compiled traces with
the oracle's trace generator address by address, check that a
program's memo dies with the program, pin down the engine-selection
rules in the driver, and cover the coherence hook (``bus_update``)
under every sidecar policy on both engines.

Executor fallback and perf-ledger clamping tests (the satellite fixes
that shipped with the engine) live here too since they are exercised
through the same engine plumbing.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
import weakref

import pytest

from repro.common.config import SidecarKind, SimParams
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
from repro.sim.fast.compile import CompiledRegion, program_memo
from repro.sim.fast.engine import _FastMachine
from repro.sim.fast.streams import FastStreamFactory
from repro.sta.configs import named_config
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.microbench import build_microbenchmark
from repro.workloads.patterns import StridedPattern
from repro.workloads.program import (
    ParallelRegionSpec,
    SequentialRegionSpec,
    WrongExecProfile,
)
from repro.workloads.tracegen import TraceGenerator

#: The differential ladder: every paper configuration plus the two
#: wrong-execution ablations and the stream-prefetch extension — one
#: config per distinct policy/flag combination the engines implement.
LADDER = (
    "orig", "wp", "wth", "wth-wp", "wth-wp-wec", "vc", "nlp", "stream-pf",
)
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
    @pytest.mark.parametrize("config_name", LADDER)
    def test_ladder_bit_identical(self, mcf_program, config_name, seed):
        cfg = named_config(config_name)
        params = SimParams(seed=seed, scale=SCALE)
        oracle = run_simulation(mcf_program, cfg, params, engine="oracle")
        fast = run_simulation(mcf_program, cfg, params, engine="fast")
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("kind", ["random", "mixed", "chase"])
    @pytest.mark.parametrize("config_name", ["wth-wp-wec", "nlp", "stream-pf"])
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

    def test_repeat_runs_deterministic(self, mcf_program):
        cfg = named_config("wth-wp-wec")
        params = SimParams(seed=42, scale=SCALE)
        first = run_simulation(mcf_program, cfg, params, engine="fast")
        second = run_simulation(mcf_program, cfg, params, engine="fast")
        assert first.to_dict() == second.to_dict()


# ---------------------------------------------------------------------------
# Compile level: bound traces against the oracle's trace generator
# ---------------------------------------------------------------------------

#: Iterations/chunks compared per region and seed.
N_COMPILED = 12


def _strided_region():
    """A small region on a ``StridedPattern``, which no benchmark uses.

    The self-looping block makes the per-walk occurrence count of
    ``col`` vary from 3 (scalar binding) to 9+ (vectorized binding).
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
        gen = TraceGenerator(StreamFactory(seed))
        streams = FastStreamFactory(seed)
        bind_paths = set()
        for region in compile_regions:
            comp = CompiledRegion(region)
            sequential = isinstance(region, SequentialRegionSpec)
            oracle = gen.chunk_trace if sequential else gen.iteration_trace
            for index in range(N_COMPILED):
                where = f"{region.name}[{index}] seed {seed}"
                want = oracle(region, index)
                got = comp.trace(streams, seed, index)
                assert got.load_addrs.typecode == "q", where
                assert got.load_addrs.tolist() == want.load_addrs.tolist(), where
                assert got.store_addrs.tolist() == want.store_addrs.tolist(), where
                assert isinstance(got.targets, tuple), where
                assert list(got.targets) == (
                    want.store_addrs[want.tstore_mask].tolist()), where
                bind_paths.update(e.scalar for e in got.path.bind)
                future = future_fast = None
                if sequential:
                    future = oracle(region, index + 1).load_addrs
                    future_fast = comp.trace(streams, seed, index + 1).load_addrs
                for b in range(want.n_branches):
                    burst = comp.wrong_path_addrs(streams, seed, got, b, index,
                                                  future_fast)
                    assert burst == () or burst.typecode == "q", where
                    assert list(burst) == gen.wrong_path_addrs(
                        region, want, b, index, future_loads=future), where
                if not sequential:
                    assert list(comp.wrong_thread_addrs(streams, seed, index)) == (
                        gen.wrong_thread_addrs(region, index).tolist()), where
        assert bind_paths == {True, False}  # scalar and vectorized binding


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
    ("stream-pf", SidecarKind.STREAM),
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
        got_f = fast.bus_update(addr)
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
    def test_fork_unavailable_recorded_and_warned(self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor, "_fork_available", lambda: False)
        manifest_path = tmp_path / "manifest.json"
        with pytest.warns(RuntimeWarning, match="fork-unavailable"):
            out = run_cells(_two_cells(), jobs=2, cache=False,
                            manifest_path=manifest_path)
        assert out.stats.serial_fallback == "fork-unavailable"
        assert out.stats.jobs_used == 1
        assert len(out.results) == 2
        manifest = json.loads(manifest_path.read_text())
        assert manifest["serial_fallback"] == "fork-unavailable"

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
    @pytest.mark.parametrize("config_name", ["orig", "wth-wp-wec", "stream-pf"])
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
