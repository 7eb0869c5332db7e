"""Tests for the sweep execution engine (:mod:`repro.sim.executor`).

Covers the three load-bearing guarantees:

* parallel fan-out produces results identical to the serial path;
* a cold-cache run followed by a warm-cache run returns identical
  ``SimResult``s with zero simulations executed;
* a cell that raises in a worker reports its grid key and does not
  lose the other cells.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro import SimParams, named_config
from repro.common.errors import SweepError
from repro.obs.ledger import Ledger
from repro.sim import executor
from repro.sim.executor import (
    DiskCache,
    SweepCell,
    cell_key,
    code_version_token,
    config_fingerprint,
    run_cell,
    run_cells,
)
from repro.sim.fast.compile import _MEMOS as memos, program_memo
from repro.sim.results import SimResult
from repro.sim.sweep import benchmarks_of, run_grid

TINY = SimParams(seed=7, scale=2e-5, warmup_invocations=0)

BENCHES = ["175.vpr", "164.gzip"]
CONFIG_LABELS = ["orig", "vc", "nlp"]


def make_cells(params=TINY, benches=BENCHES, labels=CONFIG_LABELS):
    return [
        SweepCell(b, name, named_config(name), params)
        for b in benches
        for name in labels
    ]


class TestFingerprints:
    def test_stable(self):
        cfg = named_config("orig")
        assert config_fingerprint(cfg) == config_fingerprint(cfg)

    def test_covers_every_field(self):
        # The historical hand-maintained key omitted these knobs; the
        # dataclass-derived fingerprint must distinguish all of them.
        base = named_config("orig")
        variants = [
            dataclasses.replace(
                base, mem=dataclasses.replace(base.mem, memory_latency=300)
            ),
            dataclasses.replace(
                base,
                mem=dataclasses.replace(
                    base.mem,
                    l2=dataclasses.replace(base.mem.l2, block_size=256),
                ),
            ),
            dataclasses.replace(
                base,
                mem=dataclasses.replace(
                    base.mem,
                    l2=dataclasses.replace(base.mem.l2, hit_latency=20),
                ),
            ),
            dataclasses.replace(
                base,
                tu=dataclasses.replace(
                    base.tu,
                    branch=dataclasses.replace(
                        base.tu.branch, mispredict_penalty=9
                    ),
                ),
            ),
            dataclasses.replace(base, fork_delay=9),
        ]
        prints = {config_fingerprint(v) for v in variants}
        assert len(prints) == len(variants)
        assert config_fingerprint(base) not in prints

    def test_cell_key_covers_benchmark_and_params(self):
        cfg = named_config("orig")
        k = cell_key("175.vpr", cfg, TINY)
        assert k != cell_key("164.gzip", cfg, TINY)
        assert k != cell_key("175.vpr", cfg, dataclasses.replace(TINY, seed=8))
        assert k != cell_key("175.vpr", cfg, dataclasses.replace(TINY, scale=3e-5))

    def test_code_token_stable_within_process(self):
        assert code_version_token() == code_version_token()
        assert len(code_version_token()) == 16


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        cache.put("ab" + "0" * 62, result)
        assert cache.get("ab" + "0" * 62) == result
        assert len(cache) == 1

    def test_miss_and_corrupt_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "cd" + "1" * 62
        assert cache.get(key) is None
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None  # corrupt -> miss
        assert not path.exists()  # ... and dropped

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        # A misconfigured cache dir must not fail the sweep: put() warns
        # once and the run continues uncached.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not a directory")
        cache = DiskCache(blocker / "sub")
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put("ab" + "3" * 62, result)
        cache.put("ab" + "4" * 62, result)  # second write: silent no-op
        assert cache.get("ab" + "3" * 62) is None

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        cache.put("ef" + "2" * 62, result)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestParallelEqualsSerial:
    def test_grid_results_identical(self, tmp_path):
        serial = run_cells(make_cells(), jobs=1, cache=False)
        parallel = run_cells(make_cells(), jobs=4, cache=False)
        assert serial.results == parallel.results
        assert len(serial.results) == len(BENCHES) * len(CONFIG_LABELS)
        assert parallel.stats.executed == len(BENCHES) * len(CONFIG_LABELS)

    def test_run_grid_jobs_param_preserves_order(self, tmp_path):
        configs = {name: named_config(name) for name in CONFIG_LABELS}
        grid = run_grid(
            configs, benchmarks=BENCHES, params=TINY,
            jobs=4, cache_dir=tmp_path,
        )
        assert benchmarks_of(grid) == BENCHES
        assert list(grid) == [(b, label) for b in BENCHES
                              for label in CONFIG_LABELS]

    def test_progress_called_once_per_cell_parallel(self, tmp_path):
        calls = []
        run_cells(
            make_cells(), jobs=4, cache=False,
            progress=lambda b, l: calls.append((b, l)),
        )
        assert sorted(calls) == sorted(c.grid_key for c in make_cells())


class TestPersistentCache:
    def test_cold_then_warm(self, tmp_path):
        cold = run_cells(make_cells(), cache_dir=tmp_path)
        assert cold.stats.executed == len(BENCHES) * len(CONFIG_LABELS)
        assert cold.stats.cache_hits == 0

        warm = run_cells(make_cells(), cache_dir=tmp_path)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(BENCHES) * len(CONFIG_LABELS)
        assert warm.results == cold.results
        assert all(isinstance(r, SimResult) for r in warm.results.values())

    def test_warm_hits_in_parallel_mode_too(self, tmp_path):
        run_cells(make_cells(), cache_dir=tmp_path)
        warm = run_cells(make_cells(), jobs=4, cache_dir=tmp_path)
        assert warm.stats.executed == 0

    def test_param_change_misses(self, tmp_path):
        run_cells(make_cells(), cache_dir=tmp_path)
        other = dataclasses.replace(TINY, seed=9)
        again = run_cells(make_cells(params=other), cache_dir=tmp_path)
        assert again.stats.cache_hits == 0

    def test_cache_false_never_touches_disk(self, tmp_path):
        outcome = run_cells(make_cells(), cache=False, cache_dir=tmp_path)
        assert outcome.stats.cache_root is None
        assert len(DiskCache(tmp_path)) == 0


class TestFailureSurfacing:
    def bad_cells(self):
        return make_cells() + [
            SweepCell("nosuch.bench", "orig", named_config("orig"), TINY)
        ]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_failing_cell_reports_key_and_keeps_others(self, tmp_path, jobs):
        with pytest.raises(SweepError) as excinfo:
            run_cells(self.bad_cells(), jobs=jobs, cache_dir=tmp_path)
        err = excinfo.value
        assert "(nosuch.bench, orig)" in str(err)
        assert len(err.failures) == 1
        assert err.failures[0].benchmark == "nosuch.bench"
        # Every healthy cell still completed and is retrievable.
        assert len(err.outcome.results) == len(BENCHES) * len(CONFIG_LABELS)
        assert err.outcome.stats.failed == 1

    def test_non_strict_returns_partial_outcome(self, tmp_path):
        outcome = run_cells(self.bad_cells(), cache=False, strict=False)
        assert len(outcome.results) == len(BENCHES) * len(CONFIG_LABELS)
        assert outcome.stats.failed == 1
        assert outcome.stats.failures[0].label == "orig"


class TestDedup:
    """Cells that share a key (aliased labels) are simulated once."""

    def test_two_labels_over_one_config_execute_once(self, monkeypatch):
        calls = []
        execute = executor._execute_cell

        def counting(*args, **kwargs):
            calls.append(args[0])
            return execute(*args, **kwargs)

        monkeypatch.setattr(executor, "_execute_cell", counting)
        cfg = named_config("orig")
        cells = [SweepCell("175.vpr", label, cfg, TINY)
                 for label in ("orig", "orig@alias")]
        progressed = []
        outcome = run_cells(cells, cache=False,
                            progress=lambda b, l: progressed.append(l))
        assert calls == ["175.vpr"]
        a, b = (outcome.results[c.grid_key] for c in cells)
        assert a == b
        assert progressed == ["orig", "orig@alias"]
        stats = outcome.stats
        assert (stats.executed, stats.deduped, stats.cache_misses,
                stats.failed) == (1, 1, 1, 0)
        assert [r.source for r in stats.records] == ["run", "dedup"]
        assert (stats.cache_hits + stats.executed + stats.deduped
                + stats.failed) == stats.n_cells == len(cells)

    def test_fork_path_dedups_and_skips_ledger(self, tmp_path):
        cells = make_cells(benches=["175.vpr"], labels=["orig", "vc"])
        cells.append(SweepCell("175.vpr", "orig@alias", named_config("orig"),
                               TINY))
        outcome = run_cells(cells, jobs=2, cache=False, perf=True,
                            perf_dir=tmp_path)
        assert outcome.stats.jobs_used == 2
        assert (outcome.stats.executed, outcome.stats.deduped) == (2, 1)
        assert (outcome.results[("175.vpr", "orig@alias")]
                == outcome.results[("175.vpr", "orig")])
        # Like a cache hit, the deduped cell gets no ledger record.
        labels = sorted(r.config for r in Ledger(tmp_path).records())
        assert labels == ["orig", "vc"]

    def test_failed_leader_fails_every_cell_of_its_key(self):
        cells = [SweepCell("nosuch.bench", label, named_config("orig"), TINY)
                 for label in ("orig", "orig@alias")]
        outcome = run_cells(cells, cache=False, strict=False)
        assert outcome.stats.executed == 0
        assert outcome.stats.failed == 2
        assert [f.label for f in outcome.stats.failures] == ["orig",
                                                            "orig@alias"]
        # The follower is counted as deduped *and* failed: it was never
        # run, and it has no result.
        assert outcome.stats.deduped == 1
        assert outcome.results == {}


class TestRunCell:
    def test_single_cell_cached(self, tmp_path):
        a = run_cell("175.vpr", named_config("vc"), TINY, cache_dir=tmp_path)
        b = run_cell("175.vpr", named_config("vc"), TINY, cache_dir=tmp_path)
        assert a == b
        assert len(DiskCache(tmp_path)) == 1


class TestProgramLifetime:
    """A serial sweep holds each benchmark model, and the memos it owns,
    only while cells that need it remain; a parallel sweep builds and
    warms every model before it forks.  Nothing outlives the sweep."""

    A, B = BENCHES

    @pytest.fixture
    def tracked(self, monkeypatch):
        """Weak references to each program built and its memo, by name,
        and a snapshot at every cell start: the cell, the benchmarks whose
        program or memo is still alive, and the memos the sweep added."""
        built, starts = {}, []
        held = list(memos)  # programs alive before the sweep stay so
        build = executor.build_benchmark

        def building(name, *args, **kwargs):
            program = build(name, *args, **kwargs)
            built.setdefault(name, []).append(
                (weakref.ref(program), weakref.ref(program_memo(program))))
            return program

        def alive():
            return sorted(name for name, refs in built.items()
                          if any(ref() is not None
                                 for pair in refs for ref in pair))

        execute = executor._execute_cell

        def starting(benchmark, config, params, *args, **kwargs):
            starts.append(((benchmark, config.name), alive(),
                           len(memos) - len(held)))
            return execute(benchmark, config, params, *args, **kwargs)

        monkeypatch.setattr(executor, "build_benchmark", building)
        monkeypatch.setattr(executor, "_execute_cell", starting)
        return built, starts

    @pytest.mark.parametrize("perf", [False, True])
    def test_sweep_frees_its_programs(self, tracked, tmp_path, perf):
        built, starts = tracked
        A, B = self.A, self.B
        gc.disable()  # reference counting alone must free them
        try:
            outcome = run_cells(make_cells(labels=["orig", "wth-wp-wec"]),
                                cache=False, engine="fast", perf=perf,
                                perf_dir=tmp_path)
            assert outcome.stats.executed == 4
            # One model per (benchmark, scale), freed with its memo after
            # its last cell.  Perf recording warms a program before its
            # first cell; without it the first cell builds the program.
            assert {name: len(refs) for name, refs in built.items()} == {
                A: 1, B: 1}
            first_a, first_b = ([A], [B]) if perf else ([], [])
            assert [(cell, live) for cell, live, _ in starts] == [
                ((A, "orig"), first_a), ((A, "wth-wp-wec"), [A]),
                ((B, "orig"), first_b), ((B, "wth-wp-wec"), [B]),
            ]
            assert all(n_memos <= 1 for _, _, n_memos in starts)
            assert [ref() for refs in built.values()
                    for pair in refs for ref in pair] == [None] * 4
        finally:
            gc.enable()

    def test_failing_cell_still_drops_its_program(self, tracked, monkeypatch):
        _, starts = tracked
        A, B = self.A, self.B
        run = executor.run_program

        def failing(program, config, *args, **kwargs):
            if (program.name, config.name) == (A, "vc"):
                raise RuntimeError("boom")
            return run(program, config, *args, **kwargs)

        monkeypatch.setattr(executor, "run_program", failing)
        with pytest.raises(SweepError) as excinfo:
            run_cells(make_cells(labels=["orig", "vc"]), cache=False,
                      engine="fast")
        err = excinfo.value
        assert [(f.benchmark, f.label) for f in err.failures] == [(A, "vc")]
        assert "RuntimeError: boom" in str(err)
        # Raised after the whole grid: B's cells ran, after A was dropped.
        assert list(err.outcome.results) == [(A, "orig"), (B, "orig"),
                                             (B, "vc")]
        assert [(cell, live) for cell, live, _ in starts] == [
            ((A, "orig"), []), ((A, "vc"), [A]),
            ((B, "orig"), []), ((B, "vc"), [B]),
        ]

    def test_failing_warm_up_still_runs_and_drops(self, tracked, monkeypatch,
                                                  tmp_path):
        _, starts = tracked
        A, B = self.A, self.B
        cells = make_cells(labels=["orig", "wth-wp-wec"])
        plain = run_cells(cells, cache=False, engine="fast", perf=False)
        del starts[:]
        compile_only = executor.compile_program_fast

        def failing(program, *args, **kwargs):
            if program.name == A:
                raise RuntimeError("boom")
            return compile_only(program, *args, **kwargs)

        monkeypatch.setattr(executor, "compile_program_fast", failing)
        outcome = run_cells(cells, cache=False, engine="fast", perf=True,
                            perf_dir=tmp_path)
        assert outcome.stats.failures == []
        assert outcome.results == plain.results
        # The warm-up built A before its compile raised; A is still
        # dropped after its last cell.
        assert [(cell, live) for cell, live, _ in starts] == [
            ((A, "orig"), [A]), ((A, "wth-wp-wec"), [A]),
            ((B, "orig"), [B]), ((B, "wth-wp-wec"), [B]),
        ]

    def test_interleaved_order_holds_a_program_until_its_last_cell(
            self, tracked, tmp_path):
        built, starts = tracked
        A, B = self.A, self.B
        cells = [SweepCell(bench, label, named_config(label), TINY)
                 for bench, label in ((A, "orig"), (B, "orig"),
                                      (A, "wth-wp-wec"), (B, "wth-wp-wec"))]
        outcome = run_cells(cells, cache=False, engine="fast", perf=True,
                            perf_dir=tmp_path)
        assert {name: len(refs) for name, refs in built.items()} == {A: 1,
                                                                     B: 1}
        assert [(cell, live) for cell, live, _ in starts] == [
            ((A, "orig"), [A]), ((B, "orig"), sorted([A, B])),
            ((A, "wth-wp-wec"), sorted([A, B])), ((B, "wth-wp-wec"), [B]),
        ]
        assert list(outcome.results) == [c.grid_key for c in cells]

    def test_parallel_sweep_warms_every_program_before_forking(
            self, monkeypatch):
        pools = []
        held = list(memos)
        pool = executor.ProcessPoolExecutor

        def recording(*args, **kwargs):
            pools.append((sorted(executor._worker_programs),
                          len(memos) - len(held)))
            return pool(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", recording)
        cells = make_cells(labels=["orig", "wth-wp-wec"])
        outcome = run_cells(cells, jobs=2, cache=False, engine="fast")
        assert outcome.stats.jobs_used == 2
        # Both programs built, and both memos filled, before the fork.
        assert pools == [([(b, TINY.scale) for b in sorted(BENCHES)], 2)]
        assert executor._worker_programs == {}
        serial = run_cells(cells, cache=False, engine="fast")
        assert outcome.results == serial.results


class _Cyclic:
    """A 1 MiB payload that refers to itself: only the cyclic collector
    can free it."""

    def __init__(self):
        self.payload = bytearray(1 << 20)
        self.me = self


class TestGcFreeze:
    """A perf-recording sweep freezes the heap for its ledger walls and
    unfreezes it when it returns, whether or not a cell failed."""

    @pytest.fixture(autouse=True)
    def unfrozen(self):
        gc.unfreeze()
        yield
        gc.unfreeze()

    def test_sweep_unfreezes_what_it_froze(self, tmp_path):
        garbage = _Cyclic()
        ref = weakref.ref(garbage)
        outcome = run_cells(make_cells(benches=["164.gzip"], labels=["orig"]),
                            cache=False, engine="fast", perf=True,
                            perf_dir=tmp_path)
        assert outcome.stats.executed == 1
        assert gc.get_freeze_count() == 0
        del garbage
        gc.collect()
        assert ref() is None

    def test_failing_sweep_unfreezes(self, monkeypatch, tmp_path):
        def failing(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(executor, "run_program", failing)
        with pytest.raises(SweepError):
            run_cells(make_cells(benches=["164.gzip"], labels=["orig"]),
                      cache=False, engine="fast", perf=True,
                      perf_dir=tmp_path)
        assert gc.get_freeze_count() == 0

    def test_callers_freeze_is_kept(self, tmp_path):
        gc.freeze()
        frozen = gc.get_freeze_count()
        run_cells(make_cells(benches=["164.gzip"], labels=["orig"]),
                  cache=False, engine="fast", perf=True, perf_dir=tmp_path)
        assert gc.get_freeze_count() >= frozen > 0


class TestWarmup:
    """The fast engine's warm-up compiles once per memo key, each program
    just before its first cell, and leaves no compile work inside any
    cell's wall."""

    def test_two_seed_sweep_warms_each_key_once(self, monkeypatch, tmp_path):
        from repro.sim.fast.compile import CompiledRegion
        from repro.sim.fast.engine import _FastTU

        events = []
        compile_only = executor.compile_program_fast

        def counting(program, config, params):
            events.append(("warm", program.name, config.name, params.seed))
            return compile_only(program, config, params)

        monkeypatch.setattr(executor, "compile_program_fast", counting)
        running = []
        compiled_in_cells = []
        for cls, name in ((CompiledRegion, "_bind"),
                          (CompiledRegion, "_burst"),
                          (_FastTU, "_resolve")):
            def wrapper(*args, _real=getattr(cls, name), _name=name,
                        **kwargs):
                if running:
                    compiled_in_cells.append((running[-1], _name))
                return _real(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)
        execute = executor._execute_cell

        def tracking(benchmark, config, params, *args, **kwargs):
            events.append(("cell", benchmark, config.name, params.seed))
            running.append((benchmark, config.name, params.seed))
            try:
                return execute(benchmark, config, params, *args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(executor, "_execute_cell", tracking)
        benches = ("181.mcf", "164.gzip")
        labels = (("orig", "orig", 8), ("vc", "vc", 8),
                  ("wec", "wth-wp-wec", 8), ("wec@2tu", "wth-wp-wec", 2),
                  ("wp", "wp", 8))
        cells = [
            SweepCell(bench, f"{label}/{seed}",
                      named_config(name, n_tus=n_tus),
                      SimParams(seed=seed, scale=2e-5))
            for bench in benches
            for seed in (2003, 7)
            for label, name, n_tus in labels
        ]
        outcome = run_cells(cells, cache=False, engine="fast", perf=True,
                            perf_dir=tmp_path)
        assert outcome.stats.executed == len(cells)
        # orig and vc share a key (no wrong execution, 8 TUs); so do
        # nothing else: 4 keys per seed.  A program's keys are compiled
        # after the previous program's last cell, before its own first.
        assert events == [
            event
            for bench in benches
            for event in (
                [("warm", bench, name, seed)
                 for seed in (2003, 7)
                 for name in ("orig", "wth-wp-wec", "wth-wp-wec", "wp")]
                + [("cell", bench, name, seed)
                   for seed in (2003, 7)
                   for _, name, _ in labels])
        ]
        assert compiled_in_cells == []


class TestCacheAtomicity:
    """Crash/concurrency safety of ``DiskCache.put`` (tempfile + replace)."""

    def test_concurrent_writers_same_key_never_tear(self, tmp_path):
        # Many threads hammering one key must each publish a *complete*
        # document: the winning entry decodes to the result, and no
        # reader in between may ever see a torn/partial file.
        import threading

        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        key = "aa" + "5" * 62
        errors = []

        def writer():
            for _ in range(25):
                cache.put(key, result)

        def reader():
            for _ in range(50):
                got = DiskCache(tmp_path).get(key)
                if got is not None and got != result:
                    errors.append("torn read")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.get(key) == result
        # No temp droppings left behind.
        leftovers = [p for p in cache.root.rglob("*.tmp")]
        assert leftovers == []

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        import threading

        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        keys = [f"{i:02x}" + "6" * 62 for i in range(16)]

        def writer(my_keys):
            for k in my_keys:
                cache.put(k, result)

        threads = [
            threading.Thread(target=writer, args=(keys[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == len(keys)
        assert all(cache.get(k) == result for k in keys)


def _grid_into(queue, barrier, axis, cache_dir):
    """Child-process body: one cached ``run_grid``, results sent back."""
    barrier.wait()
    grid = run_grid(axis, benchmarks=BENCHES, params=TINY,
                    cache_dir=cache_dir)
    queue.put({f"{b}|{label}": r.to_dict() for (b, label), r in grid.items()})


class TestSharedCache:
    """Separate processes sweeping one grid share results via the cache."""

    @pytest.mark.skipif(not executor._fork_available(),
                        reason="needs the fork start method")
    def test_concurrent_processes_share_one_cache(self, tmp_path):
        import multiprocessing

        axis = {label: named_config(label) for label in CONFIG_LABELS}
        axis["orig@alias"] = named_config("orig")
        serial = run_grid(axis, benchmarks=BENCHES, params=TINY, cache=False)

        ctx = multiprocessing.get_context("fork")
        queue, barrier = ctx.Queue(), ctx.Barrier(2)
        procs = [ctx.Process(target=_grid_into,
                             args=(queue, barrier, axis, tmp_path))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        grids = [queue.get(timeout=300) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        for grid in grids:
            assert {k: SimResult.from_dict(v) for k, v in grid.items()} == {
                f"{b}|{label}": r for (b, label), r in serial.items()}

        cache = DiskCache(tmp_path)
        keys = {cell_key(b, cfg, TINY)
                for b in BENCHES for cfg in axis.values()}
        assert len(keys) == len(BENCHES) * len(CONFIG_LABELS)
        assert len(cache) == len(keys)
        assert all(cache.get(k) is not None for k in keys)
        assert list(cache.root.rglob("*.tmp")) == []


class TestCacheQuota:
    """LRU eviction and the ``$REPRO_CACHE_MAX_MB`` quota."""

    @pytest.fixture()
    def filled(self, tmp_path):
        import os as _os

        cache = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        keys = [f"{i:02x}" + "7" * 62 for i in range(6)]
        for age, key in enumerate(keys):
            cache.put(key, result)
            # Deterministic, strictly increasing recency: keys[0] oldest.
            _os.utime(cache._path(key), (1_000_000 + age, 1_000_000 + age))
        return cache, keys, result

    def entry_mb(self, cache):
        return cache.stats().total_bytes / len(cache) / (1024 * 1024)

    def test_stats_counts_entries_and_bytes(self, filled):
        cache, keys, _ = filled
        stats = cache.stats()
        assert stats.entries == len(keys)
        assert stats.total_bytes > 0
        assert stats.quota_mb is None
        assert stats.to_dict()["entries"] == len(keys)

    def test_prune_evicts_oldest_first(self, filled):
        cache, keys, result = filled
        budget = self.entry_mb(cache) * 2.5  # room for two entries
        pruned = cache.prune(budget)
        assert pruned.removed == 4
        assert pruned.kept == 2
        # The two *newest* survive.
        assert cache.get(keys[-1]) == result
        assert cache.get(keys[-2]) == result
        assert cache.get(keys[0]) is None

    def test_get_refreshes_recency(self, filled):
        import os as _os

        cache, keys, result = filled
        # Touch the oldest entry through get(); it must now outlive the
        # untouched middle entries (true LRU, not fill-order FIFO).
        assert cache.get(keys[0]) == result
        _os.utime(cache._path(keys[0]), (2_000_000, 2_000_000))
        cache.prune(self.entry_mb(cache) * 1.5)
        assert cache.get(keys[0]) == result
        assert cache.get(keys[1]) is None

    def test_prune_without_quota_raises(self, tmp_path):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_MB"):
            DiskCache(tmp_path).prune()

    def test_put_autoprunes_under_quota(self, tmp_path, monkeypatch):
        monkeypatch.setattr(DiskCache, "PRUNE_INTERVAL", 1)
        probe = DiskCache(tmp_path)
        result = run_cell("175.vpr", named_config("orig"), TINY, cache=False)
        probe.put("00" + "8" * 62, result)
        budget = probe.stats().total_mb * 2.5
        cache = DiskCache(tmp_path, max_mb=budget)
        for i in range(1, 8):
            cache.put(f"{i:02x}" + "8" * 62, result)
        # Every put scanned (interval 1): the directory never holds more
        # than the quota allows.
        assert len(cache) <= 2

    def test_env_quota_parsing(self, monkeypatch):
        from repro.common.errors import ConfigError
        from repro.sim.executor import default_cache_quota_mb

        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert default_cache_quota_mb() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "64")
        assert default_cache_quota_mb() == 64.0
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "not-a-number")
        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_MB"):
            default_cache_quota_mb()
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "-3")
        with pytest.raises(ConfigError, match="positive"):
            default_cache_quota_mb()
