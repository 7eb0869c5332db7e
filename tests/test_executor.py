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
import json
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
from repro.sim.fast.compile import program_memo
from repro.sim.results import SimResult
from repro.sim.sweep import benchmarks_of, labels_of, run_grid

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
        assert labels_of(grid) == CONFIG_LABELS

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

    def test_manifest(self, tmp_path):
        manifest_path = tmp_path / "runs" / "manifest.json"
        run_cells(make_cells(), cache_dir=tmp_path, manifest_path=manifest_path)
        data = json.loads(manifest_path.read_text())
        assert data["n_cells"] == len(BENCHES) * len(CONFIG_LABELS)
        assert data["executed"] == data["n_cells"]
        assert len(data["cells"]) == data["n_cells"]
        assert all(c["wall_s"] >= 0 for c in data["cells"])
        assert data["failures"] == []


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
        assert (stats.executed, stats.deduped, stats.cache_misses) == (1, 1, 1)
        assert [r.source for r in stats.records] == ["run", "dedup"]
        assert (stats.cache_hits + stats.executed + stats.deduped
                + stats.failed) == stats.n_cells == len(cells)
        manifest = stats.to_manifest()
        assert (manifest["executed"], manifest["deduped"],
                manifest["failed"]) == (1, 1, 0)

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
    """A sweep's benchmark models, and the memos they own, die with it."""

    @pytest.mark.parametrize("perf", [False, True])
    def test_sweep_frees_its_programs(self, monkeypatch, tmp_path, perf):
        built = []
        build = executor.build_benchmark

        def tracking(*args, **kwargs):
            program = build(*args, **kwargs)
            built.append((weakref.ref(program),
                          weakref.ref(program_memo(program))))
            return program

        monkeypatch.setattr(executor, "build_benchmark", tracking)
        outcome = run_cells(make_cells(benches=["175.vpr"],
                                       labels=["orig", "vc"]),
                            cache=False, engine="fast", perf=perf,
                            perf_dir=tmp_path)
        assert outcome.stats.executed == 2
        assert len(built) == 1  # one model per (benchmark, scale)
        gc.collect()
        assert [ref() for ref in built[0]] == [None, None]


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
