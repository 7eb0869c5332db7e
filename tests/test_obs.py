"""Tests for the observability subsystem (repro.obs).

Three properties matter more than any feature: tracing must never change
simulation results, sampled streams must be reproducible, and the
exported artifacts must be well-formed Chrome trace JSON.
"""

from __future__ import annotations

import json

import pytest

from repro import SimParams, named_config, run_simulation
from repro.cli import main as cli_main
from repro.common.errors import ConfigError
from repro.mem.cache import WRONG
from repro.obs.events import (
    CAT_BRANCH,
    CAT_MEM,
    CAT_THREAD,
    CAT_WEC,
    CATEGORIES,
    Event,
    ITER_RETIRE,
    KIND_CATEGORY,
    KIND_NAMES,
    L1_MISS,
    REGION_END,
    WEC_HIT,
    WP_ENTER,
    WRONG_LOAD,
    event_to_dict,
)
from repro.obs.export import REGIONS_TID, TRACE_PID, chrome_trace, write_jsonl
from repro.obs.tracer import IntervalMetrics, NullTracer, RingBufferTracer

FAST = SimParams(seed=7, scale=5e-5, warmup_invocations=0)
WEC_CFG = named_config("wth-wp-wec", n_tus=4)


def traced_run(tracer, params=FAST, config=WEC_CFG):
    return run_simulation("181.mcf", config, params, tracer=tracer)


# ---------------------------------------------------------------------------
# event taxonomy
# ---------------------------------------------------------------------------


class TestEvents:
    def test_every_kind_is_named_and_categorized(self):
        assert set(KIND_NAMES) == set(KIND_CATEGORY)
        assert set(KIND_CATEGORY.values()) <= set(CATEGORIES)
        assert len(set(KIND_NAMES.values())) == len(KIND_NAMES)

    def test_event_to_dict(self):
        ev = Event(100.0, WEC_HIT, 3, a=0x40, b=WRONG)
        d = event_to_dict(ev)
        assert d["kind"] == "wec_hit"
        assert d["cat"] == CAT_WEC
        assert d["tu"] == 3
        assert "dur" not in d and "tag" not in d
        d2 = event_to_dict(Event(1.0, REGION_END, 0, dur=50.0, tag="loop"))
        assert d2["dur"] == 50.0 and d2["tag"] == "loop"


# ---------------------------------------------------------------------------
# tracers
# ---------------------------------------------------------------------------


class TestRingBufferTracer:
    def test_records_and_orders_events(self):
        tr = RingBufferTracer(capacity=8)
        tr.now = 5.0
        tr.emit(L1_MISS, 1, 0x10)
        tr.emit(WEC_HIT, 2, 0x20, cycle=9.0)
        evs = tr.events()
        assert [e.kind for e in evs] == [L1_MISS, WEC_HIT]
        assert evs[0].cycle == 5.0 and evs[1].cycle == 9.0

    def test_ring_overwrites_oldest(self):
        tr = RingBufferTracer(capacity=4)
        for i in range(10):
            tr.emit(L1_MISS, 0, i, cycle=float(i))
        evs = tr.events()
        assert len(evs) == 4
        assert [e.a for e in evs] == [6, 7, 8, 9]
        assert tr.n_dropped == 6

    def test_category_filter(self):
        tr = RingBufferTracer(categories=[CAT_WEC])
        assert tr.wants(CAT_WEC)
        assert not tr.wants(CAT_BRANCH)
        tr.emit(L1_MISS, 0, 1)
        tr.emit(WEC_HIT, 0, 2)
        assert [e.kind for e in tr.events()] == [WEC_HIT]

    def test_metrics_bypass_filter_and_sampling(self):
        m = IntervalMetrics(window=100.0)
        tr = RingBufferTracer(categories=[CAT_BRANCH], sample=1000, metrics=m)
        # mem is filtered out of the ring, but the metrics carrier still
        # wants it and folds every event.
        assert tr.wants(CAT_MEM)
        for i in range(7):
            tr.emit(L1_MISS, 0, i, cycle=50.0)
        assert len(tr) == 0
        assert m._buckets[0][2] == 7

    def test_sampling_is_modular(self):
        tr = RingBufferTracer(sample=3)
        for i in range(9):
            tr.emit(L1_MISS, 0, i, cycle=float(i))
        assert [e.a for e in tr.events()] == [0, 3, 6]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RingBufferTracer(capacity=0)
        with pytest.raises(ConfigError):
            RingBufferTracer(sample=0)
        with pytest.raises(ConfigError):
            RingBufferTracer(categories=["nonsense"])


class TestIntervalMetrics:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            IntervalMetrics(window=0)

    def test_series_math(self):
        m = IntervalMetrics(window=100.0)
        # Window 0: 50 instructions / 20 loads, 10 misses, 4 wec hits,
        # 5 wrong loads.  Window 2: empty gap, then one retire.
        m.record(ITER_RETIRE, 10.0, 50, 20)
        for _ in range(10):
            m.record(L1_MISS, 20.0, 0, 0)
        for _ in range(4):
            m.record(WEC_HIT, 30.0, 0, 0)
        for _ in range(5):
            m.record(WRONG_LOAD, 40.0, 0, 0)
        m.record(ITER_RETIRE, 250.0, 30, 0)
        s = m.series()
        assert s["window_start"] == [0.0, 200.0]
        assert s["ipc"] == [0.5, 0.3]
        assert s["l1_miss_rate"] == [0.5, 0.0]
        assert s["wec_hit_rate"] == [0.4, 0.0]
        assert s["wrong_load_fraction"] == [0.2, 0.0]

    def test_ignores_unrelated_kinds(self):
        m = IntervalMetrics(window=10.0)
        m.record(WP_ENTER, 5.0, 1, 2)
        assert m.n_windows == 0


# ---------------------------------------------------------------------------
# tracing never changes results; streams are reproducible
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestDeterminism:
    def test_traced_equals_untraced(self):
        base = traced_run(None)
        null = traced_run(NullTracer())
        ring = traced_run(RingBufferTracer(metrics=IntervalMetrics()))
        d_base, d_null, d_ring = (
            r.to_dict() for r in (base, null, ring)
        )
        for d in (d_base, d_null, d_ring):
            d.pop("interval_series")
        assert d_base == d_null == d_ring

    def test_sampled_stream_reproducible(self):
        streams = []
        for _ in range(2):
            tr = RingBufferTracer(sample=5)
            traced_run(tr)
            streams.append(tr.events())
        assert streams[0] == streams[1]
        assert len(streams[0]) > 0

    def test_interval_series_surface(self):
        r = traced_run(IntervalMetrics(window=2048.0))
        s = r.interval_series
        assert s is not None and len(s["window_start"]) > 10
        assert r.to_dict()["interval_series"] == s
        assert traced_run(None).interval_series is None
        # Windowed IPC integrates back to the aggregate IPC.  Windows
        # overlap across TUs and the last one is partial, so the bound
        # is loose: it guards unit errors, not precision.
        mean_ipc = sum(s["ipc"]) / len(s["ipc"])
        assert 0.5 * r.ipc < mean_ipc < 2.0 * r.ipc
        assert max(s["wec_hit_rate"]) > 0.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


class TestExport:
    EVENTS = [
        Event(0.0, 3, 0, a=0, b=40, dur=90.0),       # ITER_SPAN
        Event(10.0, 17, 1, a=0x40, b=WRONG),         # WEC_HIT instant
        Event(120.0, 2, 0, a=0, b=4, dur=120.0, tag="loop"),  # REGION_END
    ]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(
            self.EVENTS,
            interval_series={"window_start": [0.0], "ipc": [0.5]},
            label="unit",
        )
        evs = doc["traceEvents"]
        spans = [e for e in evs if e["ph"] == "X"]
        assert {e["tid"] for e in spans} == {0, REGIONS_TID}
        region = next(e for e in spans if e["tid"] == REGIONS_TID)
        assert region["ts"] == 0.0 and region["dur"] == 120.0
        instants = [e for e in evs if e["ph"] == "i"]
        assert instants[0]["name"] == "wec_hit" and instants[0]["tid"] == 1
        counters = [e for e in evs if e["ph"] == "C"]
        assert counters[0]["args"] == {"IPC": 0.5}
        names = [e for e in evs if e["ph"] == "M"]
        assert any(e["args"].get("name") == "TU 1" for e in names)
        assert doc["otherData"]["label"] == "unit"
        json.dumps(doc)  # must be serializable

    def test_write_jsonl(self, tmp_path):
        path = write_jsonl(self.EVENTS, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[1])["kind"] == "wec_hit"


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestTraceCli:
    def test_trace_subcommand(self, tmp_path):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        rc = cli_main([
            "trace", "181.mcf", "wth-wp-wec",
            "--out", str(out), "--jsonl", str(jsonl),
            "--scale", "5e-5", "--seed", "7",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        evs = doc["traceEvents"]
        assert all(e.get("pid", TRACE_PID) == TRACE_PID for e in evs)
        wec_tids = {e["tid"] for e in evs if e.get("name") == "wec_hit"}
        wp_tids = {
            e["tid"] for e in evs
            if e.get("name") in ("wp_enter", "wp_exit", "wrong_load")
        }
        assert len(wec_tids) >= 2, "WEC hits must appear on >= 2 TU tracks"
        assert len(wp_tids) >= 2, "wrong-path events on >= 2 TU tracks"
        assert jsonl.exists() and jsonl.read_text().count("\n") > 100

    def test_trace_category_filter(self, tmp_path):
        out = tmp_path / "wec_only.json"
        rc = cli_main([
            "trace", "181.mcf", "wth-wp-wec",
            "--out", str(out), "--events", CAT_WEC,
            "--scale", "5e-5", "--window", "0",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] in ("i", "X")}
        assert cats == {CAT_WEC}

    def test_trace_rejects_unknown_category(self, capsys):
        rc = cli_main([
            "trace", "181.mcf", "wth-wp-wec", "--events", "bogus",
        ])
        assert rc == 2
        assert "unknown trace categories" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# SimResult guards
# ---------------------------------------------------------------------------


class TestIpcGuard:
    def test_zero_cycles_yields_zero_ipc(self):
        r = traced_run(None)
        # Constructing with zero cycles is rejected, but downstream
        # mutation (e.g. deserialized partial records) must not divide
        # by zero — mirror of the mispredict_rate guard.
        r.total_cycles = 0.0
        assert r.ipc == 0.0
        assert repr(r)  # __repr__ uses ipc; must not raise
