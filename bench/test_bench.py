"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``.

The workloads run in-process at a tiny scale; the real benchmark runs
each sample in a fresh interpreter (``bench/run.py``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import run
import sample
import spans
from spec import NAME_RE, ROOT, load_spec, metrics_by_name, summarize

TINY = 2e-5
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def _run(workload, tmp_path, trace=False, **kwargs):
    """One in-process sample (and, traced, its layer metrics)."""
    t_spawn = time.monotonic()
    prepared = sample.WORKLOADS[workload](2003, tmp_path, scale=TINY, **kwargs)
    if not trace:
        return prepared(None), t_spawn
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        out = prepared(rec)
    finally:
        inst.uninstall()
    out["layers"] = spans.layer_metrics(rec, inst)
    return out, t_spawn


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------


def test_names_follow_the_grammar(spec):
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[kind]]
        for m in spec[kind]:
            assert UNIT_RE.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    assert not bad
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = metrics_by_name(spec, "end_to_end")["setup_s"]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_match_the_layer_registry(spec):
    declared = list(metrics_by_name(spec, "per_layer"))
    produced = spans.metric_names() + [f"model.{f}" for f in sample.MODEL_FIELDS]
    produced += ["claims_in_band", "trace.overhead_pct"]
    assert declared == produced


# ---------------------------------------------------------------------------
# Every metric for every workload
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload, spec, tmp_path):
    untraced, t_spawn = _run(workload, tmp_path / "a")
    traced, _ = _run(workload, tmp_path / "b", trace=True)
    assert untraced["failures"] == [] and traced["failures"] == []
    assert untraced["outputs"] == traced["outputs"]   # tracing never perturbs

    e2e = run.e2e_metrics(untraced, t_spawn)
    assert set(e2e) == set(metrics_by_name(spec, "end_to_end"))
    assert all(v > 0 for v in e2e.values()), e2e

    layers = run.layer_report(untraced, traced)
    assert set(layers) == set(metrics_by_name(spec, "per_layer"))
    assert None not in layers.values()
    fast = sum(v for k, v in layers.items() if k.startswith("sim.fast."))
    assert (fast == 0) == (workload == "explain")
    assert layers["trace.coverage_pct"] >= 90.0

    report = {"workloads": {workload: {"layers": layers}},
              "attempted": 1, "failed": 0}
    line = run.result_line(report, spec, trace=True)
    assert list(line["metrics"]) == list(metrics_by_name(spec, "per_layer"))


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------


def test_self_time_of_a_span_tree():
    #   root [0, 10]
    #   +-- a [1, 4]
    #   |   +-- c [2, 3]
    #   +-- b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_of_a_recorded_tree():
    rec = spans.Recorder()
    layer = spans.Layer("x.layer", (), calls="calls")
    for name, start, end, parent in ((spans.ROOT, 0.0, 10.0, -1),
                                     ("x.layer", 1.0, 4.0, 0),
                                     ("x.layer", 2.0, 3.0, 1),
                                     ("x.layer", 5.0, 9.0, 0)):
        rec.name_ids.append(rec.name_id(name))
        rec.parents.append(parent)
        rec.cells.append(-1)
        rec.starts.append(start)
        rec.ends.append(end)
    out = spans.layer_metrics(rec, spans.Installation(), [layer])
    assert out["x.layer.self_pct"] == pytest.approx(70.0)
    assert out["x.layer.calls"] == 3
    assert out["trace.coverage_pct"] == pytest.approx(70.0)
    assert out["trace.wall_s"] == pytest.approx(10.0)


def test_missing_wrap_target_is_reported_absent(tmp_path):
    layers = spans.LAYERS + (
        spans.Layer("gone.method",
                    ("repro.sim.fast.engine:_FastMachine.no_such_method",),
                    calls="calls"),
        spans.Layer("gone.module", ("repro.no_such_module:f",)),
    )
    rec = spans.Recorder()
    inst = spans.install(rec, layers)
    try:
        sample.cold_start(2003, tmp_path, scale=TINY,
                          benchmarks=["181.mcf"])(rec)
    finally:
        inst.uninstall()
    assert set(inst.absent) == {"gone.method", "gone.module"}
    out = spans.layer_metrics(rec, inst, layers)
    assert out["gone.method.self_pct"] is None
    assert out["gone.method.calls"] is None
    assert out["gone.module.self_pct"] is None
    assert out["sim.fast.engine.parallel.self_pct"] > 0


def test_uninstall_restores_the_program():
    import repro.cli
    import repro.sim.driver
    import repro.sim.fast.compile as compile_mod

    before = (repro.sim.driver.run_program, repro.cli.run_program,
              vars(compile_mod.CompiledRegion)["trace"])
    inst = spans.install(spans.Recorder())
    assert repro.cli.run_program is not before[1]
    inst.uninstall()
    after = (repro.sim.driver.run_program, repro.cli.run_program,
             vars(compile_mod.CompiledRegion)["trace"])
    assert after == before


def test_chrome_trace_is_loadable(tmp_path):
    rec = spans.Recorder()
    rec.begin_cell("181.mcf/orig")
    with rec.span(spans.ROOT):
        time.sleep(0.001)
    path = tmp_path / "t.json"
    assert spans.write_chrome_trace(rec, path, "w") == 1
    events = json.loads(path.read_text())["traceEvents"]
    assert events[-1]["name"] == spans.ROOT
    assert events[-1]["args"]["cell"] == "181.mcf/orig"


# ---------------------------------------------------------------------------
# Failures count against the run
# ---------------------------------------------------------------------------


def _fake(outputs, attempted=1, failures=()):
    return {"attempted": attempted, "failures": list(failures),
            "outputs": outputs}


def test_injected_failing_cell_raises_error_rate(tmp_path):
    out, _ = _run("cold-start", tmp_path, benchmarks=["181.mcf", "no.such"])
    attempted, failures = run.tally({"cold-start": [out]})
    assert attempted == 2
    assert len(failures) == 1 and "no.such" in failures[0]


def test_injected_parity_mismatch_raises_error_rate():
    outputs = {"model": {}, "parity": {"181.mcf/nlp": "aa", "164.gzip/nlp": "bb"}}
    samples = {"campaign": [_fake(outputs, attempted=2)]}
    oracle = {"parity": {"181.mcf/nlp": "aa", "164.gzip/nlp": "bb"},
              "failures": []}
    assert run.tally(samples, oracle) == (4, [])
    oracle["parity"]["164.gzip/nlp"] = "cc"
    attempted, failures = run.tally(samples, oracle)
    assert attempted == 4 and failures == ["parity: 164.gzip/nlp differs from the oracle"]


def test_nondeterministic_outputs_and_crashes_count_as_failures():
    samples = {"explain": [_fake({"model": {"l1_misses": 1}}),
                           _fake({"model": {"l1_misses": 2}})]}
    attempted, failures = run.tally(samples, crashes=["explain: exit 1"])
    assert attempted == 4
    assert len(failures) == 2


def test_conservation_violation_is_found():
    src = {"fills": 10, "useful": 4, "late": 1, "unused": 2, "polluting": 1,
           "open": 2}
    from repro.obs.attrib import PROV_NAMES, SPECULATIVE_PROVS

    attribution = {"per_source": {PROV_NAMES[p]: dict(src)
                                  for p in SPECULATIVE_PROVS}}
    assert sample.conservation_violations(attribution) == []
    attribution["per_source"][PROV_NAMES[SPECULATIVE_PROVS[0]]]["open"] = 3
    assert len(sample.conservation_violations(attribution)) == 1


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parent, change, want", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.0, 10.1, 9.95, 10.02, 10.0], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], "worse"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "better"),
    ([10.0, 14.0, 7.0, 12.0, 9.0], [10.0, 13.0, 8.0, 11.0, 9.5], "unresolved"),
])
def test_compare_verdicts(parent, change, want):
    assert compare.verdict(summarize(parent), summarize(change),
                           "lower", 0.1) == want


# ---------------------------------------------------------------------------
# Without the program the benchmark fails, and prints no result
# ---------------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explain", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
