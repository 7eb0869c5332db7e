"""Tests for the provenance-attribution layer (repro.obs.attrib).

The contract under test, in order of importance:

1. **Bit-identity** — attaching an ``AttributionCollector`` never
   changes any simulated quantity (cycles, counters, misses), across
   the whole configuration ladder.
2. **Conservation** — every speculative fill's lifetime is accounted
   exactly once (full-simulation complement of the hierarchy-level
   property test).
3. **The paper's story** — on the Figure-11 WEC-vs-plain pair, wrong
   execution shows nonzero useful coverage and the WEC carries less
   wrong-execution pollution than plain wrong execution.
4. **End-to-end metric flow** — SimResult → ledger record →
   ``perf compare`` metric defs → Perfetto counter tracks.
5. **Surface** — the ``repro explain`` CLI (text, json, --vs) and the
   OBS002 lint rule guarding the provenance enum.
"""

from __future__ import annotations

import ast
import json

import pytest

from repro import SimParams, named_config, run_simulation
from repro.cli import main as cli_main
from repro.common.errors import AnalysisError
from repro.obs.attrib import (
    AttributionCollector,
    PROV_NAMES,
    PROVENANCES,
    SPECULATIVE_PROVS,
    attribution_delta,
    explain_report,
    explain_vs_report,
)
from repro.obs.compare import METRICS_BY_NAME, compare_records
from repro.obs.events import ATTRIB_POLLUTE, ATTRIB_USE, CAT_ATTRIB
from repro.obs.export import chrome_trace
from repro.obs.ledger import PerfRecord
from repro.obs.tracer import RingBufferTracer
from repro.lint.rules import check_module

FAST = SimParams(seed=7, scale=5e-5, warmup_invocations=0)

#: The ladder subset covering every sidecar policy plus plain wrong
#: execution and the no-speculation baseline.
LADDER = ["orig", "wth-wp", "wth-wp-vc", "wth-wp-wec", "nlp"]


def attributed_run(config="wth-wp-wec", params=FAST, **kwargs):
    attrib = AttributionCollector()
    result = run_simulation("181.mcf", named_config(config), params,
                            attrib=attrib, **kwargs)
    return result, attrib


# ---------------------------------------------------------------------------
# bit-identity and conservation
# ---------------------------------------------------------------------------


class TestInvariants:
    @pytest.mark.parametrize("config", LADDER)
    def test_attributed_runs_are_bit_identical(self, config):
        attributed, _ = attributed_run(config)
        plain = run_simulation("181.mcf", named_config(config), FAST)
        assert attributed.total_cycles == plain.total_cycles
        assert attributed.effective_misses == plain.effective_misses
        assert attributed.counters == plain.counters
        assert attributed.sim_metrics().keys() >= plain.sim_metrics().keys()

    @pytest.mark.parametrize("config", LADDER)
    def test_lifetime_conservation(self, config):
        result, _ = attributed_run(config)
        per_source = result.attribution["per_source"]
        for prov in SPECULATIVE_PROVS:
            src = per_source[PROV_NAMES[prov]]
            assert src["fills"] == (
                src["useful"] + src["late"] + src["unused"]
                + src["polluting"] + src["open"]
            ), (config, PROV_NAMES[prov], src)

    def test_disabled_collector_binds_nothing(self):
        class Disabled(AttributionCollector):
            enabled = False

        result = run_simulation("181.mcf", named_config("wth-wp-wec"),
                                FAST, attrib=Disabled())
        # The driver still asks for a summary, but no hook ever fired.
        assert result.attribution["totals"]["fills"] == 0

    def test_warmup_resets_measurement(self):
        warm = SimParams(seed=7, scale=5e-5, warmup_invocations=2)
        result, attrib = attributed_run(params=warm)
        totals = result.attribution["totals"]
        cold_totals = attributed_run()[0].attribution["totals"]
        assert 0 < totals["fills"] < cold_totals["fills"]


# ---------------------------------------------------------------------------
# the paper's story (Figure 11 pair)
# ---------------------------------------------------------------------------


class TestPaperStory:
    def test_wec_vs_plain_wrong_execution(self):
        wec, _ = attributed_run("wth-wp-wec")
        plain, _ = attributed_run("wth-wp")
        wec_m = wec.attribution["metrics"]
        plain_m = plain.attribution["metrics"]
        # Wrong execution prefetches usefully in both configurations...
        assert wec_m["wrong_coverage"] > 0
        assert plain_m["wrong_coverage"] > 0
        # ...but only the WEC absorbs the pollution (§3.2.1): under
        # plain wrong execution the wrong fills displace the L1's
        # demand working set and get charged for the re-misses.
        assert wec_m["wrong_polluting_mpki"] < plain_m["wrong_polluting_mpki"]
        report = explain_vs_report(wec, plain)
        assert "useful coverage" in report
        assert "absorbs the pollution" in report

    def test_orig_has_no_speculative_fills(self):
        result, _ = attributed_run("orig")
        per_source = result.attribution["per_source"]
        for prov in SPECULATIVE_PROVS:
            assert per_source[PROV_NAMES[prov]]["fills"] == 0
        assert result.attribution["totals"]["demand_fills"] > 0

    def test_wrong_path_sites_carry_branch_pcs(self):
        result, _ = attributed_run("wth-wp-wec")
        sites = result.attribution["sites"]
        assert sites, "wrong-path fills must be attributed to branch sites"
        assert all(s["wrong_fills"] > 0 for s in sites)
        assert any(s["pc"] != 0 for s in sites)
        regions = result.attribution["regions"]
        assert sum(r["demand_fills"] for r in regions) == (
            result.attribution["totals"]["demand_fills"]
        )


# ---------------------------------------------------------------------------
# end-to-end metric flow: SimResult -> ledger -> compare -> Perfetto
# ---------------------------------------------------------------------------


class TestMetricFlow:
    def test_sim_metrics_gain_attribution_headlines(self):
        result, _ = attributed_run()
        metrics = result.sim_metrics()
        for name in ("wrong_coverage", "wrong_accuracy",
                     "prefetch_accuracy", "polluting_mpki"):
            assert name in metrics
            assert name in METRICS_BY_NAME
            assert METRICS_BY_NAME[name].deterministic
        bare = run_simulation("181.mcf", named_config("wth-wp-wec"), FAST)
        assert "wrong_coverage" not in bare.sim_metrics()

    def test_ledger_to_compare_flow(self):
        wec, _ = attributed_run("wth-wp-wec")
        plain, _ = attributed_run("wth-wp")
        # Same (benchmark, config, seed, scale) key on both sides, as a
        # before/after comparison of one config across code changes has.
        ref = PerfRecord.from_result(plain, wall_s=1.0)
        new = PerfRecord.from_result(wec, wall_s=1.0)
        new.config = plain.config
        report = compare_records([ref], [new])
        names = {m for g in report.groups for m in g.metrics}
        assert "polluting_mpki" in names
        group = report.groups[0]
        mc = group.metrics["polluting_mpki"]
        assert mc.significant and not mc.worsened

    def test_serialization_round_trip(self):
        result, _ = attributed_run()
        clone = type(result).from_dict(json.loads(result.to_json()))
        assert clone.attribution == result.attribution

    def test_attrib_events_and_counter_tracks(self):
        tracer = RingBufferTracer(categories=(CAT_ATTRIB,))
        attrib = AttributionCollector(tracer=tracer)
        run_simulation("181.mcf", named_config("wth-wp-wec"), FAST,
                       tracer=tracer, attrib=attrib)
        events = tracer.events()
        kinds = {ev.kind for ev in events}
        assert ATTRIB_USE in kinds and ATTRIB_POLLUTE in kinds
        doc = chrome_trace(events, attrib_series=attrib.series())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        tracks = {e["name"] for e in counters}
        assert tracks == {"speculative fills", "useful spec uses",
                          "pollution misses"}
        # The series counts wrong + prefetch fills (victim demotions are
        # recycled L1 state, not new speculative traffic).
        from repro.obs.attrib import PREFETCH_PROVS, WRONG_PROVS

        series = attrib.series()
        assert sum(series["spec_fills"]) == (
            sum(attrib.summary()["per_source"][PROV_NAMES[p]]["fills"]
                for p in (*WRONG_PROVS, *PREFETCH_PROVS))
        )


# ---------------------------------------------------------------------------
# reports and CLI
# ---------------------------------------------------------------------------


class TestSurface:
    def test_explain_report_renders(self):
        result, _ = attributed_run()
        text = explain_report(result, top=3)
        assert "per-source attribution" in text or "source" in text
        for prov in PROVENANCES:
            if result.attribution["per_source"][PROV_NAMES[prov]]["fills"]:
                assert PROV_NAMES[prov] in text

    def test_report_requires_attribution(self):
        bare = run_simulation("181.mcf", named_config("wth-wp-wec"), FAST)
        with pytest.raises(AnalysisError):
            explain_report(bare)

    def test_attribution_delta_is_antisymmetric(self):
        a, _ = attributed_run("wth-wp-wec")
        b, _ = attributed_run("wth-wp")
        d_ab = attribution_delta(a.attribution, b.attribution)
        d_ba = attribution_delta(b.attribution, a.attribution)
        assert d_ab["demand_misses_delta"] == -d_ba["demand_misses_delta"]
        for name, row in d_ab["per_source"].items():
            other = d_ba["per_source"][name]
            for key in ("fills_delta", "covered_delta", "pollution_delta"):
                assert row[key] == -other[key]

    def test_explain_subcommand(self, capsys):
        rc = cli_main([
            "explain", "181.mcf", "wth-wp-wec",
            "--scale", "5e-5", "--seed", "7", "--top", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrong-path" in out and "timeliness" in out

    def test_explain_vs_json(self, capsys):
        rc = cli_main([
            "explain", "181.mcf", "wth-wp-wec", "--vs", "wth-wp",
            "--scale", "5e-5", "--seed", "7", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"] == "wth-wp-wec"
        assert doc["vs"]["config"] == "wth-wp"
        assert doc["attribution"]["metrics"]["wrong_coverage"] > 0

    def test_explain_rejects_unknown_config(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["explain", "181.mcf", "not-a-config"])


# ---------------------------------------------------------------------------
# OBS002 lint rule
# ---------------------------------------------------------------------------


class TestObs002:
    def _findings(self, src: str):
        return [
            f for f in check_module(
                ast.parse(src), "repro.mem.hierarchy", "x.py"
            )
            if f.rule == "OBS002"
        ]

    def test_flags_literal_provenance(self):
        assert self._findings("att.set_wrong_context(1, pc=5)\n")
        assert self._findings("att.on_prefetch_fill(0, b, lat, 3)\n")
        assert self._findings("att.on_prefetch_fill(0, b, lat, prov=4)\n")

    def test_accepts_named_constants(self):
        src = (
            "att.set_wrong_context(PROV_WRONG_PATH, pc=5)\n"
            "att.on_prefetch_fill(0, b, lat, PROV_NLP)\n"
            "att.on_prefetch_fill(0, b, lat, prov=PROV_NLP)\n"
        )
        assert not self._findings(src)

    def test_repo_sources_are_clean(self):
        from repro.lint.engine import lint_paths

        report = lint_paths(["src"], rules=["OBS002"])
        assert not report.findings
