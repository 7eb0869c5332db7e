"""Tests for the fidelity observatory (repro.obs.fidelity).

Covers the claim registry (parsing + validation), claim evaluation over
a real (tiny) campaign grid, the drift checker's polarity semantics,
export-document validation, the trajectory file, the markdown renderer
— and the bit-identity discipline: instrumenting a grid run for a
fidelity campaign must not change a single simulated cycle.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import SidecarKind, SimParams
from repro.common.errors import AnalysisError
from repro.obs.fidelity import (
    Claim,
    apply_perturbation,
    append_trend,
    campaign_sections,
    claim_band,
    claims_fingerprint,
    default_claims_path,
    diff_exports,
    evaluate_claims,
    load_claims,
    load_fidelity_export,
    load_trend,
    render_markdown,
    render_trend,
    run_campaign,
    validate_fidelity_export,
)
from repro.obs.ledger import Ledger
from repro.sim.sweep import run_grid
from repro.sta.configs import named_config
from repro.workloads import BENCHMARK_NAMES

TINY = dict(scale=2e-6, seed=2003)


def write_claims(tmp_path, claims, schema=1, kind="repro-claims"):
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(
        {"kind": kind, "schema": schema, "claims": claims}))
    return path


def minimal_claim(**over):
    data = {
        "id": "fig11.x", "source": "Figure 11", "title": "t",
        "kind": "bool", "expr": "True", "severity": "gate",
    }
    data.update(over)
    return data


class TestRegistry:
    def test_committed_registry_loads(self):
        claims = load_claims()
        assert len(claims) >= 40
        assert len({c.id for c in claims}) == len(claims)
        # Every claim id is namespaced by its source group.
        assert all("." in c.id for c in claims)

    def test_fingerprint_is_stable(self):
        assert claims_fingerprint() == claims_fingerprint()
        assert len(claims_fingerprint()) == 16

    def test_default_path_exists(self):
        assert default_claims_path().is_file()

    def test_rejects_wrong_kind(self, tmp_path):
        path = write_claims(tmp_path, [minimal_claim()], kind="nope")
        with pytest.raises(AnalysisError, match="repro-claims"):
            load_claims(path)

    def test_rejects_unknown_schema(self, tmp_path):
        path = write_claims(tmp_path, [minimal_claim()], schema=99)
        with pytest.raises(AnalysisError, match="schema"):
            load_claims(path)

    def test_rejects_duplicate_ids(self, tmp_path):
        path = write_claims(tmp_path, [minimal_claim(), minimal_claim()])
        with pytest.raises(AnalysisError, match="duplicate id"):
            load_claims(path)

    def test_value_claim_needs_band(self, tmp_path):
        path = write_claims(
            tmp_path, [minimal_claim(kind="value", expr="1.0")])
        with pytest.raises(AnalysisError, match="band"):
            load_claims(path)

    def test_band_lo_above_hi_rejected(self, tmp_path):
        path = write_claims(tmp_path, [minimal_claim(
            kind="value", expr="1.0", band=[5.0, 1.0])])
        with pytest.raises(AnalysisError, match="lo > hi"):
            load_claims(path)

    def test_band_needs_one_bound(self, tmp_path):
        path = write_claims(tmp_path, [minimal_claim(
            kind="value", expr="1.0", band=[None, None])])
        with pytest.raises(AnalysisError, match="at least one bound"):
            load_claims(path)

    def test_nearer_needs_paper_value(self, tmp_path):
        path = write_claims(tmp_path, [minimal_claim(
            kind="value", expr="1.0", band=[0, 1], better="nearer")])
        with pytest.raises(AnalysisError, match="paper_value"):
            load_claims(path)

    def test_unknown_requires_section_rejected(self, tmp_path):
        path = write_claims(
            tmp_path, [minimal_claim(requires=["fig99"])])
        with pytest.raises(AnalysisError, match="fig99"):
            load_claims(path)

    def test_claim_band_lookup(self):
        lo, hi = claim_band("fig17.missred_band")
        assert lo is not None and hi is not None and lo < hi

    def test_claim_band_unknown_claim(self):
        with pytest.raises(AnalysisError, match="no claim"):
            claim_band("fig99.nope")

    def test_claim_band_bandless_claim(self):
        with pytest.raises(AnalysisError, match="no band"):
            claim_band("fig11.wec_best_config")


class TestCampaignGrid:
    def test_sections_cover_the_declared_names(self):
        sections = campaign_sections()
        # ``tables`` is claims-only; fig10/fig17 reuse fig09/fig11 cells.
        assert set(sections) == {
            "fig08", "fig09", "fig11", "fig12", "fig13", "fig14",
            "fig15", "fig16",
        }
        labels = [l for cfgs in sections.values() for l in cfgs]
        assert len(labels) == len(set(labels)) == 51

    def test_perturbation_strips_every_wec(self):
        perturbed = apply_perturbation(campaign_sections(), "no-wec")
        kinds = {
            cfg.tu.sidecar.kind
            for cfgs in perturbed.values() for cfg in cfgs.values()
        }
        assert SidecarKind.WEC not in kinds

    def test_unknown_perturbation_rejected(self):
        with pytest.raises(AnalysisError, match="unknown perturbation"):
            apply_perturbation(campaign_sections(), "magic")


@pytest.fixture(scope="module")
def tiny_grid():
    """A 2-config × 2-benchmark grid claim expressions can run over."""
    axis = {
        "orig": named_config("orig", n_tus=2),
        "wth-wp-wec": named_config("wth-wp-wec", n_tus=2),
    }
    return run_grid(axis, benchmarks=["164.gzip", "181.mcf"],
                    params=SimParams(**TINY), cache=False, engine="fast")


def make_claim(**over):
    data = minimal_claim()
    data.update(over)
    return Claim.from_dict(data, 0)


class TestEvaluateClaims:
    def test_bool_claim_pass_and_fail(self, tiny_grid):
        claims = [
            make_claim(id="a.t", expr="len(benchmarks) == 2"),
            make_claim(id="a.f", expr="len(benchmarks) == 99"),
        ]
        by_id = {s.claim.id: s for s in
                 evaluate_claims(claims, tiny_grid, ["fig11"])}
        assert by_id["a.t"].status == "pass"
        assert by_id["a.t"].measured == 1.0
        assert by_id["a.f"].status == "fail"
        assert by_id["a.f"].measured == 0.0

    def test_value_claim_scored_against_band(self, tiny_grid):
        claims = [
            make_claim(id="a.in", kind="value", band=[-1000, 1000],
                       expr="avg_speedup('wth-wp-wec')"),
            make_claim(id="a.out", kind="value", band=[1000, None],
                       expr="avg_speedup('wth-wp-wec')"),
        ]
        by_id = {s.claim.id: s for s in
                 evaluate_claims(claims, tiny_grid, ["fig11"])}
        assert by_id["a.in"].status == "pass"
        assert by_id["a.out"].status == "fail"
        assert by_id["a.in"].measured == by_id["a.out"].measured

    def test_missing_section_skips_with_reason(self, tiny_grid):
        scored, = evaluate_claims(
            [make_claim(requires=["fig13"])], tiny_grid, ["fig11"])
        assert scored.status == "skipped"
        assert "fig13" in scored.reason

    def test_broken_expression_skips_with_reason(self, tiny_grid):
        scored, = evaluate_claims(
            [make_claim(expr="speedup('164.gzip', 'nosuch')")],
            tiny_grid, ["fig11"])
        assert scored.status == "skipped"
        assert "nosuch" in scored.reason

    def test_expressions_cannot_reach_builtins(self, tiny_grid):
        scored, = evaluate_claims(
            [make_claim(expr="open('/etc/hostname')")],
            tiny_grid, ["fig11"])
        assert scored.status == "skipped"
        assert "open" in scored.reason

    def test_never_drops_a_claim(self, tiny_grid):
        claims = load_claims()
        scored = evaluate_claims(claims, tiny_grid, ["tables"])
        assert len(scored) == len(claims)
        assert all(s.status != "skipped" or s.reason for s in scored)


class TestBitIdentity:
    def test_instrumented_grid_identical_to_plain(self, tmp_path):
        """A fidelity-instrumented run must not change a single cycle."""
        axis = {
            "orig": named_config("orig", n_tus=2),
            "wth-wp-wec": named_config("wth-wp-wec", n_tus=2),
        }
        kwargs = dict(benchmarks=["164.gzip", "181.mcf"],
                      params=SimParams(**TINY), cache=False, engine="fast")
        plain = run_grid(axis, **kwargs)
        instrumented = run_grid(
            axis, perf_context="fidelity", perf_dir=tmp_path, **kwargs)
        assert set(plain) == set(instrumented)
        for key in plain:
            assert plain[key].total_cycles == instrumented[key].total_cycles
            assert plain[key].ipc == instrumented[key].ipc


class TestRunCampaign:
    def test_small_campaign_scores_every_claim(self, tmp_path):
        doc = run_campaign(sections=["fig12"], cache=False, engine="fast",
                           perf_dir=tmp_path, **TINY)
        assert validate_fidelity_export(doc) == []
        claims = load_claims()
        assert len(doc["claims"]) == len(claims)
        by_id = {c["id"]: c for c in doc["claims"]}
        # fig12-only claims evaluate; claims needing unrun sections skip.
        assert by_id["fig12.wec_robust_to_assoc"]["status"] in ("pass", "fail")
        assert by_id["fig11.wec_avg_speedup"]["status"] == "skipped"
        assert "fig11" in by_id["fig11.wec_avg_speedup"]["reason"]
        # "tables" rides along even when not requested.
        assert by_id["tables.t3_constant_issue"]["status"] == "pass"
        assert doc["sections"][0] == "tables"
        # Every simulated cell landed in the ledger under perf_dir.
        records = Ledger(tmp_path).records()
        assert len(records) == doc["n_cells"]
        assert {r.context for r in records} == {"fidelity"}

    def test_unknown_section_rejected(self):
        with pytest.raises(AnalysisError, match="unknown section"):
            run_campaign(sections=["fig99"], **TINY)

    def test_perturbed_campaign_recorded_in_params(self):
        doc = run_campaign(sections=["fig12"], cache=False, engine="fast",
                           perturb="no-wec", **TINY)
        assert doc["params"]["perturb"] == "no-wec"


def scored_doc(claims):
    return {
        "kind": "repro-fidelity-export", "schema": 1,
        "params": {"scale": 2e-6, "seed": 2003, "engine": "", "perturb": ""},
        "sections": ["tables"], "n_cells": 0,
        "provenance": {"git_sha": "", "code_token": "", "claims_fp": ""},
        "summary": {"gate": {}, "track": {}},
        "claims": claims,
    }


def scored_claim(**over):
    data = {
        "id": "fig11.x", "source": "Figure 11", "title": "t",
        "kind": "value", "severity": "gate", "requires": [], "unit": "%",
        "paper": "", "paper_value": None, "band": [0, 100],
        "better": "higher", "notes": "", "status": "pass",
        "measured": 10.0, "reason": "",
    }
    data.update(over)
    return data


class TestDiffExports:
    def test_no_drift(self):
        doc = scored_doc([scored_claim()])
        diff = diff_exports(doc, doc)
        assert not diff.gate_regressions and not diff.track_regressions
        assert "ok: no fidelity drift" in diff.render()

    def test_status_worsening_regresses(self):
        base = scored_doc([scored_claim()])
        new = scored_doc([scored_claim(status="fail")])
        diff = diff_exports(base, new)
        assert len(diff.gate_regressions) == 1
        assert "REGRESSION" in diff.render()

    def test_status_improvement_is_not_a_regression(self):
        base = scored_doc([scored_claim(status="fail")])
        new = scored_doc([scored_claim(status="pass", measured=10.5)])
        assert not diff_exports(base, new).gate_regressions

    def test_higher_polarity_drift(self):
        base = scored_doc([scored_claim(measured=10.0)])
        worse = scored_doc([scored_claim(measured=8.0)])   # -20 %
        better = scored_doc([scored_claim(measured=12.0)])
        assert diff_exports(base, worse, threshold_pct=10).gate_regressions
        assert not diff_exports(base, worse, threshold_pct=25).gate_regressions
        assert not diff_exports(base, better, threshold_pct=10) \
            .gate_regressions

    def test_lower_polarity_drift(self):
        base = scored_doc([scored_claim(better="lower", measured=10.0)])
        worse = scored_doc([scored_claim(better="lower", measured=12.0)])
        assert diff_exports(base, worse, threshold_pct=10).gate_regressions

    def test_nearer_polarity_drift(self):
        base = scored_doc(
            [scored_claim(better="nearer", paper_value=10.0, measured=10.0)])
        away = scored_doc(
            [scored_claim(better="nearer", paper_value=10.0, measured=12.0)])
        toward = scored_doc(
            [scored_claim(better="nearer", paper_value=10.0, measured=9.9)])
        assert diff_exports(base, away, threshold_pct=10).gate_regressions
        assert not diff_exports(base, toward, threshold_pct=10) \
            .gate_regressions

    def test_track_severity_never_gates(self):
        base = scored_doc([scored_claim(severity="track")])
        new = scored_doc([scored_claim(severity="track", status="fail")])
        diff = diff_exports(base, new)
        assert not diff.gate_regressions
        assert len(diff.track_regressions) == 1
        assert "gates held" in diff.render()

    def test_missing_claim_regresses(self):
        base = scored_doc([scored_claim()])
        diff = diff_exports(base, scored_doc([]))
        assert len(diff.gate_regressions) == 1
        assert diff.rows[0].new_status == "missing"

    def test_new_claim_is_informational(self):
        new = scored_doc([scored_claim()])
        diff = diff_exports(scored_doc([]), new)
        assert not diff.gate_regressions
        assert diff.rows[0].note == "new claim (not in baseline)"

    def test_bool_claims_have_no_numeric_drift(self):
        base = scored_doc([scored_claim(kind="bool", measured=1.0)])
        new = scored_doc([scored_claim(kind="bool", measured=1.0)])
        assert diff_exports(base, new).rows[0].drift_pct is None


class TestExportDocs:
    def test_validate_rejects_wrong_kind(self):
        doc = scored_doc([scored_claim()])
        doc["kind"] = "nope"
        assert any("kind" in p for p in validate_fidelity_export(doc))

    def test_validate_rejects_skip_without_reason(self):
        doc = scored_doc([scored_claim(status="skipped", reason="")])
        assert any("without a reason" in p
                   for p in validate_fidelity_export(doc))

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(scored_doc([scored_claim()])))
        assert load_fidelity_export(path)["claims"][0]["id"] == "fig11.x"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(AnalysisError, match="no fidelity export"):
            load_fidelity_export(tmp_path / "absent.json")

    def test_load_invalid_doc(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "nope"}))
        with pytest.raises(AnalysisError, match="not a valid"):
            load_fidelity_export(path)


class TestTrend:
    def test_append_load_render(self, tmp_path):
        doc = scored_doc([scored_claim(paper_value=9.7)])
        append_trend(doc, tmp_path)
        append_trend(doc, tmp_path)
        entries = load_trend(tmp_path)
        assert len(entries) == 2
        assert entries[0]["headline"] == {"fig11.x": 10.0}
        text = render_trend(entries)
        assert "2 campaign(s)" in text
        assert "x=+10.0" in text

    def test_load_trend_missing(self, tmp_path):
        with pytest.raises(AnalysisError, match="no fidelity trajectory"):
            load_trend(tmp_path)


class TestRenderMarkdown:
    def test_report_shape(self):
        doc = scored_doc([
            scored_claim(paper="9.7 %", paper_value=9.7, band=[6, 14]),
            scored_claim(id="fig11.skip", status="skipped",
                         measured=None, reason="campaign did not run it"),
        ])
        doc["summary"] = {"gate": {"pass": 1, "fail": 0, "skipped": 1},
                          "track": {"pass": 0, "fail": 0, "skipped": 0}}
        text = render_markdown(doc)
        assert "**Verdict: 1/2 gate claims in band" in text
        assert "| [6, 14] |" in text
        assert "✅ pass" in text
        assert "*(skipped: campaign did not run it)*" in text
        assert "do not edit by hand" in text

    def test_rejects_invalid_doc(self):
        with pytest.raises(AnalysisError, match="invalid export"):
            render_markdown({"kind": "nope"})
