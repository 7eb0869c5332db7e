"""Tests for the ``python -m repro`` command-line interface.

Exit-code convention (covered below for ``trace``, ``diff`` and ``perf``):
0 = success, 1 = failed run or significant perf regression,
2 = usage error.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.obs.ledger import Ledger, validate_export
from tests.test_perf_obs import make_record


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--benchmark", "mcf"])
        assert args.config == "wth-wp-wec"
        assert args.scale == 2e-4
        assert args.tus == 8

    def test_run_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--benchmark", "mcf", "--config", "magic"]
            )

    def test_compare_config_list(self):
        args = build_parser().parse_args(
            ["compare", "--benchmark", "vpr", "--configs", "vc,nlp"]
        )
        assert args.configs == "vc,nlp"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "181.mcf" in out
        assert "wth-wp-wec" in out

    def test_run(self, capsys):
        rc = main(
            ["run", "--benchmark", "gzip", "--config", "orig",
             "--scale", "2e-5", "--tus", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "ipc" in out

    def test_run_wec_reports_wrong_loads(self, capsys):
        main(["run", "--benchmark", "gzip", "--config", "wth-wp-wec",
              "--scale", "2e-5", "--tus", "2"])
        assert "wrong loads" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--benchmark", "vpr", "--configs", "vc",
             "--scale", "2e-5", "--tus", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "vc" in out

    def test_compare_unknown_config(self, capsys):
        rc = main(
            ["compare", "--benchmark", "vpr", "--configs", "vc,nosuch",
             "--scale", "2e-5"]
        )
        assert rc == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_suite(self, capsys):
        rc = main(["suite", "--config", "vc", "--scale", "1e-5", "--tus", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "average" in out
        for bench in ("175.vpr", "177.mesa"):
            assert bench in out


class TestTraceExitCodes:
    def test_ok_run_returns_0(self, tmp_path, capsys):
        rc = main(["trace", "164.gzip", "wth-wp-wec", "--scale", "1e-5",
                   "--tus", "2", "--out", str(tmp_path / "t.json")])
        assert rc == 0
        assert "trace" in capsys.readouterr().out

    def test_unknown_benchmark_is_usage_error(self, tmp_path, capsys):
        rc = main(["trace", "999.nope", "wth-wp-wec",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "trace:" in capsys.readouterr().err

    def test_bad_event_category_is_usage_error(self, tmp_path, capsys):
        rc = main(["trace", "164.gzip", "wth-wp-wec", "--events", "bogus",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "trace:" in capsys.readouterr().err


DIFF_ARGS = ["diff", "--benchmarks", "164.gzip", "--configs", "orig,wth-wp-wec",
             "--scale", "1e-5"]


class TestDiffCli:
    @pytest.fixture(autouse=True)
    def _no_env_sanitizer(self, monkeypatch):
        # The fast engine refuses the sanitizer; diff pins both engines.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def test_default_configs_are_the_papers_eight(self):
        from repro.sta.configs import CONFIG_NAMES
        args = build_parser().parse_args(["diff"])
        assert args.configs.split(",") == list(CONFIG_NAMES)

    def test_identical_engines_return_0(self, capsys):
        assert main(DIFF_ARGS) == 0
        out = capsys.readouterr().out
        assert "diff: 2 cell(s) bit-identical across engines" in out

    def test_non_paper_config_is_usage_error(self, capsys):
        # The WEC fed by wrong threads alone is a valid machine, but not
        # one of the paper's eight named configurations.
        rc = main(["diff", "--benchmarks", "164.gzip",
                   "--configs", "orig,wth-wec", "--scale", "1e-5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "diff: unknown configuration(s): wth-wec" in err

    def test_divergence_returns_1_naming_the_field(self, monkeypatch, capsys):
        import repro.cli as cli
        real = cli.run_program

        def perturbed(program, cfg, params, engine=None):
            result = real(program, cfg, params, engine=engine)
            if engine == "fast" and cfg.name == "wth-wp-wec":
                counters = dict(result.counters)
                counters["tu0.mem.loads"] += 1
                result = dataclasses.replace(result, counters=counters)
            return result

        monkeypatch.setattr(cli, "run_program", perturbed)
        assert main(DIFF_ARGS) == 1
        err = capsys.readouterr().err
        assert "1 of 2 cell(s) diverge" in err
        assert "164.gzip/wth-wp-wec seed=2003:" in err
        assert "counters.tu0.mem.loads: oracle=" in err


RECORD_ARGS = ["perf", "record", "181.mcf", "wth-wp-wec",
               "--scale", "2e-5", "--tus", "2"]


class TestPerfCli:
    def test_record_appends_and_reports_0(self, tmp_path, capsys):
        rc = main(RECORD_ARGS + ["--dir", str(tmp_path), "--repeat", "2",
                                 "--label", "x"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "ledger" in out
        records = Ledger(tmp_path).records(label="x")
        assert len(records) == 2
        assert records[0].context == "cli.perf.record"
        assert records[0].sim["speedup_pct"] > 0

    def test_record_unknown_benchmark_is_usage_error(self, tmp_path, capsys):
        rc = main(["perf", "record", "999.nope", "orig",
                   "--dir", str(tmp_path)])
        assert rc == 2
        assert "perf record:" in capsys.readouterr().err

    def test_record_bad_repeat_is_usage_error(self, tmp_path, capsys):
        rc = main(RECORD_ARGS + ["--dir", str(tmp_path), "--repeat", "0"])
        assert rc == 2

    def test_identical_sides_compare_clean(self, tmp_path, capsys):
        assert main(RECORD_ARGS + ["--dir", str(tmp_path),
                                   "--label", "a"]) == 0
        assert main(RECORD_ARGS + ["--dir", str(tmp_path),
                                   "--label", "b"]) == 0
        rc = main(["perf", "compare", "a", "b", "--dir", str(tmp_path),
                   "--threshold", "10%"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no significant regressions" in out
        assert "identical" in out  # deterministic sim metrics match

    def test_regression_returns_1(self, tmp_path, capsys):
        ref, new = Ledger(tmp_path / "ref"), Ledger(tmp_path / "new")
        ref.append(make_record(cycles=1000.0))
        new.append(make_record(cycles=1200.0))  # deterministic +20%
        rc = main(["perf", "compare", str(tmp_path / "ref"),
                   str(tmp_path / "new"), "--threshold", "10%"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression" in captured.err

    def test_missing_side_is_usage_error(self, tmp_path, capsys):
        rc = main(["perf", "compare", "nolabel", "nolabel",
                   "--dir", str(tmp_path)])
        assert rc == 2
        assert "perf compare:" in capsys.readouterr().err

    def test_bad_threshold_is_usage_error(self, tmp_path, capsys):
        Ledger(tmp_path).append(make_record())
        rc = main(["perf", "compare", str(tmp_path), str(tmp_path),
                   "--threshold", "lots"])
        assert rc == 2

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        Ledger(tmp_path).append(make_record())
        rc = main(["perf", "compare", str(tmp_path), str(tmp_path),
                   "--metrics", "bogus"])
        assert rc == 2

    def test_report_renders_markdown_and_exports(self, tmp_path, capsys):
        assert main(RECORD_ARGS + ["--dir", str(tmp_path)]) == 0
        out_json = tmp_path / "export.json"
        rc = main(["perf", "report", "--dir", str(tmp_path),
                   "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Performance trajectory" in out
        assert "181.mcf / wth-wp-wec" in out
        assert "Latest host profile" in out
        doc = json.loads(out_json.read_text())
        assert validate_export(doc) == []

    def test_report_empty_ledger_is_usage_error(self, tmp_path, capsys):
        rc = main(["perf", "report", "--dir", str(tmp_path)])
        assert rc == 2
        assert "perf report:" in capsys.readouterr().err

    def test_report_unknown_label_is_usage_error(self, tmp_path, capsys):
        Ledger(tmp_path).append(make_record(label="real"))
        rc = main(["perf", "report", "--dir", str(tmp_path),
                   "--label", "ghost"])
        assert rc == 2


@pytest.fixture(scope="module")
def fidelity_export(tmp_path_factory):
    """One tiny committed-style campaign export shared by the CLI tests.

    fig11-only at a tiny scale: enough cells for the fig11/fig17 gate
    claims to evaluate (everything else scores skipped-with-reason).
    """
    root = tmp_path_factory.mktemp("fidelity")
    out = root / "baseline.json"
    rc = main(["fidelity", "run", "--scale", "2e-6",
               "--sections", "fig11", "--engine", "fast", "--no-cache",
               "--dir", str(root / "perf"),
               "--out", str(out), "--md", str(root / "FIDELITY.md")])
    assert rc == 0
    return root, out


class TestFidelityCli:
    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["fidelity", "run"])
        assert args.scale == 2e-4
        assert args.seed == 2003
        assert args.perturb is None

    def test_check_parser_defaults(self):
        args = build_parser().parse_args(["fidelity", "check", "b.json"])
        assert args.threshold == "10%"
        assert args.new is None

    def test_run_scores_every_claim(self, fidelity_export):
        from repro.obs.fidelity import load_claims, validate_fidelity_export
        root, out = fidelity_export
        doc = json.loads(out.read_text())
        assert validate_fidelity_export(doc) == []
        assert len(doc["claims"]) == len(load_claims())
        assert all(c["status"] != "skipped" or c["reason"]
                   for c in doc["claims"])
        md = (root / "FIDELITY.md").read_text()
        assert md.startswith("# Fidelity report")
        assert (root / "perf" / "fidelity.jsonl").is_file()

    def test_run_unknown_section_is_usage_error(self, tmp_path, capsys):
        rc = main(["fidelity", "run", "--scale", "2e-6",
                   "--sections", "fig99", "--dir", str(tmp_path)])
        assert rc == 2
        assert "fidelity run:" in capsys.readouterr().err

    def test_dir_leaves_environment_unchanged(self, tmp_path, monkeypatch):
        # --dir reaches the ledger as an argument; it must not leak into
        # $REPRO_PERF_DIR, where every later sweep in this process would
        # pick it up -- not even when the command fails.
        monkeypatch.delenv("REPRO_PERF_DIR", raising=False)
        before = dict(os.environ)
        rc = main(["fidelity", "run", "--scale", "2e-6",
                   "--sections", "fig99", "--dir", str(tmp_path)])
        assert rc == 2
        assert dict(os.environ) == before

    def test_dir_receives_campaign_ledger(self, fidelity_export):
        root, _ = fidelity_export
        records = Ledger(root / "perf").records()
        assert records and {r.context for r in records} == {"fidelity"}

    def test_check_against_itself_is_clean(self, fidelity_export, capsys):
        root, out = fidelity_export
        rc = main(["fidelity", "check", str(out), "--new", str(out)])
        assert rc == 0
        assert "ok: no fidelity drift" in capsys.readouterr().out

    def test_check_perturbed_gate_claim_returns_1(self, fidelity_export,
                                                  capsys):
        # The seeded no-wec perturbation strips the WEC out of the rerun
        # campaign: headline gate claims leave their bands and the check
        # must gate (exit 1) — proof the fidelity gate actually gates.
        root, out = fidelity_export
        rc = main(["fidelity", "check", str(out), "--perturb", "no-wec",
                   "--engine", "fast", "--no-cache",
                   "--dir", str(root / "perf")])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_missing_baseline_is_usage_error(self, tmp_path, capsys):
        rc = main(["fidelity", "check", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "fidelity check:" in capsys.readouterr().err

    def test_check_bad_threshold_is_usage_error(self, fidelity_export,
                                                capsys):
        root, out = fidelity_export
        rc = main(["fidelity", "check", str(out), "--new", str(out),
                   "--threshold", "lots"])
        assert rc == 2

    def test_report_renders_trajectory(self, fidelity_export, capsys):
        root, out = fidelity_export
        rc = main(["fidelity", "report", "--dir", str(root / "perf")])
        assert rc == 0
        assert "fidelity trajectory" in capsys.readouterr().out

    def test_report_empty_dir_is_usage_error(self, tmp_path, capsys):
        rc = main(["fidelity", "report", "--dir", str(tmp_path)])
        assert rc == 2
        assert "fidelity report:" in capsys.readouterr().err
