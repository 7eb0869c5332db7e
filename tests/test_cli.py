"""Tests for the ``python -m repro`` command-line interface.

Exit-code convention (covered below for ``trace``, ``diff`` and ``perf``):
0 = success, 1 = failed run or significant perf regression,
2 = usage error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
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

    @pytest.mark.parametrize("flag", [["--jobs", "2"],
                                      ["--manifest", "m.json"]])
    def test_run_rejects_sweep_knobs(self, flag):
        # A single run has no sweep to fan out or to write a manifest
        # for; accepting the flags would silently ignore them.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "mcf"] + flag)


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

    @pytest.mark.parametrize("knob", [["--seed", "-1"], ["--scale", "0"]])
    def test_run_bad_params_are_usage_errors(self, knob, capsys):
        rc = main(["run", "--benchmark", "181.mcf", "--config", "orig",
                   "--scale", "1e-5", "--engine", "fast", "--no-cache"]
                  + knob)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ") and err.count("\n") == 1


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

    @staticmethod
    def _record_configs(monkeypatch):
        """Stub both engines with one fixed result; list the configs run."""
        import repro.cli as cli
        from repro.sim.results import SimResult

        seen = []

        def fake(program, cfg, params, engine=None):
            seen.append((engine, cfg))
            return SimResult(benchmark=program.name, config=cfg.name,
                             n_tus=cfg.n_thread_units, total_cycles=1.0,
                             parallel_cycles=0.0, sequential_cycles=1.0,
                             instructions=1)

        monkeypatch.setattr(cli, "run_program", fake)
        return seen

    def test_default_grid_is_every_distinct_campaign_config(
            self, monkeypatch, capsys):
        from repro.obs.fidelity import campaign_axis
        seen = self._record_configs(monkeypatch)
        assert main(["diff", "--benchmarks", "164.gzip",
                     "--scale", "1e-5"]) == 0
        distinct = set(campaign_axis().values())
        assert len(distinct) == 45
        for engine in ("oracle", "fast"):
            configs = [cfg for eng, cfg in seen if eng == engine]
            assert len(configs) == len(set(configs)) == len(distinct)
            assert set(configs) == distinct
        out = capsys.readouterr().out
        assert "diff: 45 cell(s) bit-identical across engines" in out

    def test_configs_take_campaign_labels(self, monkeypatch, capsys):
        seen = self._record_configs(monkeypatch)
        # orig@8tu is orig: one cell for the pair.
        assert main(["diff", "--benchmarks", "164.gzip", "--scale", "1e-5",
                     "--configs", "orig,orig@8tu,wec@4tu,orig@4w"]) == 0
        assert [(cfg.n_thread_units, cfg.tu.l1d.assoc)
                for eng, cfg in seen if eng == "fast"] == [(8, 1), (4, 1),
                                                           (8, 4)]
        assert "diff: 3 cell(s)" in capsys.readouterr().out

    def test_tus_option_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diff", "--tus", "4"])

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
    The command's stdout is kept in ``root / "stdout.txt"``.
    """
    root = tmp_path_factory.mktemp("fidelity")
    out = root / "baseline.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["fidelity", "run", "--scale", "2e-6",
                   "--sections", "fig11", "--engine", "fast", "--no-cache",
                   "--dir", str(root / "perf"),
                   "--out", str(out), "--md", str(root / "FIDELITY.md")])
    assert rc == 0
    (root / "stdout.txt").write_text(stdout.getvalue())
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

    def test_run_prints_tables_and_one_line_for_unrun_sections(
            self, fidelity_export):
        root, out = fidelity_export
        doc = json.loads(out.read_text())
        printed = (root / "stdout.txt").read_text()
        unrun = [c for c in doc["claims"]
                 if not set(c["requires"]) <= set(doc["sections"])]
        assert unrun
        assert (f"[skip] {len(unrun)} claim(s) need a section this "
                f"campaign did not run") in printed
        assert "campaign did not run section(s)" not in printed
        # Every table of the fig11 section, calibrate's and suite's
        # per-benchmark views among them.
        for title in ("Speedup over orig at 8 TUs",
                      "Calibration diagnostics",
                      "L1 traffic increase and miss-count reduction"):
            assert title in printed
        assert "181.mcf" in printed and "average" in printed

    def test_run_unknown_section_is_usage_error(self, tmp_path, capsys):
        rc = main(["fidelity", "run", "--scale", "2e-6",
                   "--sections", "fig99", "--dir", str(tmp_path)])
        assert rc == 2
        assert "fidelity run:" in capsys.readouterr().err

    def test_run_negative_seed_is_usage_error(self, tmp_path, monkeypatch,
                                              capsys):
        # Refused before any cell runs (numpy's SeedSequence would fail
        # every cell of the campaign instead).
        from repro.obs import fidelity

        def no_cells(*_args, **_kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(fidelity, "run_grid", no_cells)
        rc = main(["fidelity", "run", "--sections", "fig11", "--seed", "-1",
                   "--scale", "1e-5", "--engine", "fast", "--no-cache",
                   "--dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "fidelity run: seed must be non-negative, got -1\n"

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

    def test_skip_for_a_broken_expression_keeps_its_own_line(self, capsys):
        from repro.cli import _print_fidelity_summary
        doc = {"sections": ["tables", "fig11"], "claims": [
            {"id": "fig11.broken", "status": "skipped",
             "requires": ["fig11"], "reason": "NameError: nope"},
            {"id": "fig13.unrun", "status": "skipped",
             "requires": ["fig13"], "reason": "campaign did not run"},
        ]}
        _print_fidelity_summary(doc)
        out = capsys.readouterr().out
        assert "[skip] fig11.broken: NameError: nope" in out
        assert "[skip] 1 claim(s) need a section" in out
        assert "fig13.unrun" not in out
