"""Tests for the whole-program flow pass (``repro lint --flow``).

Fixture projects are synthetic ``repro`` packages written under
``tmp_path`` — module discovery anchors on the enclosing ``repro``
directory, so the fixtures land in the real rule scopes
(``repro.sim.fast`` for ENG*) without touching the shipped tree.  Each
family gets a violating fixture with a known graph/effect order and a
compliant twin that stays silent.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import lint_paths, lint_source, render_sarif
from repro.lint.flow import load_project, counter_sequence, run_flow

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def write_pkg(tmp_path: Path, files: dict) -> list:
    """Write ``{relpath: source}`` under ``tmp_path/repro`` and return
    the file list (with ``__init__.py`` stubs for every package dir)."""
    out = []
    root = tmp_path / "repro"
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
        out.append(p)
        d = p.parent
        while d != tmp_path:
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
                out.append(init)
            d = d.parent
    return out


def flow_rules_fired(tmp_path: Path, files: dict) -> set:
    return {f.rule for f in run_flow(write_pkg(tmp_path, files))}


# ---------------------------------------------------------------------------
# call graph + effect sequences
# ---------------------------------------------------------------------------


ORACLE = """\
class Oracle:
    def __init__(self):
        self.stats = {}

    def load(self):
        self.stats["loads"] += 1
        if True:
            self.stats["hits"] += 1
        self.stats["fills"] += 1
"""


class TestEffectSequences:
    def test_known_graph_and_counter_order(self, tmp_path):
        files = write_pkg(tmp_path, {
            "mem/oracle.py": ORACLE,
            "sim/fast/engine.py": (
                "class Fast:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    def _helper(self):\n"
                '        self.stats["hits"] += 1\n'
                "    def _load(self):\n"
                '        self.stats["loads"] += 1\n'
                "        self._helper()\n"
                '        self.stats["fills"] += 1\n'
            ),
        })
        proj = load_project(files)
        fast = proj.functions["repro.sim.fast.engine.Fast._load"]
        names = [name for _ns, name, _line in counter_sequence(proj, fast)]
        # the helper's counter is flattened in call order
        assert names == ["loads", "hits", "fills"]
        oracle = proj.functions["repro.mem.oracle.Oracle.load"]
        names = [name for _ns, name, _line in counter_sequence(proj, oracle)]
        # both branch arms contribute in source order
        assert names == ["loads", "hits", "fills"]


# ---------------------------------------------------------------------------
# ENG001 / ENG002: transcription parity
# ---------------------------------------------------------------------------


class TestEngineParity:
    def test_matching_transcription_is_silent(self, tmp_path):
        fired = flow_rules_fired(tmp_path, {
            "mem/oracle.py": ORACLE,
            "sim/fast/engine.py": (
                "class Fast:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    # parity: repro.mem.oracle.Oracle.load\n"
                "    def _load(self):\n"
                '        self.stats["loads"] += 1\n'
                '        self.stats["hits"] += 1\n'
                '        self.stats["fills"] += 1\n'
            ),
        })
        assert "ENG001" not in fired
        assert "ENG002" not in fired

    def test_reordered_transcription_fires_eng001(self, tmp_path):
        findings = run_flow(write_pkg(tmp_path, {
            "mem/oracle.py": ORACLE,
            "sim/fast/engine.py": (
                "class Fast:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    # parity: repro.mem.oracle.Oracle.load\n"
                "    def _load(self):\n"
                '        self.stats["loads"] += 1\n'
                '        self.stats["fills"] += 1\n'
                '        self.stats["hits"] += 1\n'
            ),
        }))
        eng = [f for f in findings if f.rule == "ENG001"]
        assert len(eng) == 1
        assert "diverges" in eng[0].message
        assert "hits" in eng[0].message and "fills" in eng[0].message

    def test_untagged_counter_site_fires_eng002(self, tmp_path):
        fired = flow_rules_fired(tmp_path, {
            "sim/fast/engine.py": (
                "class Fast:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    def _load(self):\n"
                '        self.stats["loads"] += 1\n'
            ),
        })
        assert "ENG002" in fired

    def test_helper_reachable_from_tagged_site_is_exempt(self, tmp_path):
        fired = flow_rules_fired(tmp_path, {
            "mem/oracle.py": ORACLE,
            "sim/fast/engine.py": (
                "class Fast:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    def _helper(self):\n"
                '        self.stats["hits"] += 1\n'
                '        self.stats["fills"] += 1\n'
                "    # parity: repro.mem.oracle.Oracle.load\n"
                "    def _load(self):\n"
                '        self.stats["loads"] += 1\n'
                "        self._helper()\n"
            ),
        })
        assert "ENG002" not in fired
        assert "ENG001" not in fired

    def test_unresolvable_parity_tag_fires_eng002(self, tmp_path):
        findings = run_flow(write_pkg(tmp_path, {
            "sim/fast/engine.py": (
                "class Fast:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    # parity: repro.mem.oracle.Oracle.nope\n"
                "    def _load(self):\n"
                '        self.stats["loads"] += 1\n'
            ),
        }))
        eng = [f for f in findings if f.rule == "ENG002"]
        assert any("does not resolve" in f.message for f in eng)

    def test_out_of_scope_counters_ignored(self, tmp_path):
        # counters outside repro.sim.fast never need parity tags
        fired = flow_rules_fired(tmp_path, {
            "analysis/counters.py": (
                "class C:\n"
                "    def __init__(self):\n"
                "        self.stats = {}\n"
                "    def bump(self):\n"
                '        self.stats["n"] += 1\n'
            ),
        })
        assert "ENG002" not in fired


# ---------------------------------------------------------------------------
# interprocedural DET001/DET004
# ---------------------------------------------------------------------------


class TestInterproceduralDet:
    def test_wallclock_via_exempt_module_fires_det001(self, tmp_path):
        findings = run_flow(write_pkg(tmp_path, {
            "util/clock.py": (
                "import time\n"
                "def now():\n"
                "    return time.perf_counter()\n"
            ),
            "core/unit.py": (
                "from repro.util.clock import now\n"
                "def step():\n"
                "    return now()\n"
            ),
        }))
        det = [f for f in findings if f.rule == "DET001"]
        assert len(det) == 1
        assert det[0].path.endswith("core/unit.py")
        assert "exempt module" in det[0].message

    def test_clean_exempt_callee_is_silent(self, tmp_path):
        fired = flow_rules_fired(tmp_path, {
            "util/mathy.py": "def double(x):\n    return 2 * x\n",
            "core/unit.py": (
                "from repro.util.mathy import double\n"
                "def step():\n"
                "    return double(21)\n"
            ),
        })
        assert "DET001" not in fired and "DET004" not in fired


# ---------------------------------------------------------------------------
# engine fixes that ride along: decorated-def allow tags, missing baseline
# ---------------------------------------------------------------------------


class TestEngineFixes:
    def test_allow_tag_above_decorator_suppresses(self):
        src = (
            "from dataclasses import dataclass\n"
            "# lint: allow(KEY001 legacy config stays mutable for pickling)\n"
            "@dataclass\n"
            "class C:\n"
            "    x: int = 0\n"
        )
        findings, _ = lint_source(src, module="repro.common.config")
        assert not findings

    def test_allow_tag_far_above_decorator_does_not_suppress(self):
        src = (
            "# lint: allow(KEY001 too far away to count)\n"
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass\n"
            "class C:\n"
            "    x: int = 0\n"
        )
        findings, _ = lint_source(src, module="repro.common.config")
        assert any(f.rule == "KEY001" for f in findings)

    def test_missing_baseline_file_is_reported_not_fatal(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "DET002", "path": "gone.py", "line": 3,
                         "reason": "file was deleted since"}],
        }))
        report = lint_paths([tmp_path], baseline=base)
        assert len(report.missing_baseline) == 1
        assert report.stale_baseline == []
        assert "no longer exists" in report.render_text()
        assert report.to_dict()["missing_baseline"][0]["path"] == "gone.py"


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------


class TestSarif:
    def test_sarif_shape(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import random\nx = random.random()\n"
        )
        report = lint_paths([tmp_path])
        assert report.findings
        doc = render_sarif(report)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"ENG001", "ENG002", "DET001", "DET004"} <= rule_ids
        res = run["results"][0]
        assert res["ruleId"] == report.findings[0].rule
        region = res["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == report.findings[0].line
        # SARIF columns are 1-based; Finding.col is a 0-based AST offset
        assert region["startColumn"] == report.findings[0].col + 1


# ---------------------------------------------------------------------------
# the shipped tree itself
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_repo_is_flow_clean(self):
        report = lint_paths([SRC], flow=True)
        flow_findings = [
            f for f in report.findings
            if f.rule.startswith("ENG")
        ]
        assert flow_findings == []

    def test_every_fast_transcription_site_is_tagged(self):
        # Every oracle method the fast engine transcribes — each memory
        # policy method, the i-fetch and coherence hooks, and branch
        # resolution — must be named by a parity tag on some fast-engine
        # function, or ENG001/ENG002 never compare the two.
        proj = load_project([SRC / "sim" / "fast" / "engine.py"])
        tagged = {
            qual
            for func in proj.functions.values()
            if func.module.name == "repro.sim.fast.engine"
            for qual in func.parity
        }
        oracle = "repro.mem.hierarchy.TUMemSystem"
        policies = [
            f"{oracle}.{name}"
            for name in proj.classes[oracle].methods
            if name.startswith(
                ("_load_correct_", "_load_wrong_", "_store_correct_"))
        ]
        assert policies, f"no policy methods found on {oracle}"
        required = set(policies) | {
            f"{oracle}.ifetch",
            f"{oracle}.bus_update",
            "repro.branch.frontend.BranchUnit.resolve",
        }
        assert sorted(required - tagged) == []
