"""The scripts under ``tools/``, run as a user runs them.

``tools/profile_run.py`` profiles the engine ``repro run`` would use
(``$REPRO_ENGINE``), names it in its header, refuses a traced run on
the fast engine with the driver's own usage error, and exits 2 on an
unknown benchmark or configuration.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.sim.driver import OBSERVER_POLICY_MSG

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_profile(*args: str, engine: str, workload=("181.mcf", "wth-wp-wec")):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    env["REPRO_ENGINE"] = engine
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_run.py"),
         *workload, "1e-5", "--top", "8", *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


class TestProfileRun:
    @pytest.mark.parametrize("engine", ["oracle", "fast"])
    def test_profiles_the_resolved_engine(self, engine):
        proc = run_profile(engine=engine)
        assert proc.returncode == 0, proc.stderr
        header = proc.stdout.splitlines()[0]
        assert header.startswith(f"181.mcf on wth-wp-wec, {engine} engine:")
        fast_frames = "run_program_fast" in proc.stdout
        assert fast_frames == (engine == "fast")

    def test_trace_on_the_fast_engine_is_a_usage_error(self):
        proc = run_profile("--trace", engine="fast")
        assert proc.returncode == 2
        assert proc.stdout == ""
        message = OBSERVER_POLICY_MSG.format(names="tracer")
        assert proc.stderr == f"profile_run: {message}\n"

    @pytest.mark.parametrize("workload", [("no.such", "orig"),
                                          ("181.mcf", "no-such")])
    def test_unknown_names_are_usage_errors(self, workload):
        proc = run_profile(engine="fast", workload=workload)
        assert proc.returncode == 2
        assert proc.stderr.startswith("profile_run: unknown ")
        assert "Traceback" not in proc.stderr

    def test_trace_on_the_oracle_profiles_the_tracer(self):
        proc = run_profile("--trace", engine="oracle")
        assert proc.returncode == 0, proc.stderr
        header = proc.stdout.splitlines()[0]
        assert header.startswith(
            "181.mcf on wth-wp-wec, oracle engine (traced):")
