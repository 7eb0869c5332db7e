"""Static analysis for the WEC reproduction.

Two passes guard the determinism axiom the result cache, perf ledger,
and regression gate all rest on ("same config + same code => same
metrics"):

``repro.lint.rules`` / ``repro.lint.engine``
    An AST-based static pass (stdlib :mod:`ast` + :mod:`tokenize` only)
    with a small catalog of rules encoding the repo's real invariants —
    no wall-clock or environment reads in sim paths, no global RNG
    state, no unordered iteration feeding sim state or serialization,
    frozen-dataclass hygiene for hashed configs, typed tracer event
    kinds, and no blanket ``except``.  Exposed as ``repro lint`` with
    the established 0/1/2 exit convention.

``repro.lint.flow``
    A whole-program pass (``repro lint --flow``) on a project call
    graph with per-function effect summaries: fast-engine/oracle
    counter-order parity (ENG001/ENG002 via ``# parity:`` tags) and
    interprocedural DET001/DET004 — a wall-clock or environment read
    in an exempt module is flagged at the call site that makes it
    reachable from a scoped layer.

The paper's architectural invariants are checked at run time instead,
as counter identities on every result
(:data:`repro.sim.results.RUN_IDENTITIES`).

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog, the allow-tag
syntax (``# lint: allow(RULE reason)``), the baseline workflow, and the
run invariants.
"""

from __future__ import annotations

from .engine import LintReport, lint_paths, lint_source, load_baseline, write_baseline
from .rules import RULES, RULES_BY_ID, Finding, Rule
from .sarif import render_sarif

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "render_sarif",
    "write_baseline",
]
