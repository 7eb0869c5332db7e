"""Flow rule families: engine parity (ENG*) and interprocedural
determinism (DET001/DET004 across module boundaries).

All findings ride the existing :class:`repro.lint.rules.Finding` type,
so allow tags, the baseline ratchet, ``--format json|sarif`` and the
0/1/2 exit convention apply unchanged.  Findings are only *reported*
for files that were actually linted, even though the graph behind them
is whole-program.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rules import RULES_BY_ID, Finding
from .callgraph import FunctionInfo, Project, Ref
from .effects import Ctr, counter_sequence

__all__ = ["NS_EQUIV", "check_flow"]

#: Counter-namespace equivalences between the oracle's stat containers
#: and the fast engine's plain dicts.  A namespace is the
#: ``module.Class.attr`` the container lives on; both sides of a parity
#: comparison are mapped through this table (default: the bare attr
#: name), so ``self.m["loads"] += 1`` in the fast engine and
#: ``self.stats.counter("loads").add()`` in the oracle compare equal.
NS_EQUIV: Dict[str, str] = {
    "repro.sim.fast.engine._FastTU.m": "mem",
    "repro.mem.hierarchy.TUMemSystem.stats": "mem",
    "repro.sim.fast.engine._FastL2.c": "l2",
    "repro.mem.l2.SharedL2.stats": "l2",
    "repro.sim.fast.engine._FastL2.memc": "mainmem",
    "repro.mem.mainmem.MainMemory.stats": "mainmem",
    "repro.sim.fast.engine._FastTU.bp": "bp",
    "repro.branch.frontend.BranchUnit.stats": "bp",
    "repro.sim.fast.engine._FastMachine.bus_c": "bus",
    "repro.mem.coherence.UpdateBus.stats": "bus",
}

def _canon_token(ns: Tuple[str, str], name: str) -> str:
    label = NS_EQUIV.get(f"{ns[0]}.{ns[1]}", ns[1])
    return f"{label}.{name}"


def _def_anchors(func: FunctionInfo) -> Tuple[int, ...]:
    return func.decorator_lines


def _in_scope(rule_id: str, module: str) -> bool:
    return RULES_BY_ID[rule_id].applies_to(module)


# --- ENG001 / ENG002: fast-engine transcription parity ---------------------


def _own_counters(func: FunctionInfo) -> List[Ctr]:
    out: List[Ctr] = []

    def walk(steps) -> None:
        for step in steps:
            if isinstance(step, Ctr):
                out.append(step)
            elif hasattr(step, "then"):
                walk(step.then)
                walk(step.orelse)

    walk(func.effects or [])
    return out


def _check_parity(project: Project, findings: List[Finding]) -> None:
    tagged: List[FunctionInfo] = [
        f for f in project.functions.values() if f.parity
    ]
    for func in tagged:
        if not _in_scope("ENG001", func.module.name):
            continue
        fast_seq = [
            _canon_token(ns, name)
            for ns, name, _ in counter_sequence(project, func)
        ]
        for oracle_qual in func.parity:
            oracle = project.functions.get(oracle_qual)
            if oracle is None:
                findings.append(Finding(
                    "ENG002", func.module.path, func.line,
                    func.node.col_offset,
                    f"`# parity:` tag on {func.name} names "
                    f"`{oracle_qual}`, which does not resolve to a "
                    "project function — fix the qualname or drop the tag",
                    anchors=_def_anchors(func),
                ))
                continue
            oracle_seq = [
                _canon_token(ns, name)
                for ns, name, _ in counter_sequence(project, oracle)
            ]
            if fast_seq == oracle_seq:
                continue
            detail = _divergence(fast_seq, oracle_seq)
            findings.append(Finding(
                "ENG001", func.module.path, func.line,
                func.node.col_offset,
                f"effect sequence of {func.name} diverges from oracle "
                f"`{oracle_qual}`: {detail} — the fast transcription and "
                "the oracle must touch counters in the same order",
                anchors=_def_anchors(func),
            ))


def _divergence(fast_seq: Sequence[str], oracle_seq: Sequence[str]) -> str:
    for i, (a, b) in enumerate(zip(fast_seq, oracle_seq)):
        if a != b:
            return (f"step {i + 1} is `{a}` here but `{b}` in the oracle "
                    f"({len(fast_seq)} vs {len(oracle_seq)} steps)")
    if len(fast_seq) < len(oracle_seq):
        missing = oracle_seq[len(fast_seq)]
        return (f"sequence ends after step {len(fast_seq)}; the oracle "
                f"continues with `{missing}` "
                f"({len(fast_seq)} vs {len(oracle_seq)} steps)")
    extra = fast_seq[len(oracle_seq)]
    return (f"extra step {len(oracle_seq) + 1} `{extra}` past the end of "
            f"the oracle's sequence "
            f"({len(fast_seq)} vs {len(oracle_seq)} steps)")


def _check_untagged_counters(project: Project,
                             findings: List[Finding]) -> None:
    """ENG002: every counter site in scope is tagged or fused *under* a
    tagged site (reachable from one through the call graph)."""
    tagged = [f for f in project.functions.values() if f.parity]
    reachable: Set[str] = set()
    work = [f for f in tagged]
    while work:
        func = work.pop()
        for site in func.call_sites:
            qual = site.target.qualname
            if qual not in reachable:
                reachable.add(qual)
                work.append(site.target)
    tagged_quals = {f.qualname for f in tagged}
    for func in project.functions.values():
        if not _in_scope("ENG002", func.module.name):
            continue
        if func.qualname in tagged_quals or func.qualname in reachable:
            continue
        if not _own_counters(func):
            continue
        findings.append(Finding(
            "ENG002", func.module.path, func.line, func.node.col_offset,
            f"{func.name} increments counters but carries no `# parity:` "
            "tag and is not called from any tagged transcription site — "
            "tag it with its oracle counterpart, or allow(ENG002 ...) "
            "with the reason it has none",
            anchors=_def_anchors(func),
        ))


# --- interprocedural DET001 / DET004 ---------------------------------------


def _witness_chain(tainted: Dict[str, Tuple[str, object]],
                   start: str) -> str:
    parts = [start.split(".")[-1]]
    qual = start
    for _ in range(10):
        kind, payload = tainted.get(qual, (None, None))
        if kind == "prim":
            assert isinstance(payload, Ref)
            parts.append(f"{payload.name}()")
            break
        if kind == "call":
            qual = str(payload)
            parts.append(qual.split(".")[-1])
            continue
        break
    return " -> ".join(parts)


def _taint_closure(project: Project,
                   seed_attr: str) -> Dict[str, Tuple[str, object]]:
    tainted: Dict[str, Tuple[str, object]] = {}
    for func in project.functions.values():
        refs = getattr(func, seed_attr)
        if refs:
            tainted[func.qualname] = ("prim", refs[0])
    changed = True
    while changed:
        changed = False
        for func in project.functions.values():
            if func.qualname in tainted:
                continue
            for site in func.call_sites:
                if site.target.qualname in tainted:
                    tainted[func.qualname] = ("call", site.target.qualname)
                    changed = True
                    break
    return tainted


def _check_interprocedural_det(project: Project, rule_id: str,
                               seed_attr: str, what: str,
                               findings: List[Finding]) -> None:
    tainted = _taint_closure(project, seed_attr)
    for func in project.functions.values():
        if not _in_scope(rule_id, func.module.name):
            continue
        for site in func.call_sites:
            target = site.target
            if _in_scope(rule_id, target.module.name):
                continue  # the AST pass owns in-scope modules
            if target.qualname not in tainted:
                continue
            chain = _witness_chain(tainted, target.qualname)
            findings.append(Finding(
                rule_id, func.module.path, site.line, site.col,
                f"{what} reachable from this call via {chain} — the "
                "callee lives in an exempt module, but calling it from "
                "here pulls the read into a scoped layer",
            ))


# --- entry point -----------------------------------------------------------

_FLOW_RULE_IDS = ("ENG001", "ENG002", "DET001", "DET004")


def check_flow(
    project: Project,
    rules: Optional[Set[str]],
    report_files: Set[Path],
) -> List[Finding]:
    """Run every flow rule; report findings only for ``report_files``."""
    active = set(_FLOW_RULE_IDS) if rules is None else set(rules)
    findings: List[Finding] = []
    if "ENG001" in active or "ENG002" in active:
        _check_parity(project, findings)
    if "ENG002" in active:
        _check_untagged_counters(project, findings)
    if "DET001" in active:
        _check_interprocedural_det(
            project, "DET001", "wallclock_refs", "wall-clock read",
            findings)
    if "DET004" in active:
        _check_interprocedural_det(
            project, "DET004", "env_refs", "environment read", findings)
    findings = [
        f for f in findings
        if f.rule in active and Path(f.path).resolve() in report_files
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
