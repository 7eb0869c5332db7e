"""Whole-program flow analysis for ``repro lint --flow``.

Call graph + per-function effect summaries + interprocedural taint over
the ``repro`` package, feeding the ENG* rule family and the
interprocedural upgrade of DET001/DET004.  See
docs/STATIC_ANALYSIS.md ("Flow analysis") for the rule catalog, the
``# parity:`` tag contract and the pass's conservatism guarantees.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Set

from ..rules import Finding
from .callgraph import Project, load_project
from .effects import counter_sequence
from .rules import NS_EQUIV, check_flow

__all__ = [
    "NS_EQUIV",
    "Project",
    "check_flow",
    "counter_sequence",
    "load_project",
    "run_flow",
]


def run_flow(
    files: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Build the project graph for ``files`` and run every flow rule.

    The graph is whole-program (the entire enclosing ``repro`` package
    is parsed) but findings are reported only for ``files``.  Allow-tag
    and baseline suppression happen in the engine, like any finding.
    """
    project = load_project([Path(f) for f in files])
    report_files: Set[Path] = {Path(f).resolve() for f in files}
    wanted = set(rules) if rules is not None else None
    return check_flow(project, wanted, report_files)
