"""Every name a module under ``src/repro`` imports is used there.

No ``repro lint`` rule reports an unused import, so this scan does: it
parses each module with :mod:`ast` and fails on an imported name the
module never references.  Exempt are ``from __future__`` imports, names
in the module's ``__all__``, the re-exports of ``__init__.py`` files,
and names used only inside string annotations (``x: "Program"``), which
count as references.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree: ast.Module) -> Set[str]:
    """Every bare name the module reads, stores or deletes, plus the
    names inside its string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


def exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> List[Tuple[str, int]]:
    tree = ast.parse(source)
    used = referenced_names(tree) | exported_names(tree)
    return sorted({(name, line) for name, line in imported_names(tree)
                   if name not in used})


class TestScanner:
    def test_flags_an_unused_import(self):
        src = "import os\nfrom typing import Optional, List\nx: List[int] = []\n"
        assert unused_imports(src) == [("Optional", 2), ("os", 1)]

    def test_exemptions(self):
        src = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Dict\n"
            "from .program import Program, Spec\n"
            "__all__ = ['Spec']\n"
            "def f(p: 'Dict[str, Program]'):\n"
            "    return os.path.join(p)\n"
        )
        assert unused_imports(src) == []


def test_every_module_uses_its_imports():
    found = {str(path.relative_to(SRC)): unused_imports(path.read_text())
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
