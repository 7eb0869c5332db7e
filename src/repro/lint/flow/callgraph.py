"""Whole-program model for the flow pass: modules, classes, call edges.

The AST rules in :mod:`repro.lint.rules` are single-file by design; the
flow rules (ENG*, interprocedural DET*) need to see *across* files:
which method a call resolves to, what type ``self.l2`` is, which oracle
method a fast-engine transcription mirrors.  This module builds that
view with stdlib ``ast`` + ``tokenize`` only:

* **module discovery** — from any linted path, the enclosing ``repro``
  package directory is located and *every* ``*.py`` under it is parsed,
  so the graph is whole-program even when only a subtree is linted
  (findings are still only reported for linted files);
* **name resolution** — per-module alias maps (absolute *and* relative
  imports), top-level classes/functions, methods, and nested defs are
  indexed under dotted qualnames (``repro.mem.l2.SharedL2.read``);
* **attribute typing** — ``self.x = ClassName(...)``, annotated
  constructor parameters (including string annotations, ``Optional[T]``
  and ``T | None``), attribute chains (``self.l2 = eng.l2``) and
  conditional expressions are resolved to class qualnames with a small
  fixpoint; anything ambiguous resolves to *nothing*, so dynamic
  dispatch degrades to missing edges, never wrong ones;
* **call edges** — resolved per call site, in source order, by the
  effect extractor in :mod:`repro.lint.flow.effects`.

``# parity: <oracle.qualname>`` comment tags (on the ``def`` line or
the line directly above it / above its decorators) declare which oracle
method a fast-engine function transcribes; ENG001 compares their effect
sequences.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "Ref",
    "load_project",
]

_PARITY_RE = re.compile(r"#\s*parity:\s*(.+?)\s*$")


class Ref(NamedTuple):
    """One reference to a canonical name (wall-clock/env seed)."""

    line: int
    col: int
    name: str


class CallSite(NamedTuple):
    """One resolved project-internal call, in source order."""

    line: int
    col: int
    target: "FunctionInfo"
    node: ast.Call
    #: True when the first parameter (``self``) is bound implicitly —
    #: method calls and constructor calls.
    skip_first: bool


class FunctionInfo:
    """One function/method/nested def and its per-function analysis."""

    def __init__(
        self,
        qualname: str,
        module: "ModuleInfo",
        node: ast.AST,
        cls: Optional["ClassInfo"],
        parent: Optional["FunctionInfo"],
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        self.cls = cls
        self.parent = parent
        self.nested: Dict[str, "FunctionInfo"] = {}
        #: oracle qualnames from a ``# parity:`` tag, if any
        self.parity: Tuple[str, ...] = ()
        # filled by effects.analyze_function:
        self.effects: Optional[List[object]] = None
        self.call_sites: List[CallSite] = []
        self.wallclock_refs: List[Ref] = []
        self.env_refs: List[Ref] = []

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]

    @property
    def line(self) -> int:
        return self.node.lineno  # type: ignore[attr-defined]

    @property
    def decorator_lines(self) -> Tuple[int, ...]:
        decs = getattr(self.node, "decorator_list", [])
        return tuple(d.lineno for d in decs)

    @property
    def param_names(self) -> List[str]:
        a = self.node.args  # type: ignore[attr-defined]
        return [p.arg for p in (a.posonlyargs + a.args)]

    def const_defaults(self) -> Dict[str, object]:
        """Parameters whose default is a literal constant."""
        a = self.node.args  # type: ignore[attr-defined]
        out: Dict[str, object] = {}
        pos = a.posonlyargs + a.args
        for param, default in zip(pos[len(pos) - len(a.defaults):], a.defaults):
            if isinstance(default, ast.Constant):
                out[param.arg] = default.value
        for param, default in zip(a.kwonlyargs, a.kw_defaults):
            if isinstance(default, ast.Constant):
                out[param.arg] = default.value
        return out

    def annotation_for(self, param: str) -> Optional[ast.expr]:
        a = self.node.args  # type: ignore[attr-defined]
        for p in a.posonlyargs + a.args + a.kwonlyargs:
            if p.arg == param:
                return p.annotation
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One top-level class: methods plus inferred attribute types."""

    def __init__(self, qualname: str, module: "ModuleInfo",
                 node: ast.ClassDef) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        #: attr -> class qualname; an attr assigned conflicting types is
        #: recorded in ``ambiguous`` and resolves to nothing.
        self.attr_types: Dict[str, str] = {}
        self.ambiguous: set = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.qualname}>"


class ModuleInfo:
    """One parsed module of the project."""

    def __init__(self, name: str, path: str, tree: ast.Module,
                 text: str) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        #: local name -> canonical dotted name (relative imports resolved)
        self.aliases: Dict[str, str] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.parity_tags: Dict[int, Tuple[str, ...]] = {}
        self.allow_tags: Dict[int, Dict[str, str]] = {}
        self._build_aliases()
        self._scan_comments(text)

    def _build_aliases(self) -> None:
        pkg_parts = self.name.split(".")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # `from ..common import x` resolved against this
                    # module's dotted name; level 1 is the containing
                    # package.  (The single-file checker skips these —
                    # it never needs project-internal names.)
                    anchor = pkg_parts[: len(pkg_parts) - node.level]
                    if not anchor:
                        continue
                    base = ".".join(anchor + ([node.module] if node.module else []))
                else:
                    base = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _scan_comments(self, text: str) -> None:
        from ..engine import parse_allow_tags

        self.allow_tags = parse_allow_tags(text)
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type != tokenize.COMMENT:
                    continue
                match = _PARITY_RE.search(tok.string)
                if match is None:
                    continue
                quals = tuple(
                    q.strip() for q in match.group(1).split(",") if q.strip()
                )
                if quals:
                    self.parity_tags[tok.start[0]] = quals
        except tokenize.TokenizeError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleInfo {self.name}>"


# --- scope: expression typing + call resolution inside one function -------


class Scope:
    """Typing context while walking one function body in source order.

    Tracks local variable types (``l2 = self.l2``), counter-container
    aliases (``c = self.c`` -> the *(class, attr)* the dict lives on)
    and resolves calls and attribute chains against the project.  All
    resolution is conservative: unknown receivers produce no edges.
    """

    def __init__(self, project: "Project", func: FunctionInfo) -> None:
        self.project = project
        self.func = func
        self.mod = func.module
        self.cls = func.cls
        self.var_types: Dict[str, Optional[str]] = {}
        self.var_containers: Dict[str, Tuple[str, str]] = {}
        for param in func.param_names:
            ann = func.annotation_for(param)
            t = project.ann_to_class(self.mod, ann)
            if t is not None:
                self.var_types[param] = t

    # -- canonical names (imports) ----------------------------------------

    def canon(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.var_types or node.id in self.var_containers:
                return None  # shadowed by a local
            return self.mod.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.canon(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # -- types -------------------------------------------------------------

    def expr_type(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.qualname
            return self.var_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base_t = self.expr_type(node.value)
            if base_t is not None:
                ci = self.project.classes.get(base_t)
                if ci is not None and node.attr not in ci.ambiguous:
                    return ci.attr_types.get(node.attr)
            return None
        if isinstance(node, ast.Call):
            target = self.resolve_callable(node.func)
            if isinstance(target, ClassInfo):
                return target.qualname
            if isinstance(target, FunctionInfo):
                returns = getattr(target.node, "returns", None)
                return self.project.ann_to_class(target.module, returns)
            return None
        if isinstance(node, ast.IfExp):
            arms = [
                a for a in (node.body, node.orelse) if not _is_none_const(a)
            ]
            types = {self.expr_type(a) for a in arms}
            if len(types) == 1:
                return types.pop()
        return None

    def container_ref(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a counter container to the ``(class, attr)`` it lives on."""
        if isinstance(node, ast.Attribute):
            base_t = self.expr_type(node.value)
            if base_t is not None:
                return (base_t, node.attr)
            return None
        if isinstance(node, ast.Name):
            return self.var_containers.get(node.id)
        return None

    # -- calls ---------------------------------------------------------------

    def resolve_callable(self, func_expr: ast.AST):
        """Resolve a call's target to a ClassInfo/FunctionInfo, or None."""
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            if name in self.var_types or name in self.var_containers:
                return None
            scope_func: Optional[FunctionInfo] = self.func
            while scope_func is not None:
                if name in scope_func.nested:
                    return scope_func.nested[name]
                scope_func = scope_func.parent
            if name in self.mod.functions:
                return self.mod.functions[name]
            if name in self.mod.classes:
                return self.mod.classes[name]
            canonical = self.mod.aliases.get(name)
            if canonical is not None:
                return (
                    self.project.classes.get(canonical)
                    or self.project.functions.get(canonical)
                )
            return None
        if isinstance(func_expr, ast.Attribute):
            canonical = self.canon(func_expr)
            if canonical is not None:
                hit = (
                    self.project.classes.get(canonical)
                    or self.project.functions.get(canonical)
                )
                if hit is not None:
                    return hit
            base_t = self.expr_type(func_expr.value)
            if base_t is not None:
                ci = self.project.classes.get(base_t)
                if ci is not None:
                    return ci.methods.get(func_expr.attr)
            return None
        return None

    def resolve_call(self, node: ast.Call) -> Optional[CallSite]:
        target = self.resolve_callable(node.func)
        skip_first = isinstance(node.func, ast.Attribute)
        if isinstance(target, ClassInfo):
            init = target.methods.get("__init__")
            if init is None:
                return None
            target, skip_first = init, True
        if not isinstance(target, FunctionInfo):
            return None
        return CallSite(node.lineno, node.col_offset, target, node,
                        skip_first)

    # -- assignments update the local maps -----------------------------------

    def assign(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if not isinstance(target, ast.Name) or value is None:
            return
        if isinstance(value, (ast.Attribute, ast.Name)):
            ref = self.container_ref(value)
            if ref is not None:
                self.var_containers[target.id] = ref
        self.var_types[target.id] = self.expr_type(value)


# --- project ---------------------------------------------------------------


class Project:
    """All parsed modules of one ``repro`` package, fully indexed."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: flatten memo used by effects.counter_sequence
        self.seq_memo: Dict[Tuple, Tuple] = {}

    # -- annotations ---------------------------------------------------------

    def ann_to_class(self, mod: ModuleInfo,
                     ann: Optional[ast.AST]) -> Optional[str]:
        """Resolve an annotation to a project class qualname, if single.

        Handles string annotations, ``Optional[T]`` and unions with
        ``None``; a union of two or more real classes is ambiguous and
        resolves to nothing (conservative dispatch).
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            base = _dotted_name(ann.value)
            if base is not None and base.split(".")[-1] == "Optional":
                return self.ann_to_class(mod, ann.slice)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            arms = [a for a in (ann.left, ann.right) if not _is_none_const(a)]
            if len(arms) == 1:
                return self.ann_to_class(mod, arms[0])
            return None
        dotted = _dotted_name(ann)
        if dotted is None:
            return None
        return self._resolve_class_name(mod, dotted)

    def _resolve_class_name(self, mod: ModuleInfo,
                            dotted: str) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        if not rest:
            if head in mod.classes:
                return mod.classes[head].qualname
            canonical = mod.aliases.get(head)
            if canonical is not None and canonical in self.classes:
                return canonical
            return None
        canonical = mod.aliases.get(head)
        if canonical is not None:
            full = f"{canonical}.{rest}"
            if full in self.classes:
                return full
        return None

    def scope_for(self, func: FunctionInfo) -> Scope:
        return Scope(self, func)


def _dotted_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _is_none_const(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# --- loading ---------------------------------------------------------------


def _package_root(path: Path) -> Optional[Path]:
    """The enclosing directory named ``repro``, if the path has one."""
    parts = path.parts
    if "repro" not in parts[:-1]:
        return None
    dirs = parts[:-1]
    idx = len(dirs) - 1 - dirs[::-1].index("repro")
    return Path(*parts[: idx + 1])


def _scope_children(body: Iterable[ast.stmt]):
    """Defs/classes at this scope, descending through compound statements
    (``if``/``for``/``try``/``with``) but never into nested scopes."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While,
                               ast.With, ast.AsyncWith)):
            yield from _scope_children(stmt.body)
            yield from _scope_children(getattr(stmt, "orelse", []))
        elif isinstance(stmt, ast.Try):
            yield from _scope_children(stmt.body)
            for handler in stmt.handlers:
                yield from _scope_children(handler.body)
            yield from _scope_children(stmt.orelse)
            yield from _scope_children(stmt.finalbody)


def _index_functions(project: Project, mod: ModuleInfo) -> None:
    def walk(body, qual_prefix: str, cls: Optional[ClassInfo],
             parent: Optional[FunctionInfo]) -> None:
        for node in _scope_children(body):
            if isinstance(node, ast.ClassDef):
                if cls is not None or parent is not None:
                    continue  # nested classes: out of model, no edges
                info = ClassInfo(f"{mod.name}.{node.name}", mod, node)
                mod.classes[node.name] = info
                project.classes[info.qualname] = info
                walk(node.body, info.qualname, info, None)
            else:
                qual = f"{qual_prefix}.{node.name}"
                func = FunctionInfo(qual, mod, node, cls, parent)
                project.functions[qual] = func
                if parent is not None:
                    parent.nested[node.name] = func
                elif cls is not None:
                    cls.methods[node.name] = func
                else:
                    mod.functions[node.name] = func
                _attach_parity(mod, func)
                walk(node.body, qual, cls, func)

    walk(mod.tree.body, mod.name, None, None)


def _attach_parity(mod: ModuleInfo, func: FunctionInfo) -> None:
    candidates = [func.line, func.line - 1]
    if func.decorator_lines:
        candidates.append(func.decorator_lines[0] - 1)
    for line in candidates:
        quals = mod.parity_tags.get(line)
        if quals:
            func.parity = quals
            return


def _infer_attr_types(project: Project) -> None:
    """Fixpoint over ``self.x = ...`` assignments in every method.

    A few passes let chains like ``self.l2 = eng.l2`` resolve once
    ``_FastMachine.l2`` is known; conflicting assignments mark the attr
    ambiguous for good.
    """
    for _ in range(4):
        changed = False
        for cls in project.classes.values():
            for method in cls.methods.values():
                scope = project.scope_for(method)
                for node in ast.walk(method.node):
                    target = None
                    value = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    else:
                        continue
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if attr in cls.ambiguous:
                        continue
                    if isinstance(node, ast.AnnAssign) and value is None:
                        t = project.ann_to_class(cls.module, node.annotation)
                    else:
                        t = scope.expr_type(value) if value is not None else None
                        if t is None and isinstance(node, ast.AnnAssign):
                            t = project.ann_to_class(cls.module, node.annotation)
                        if (t is None and value is not None
                                and not _is_none_const(value)
                                and isinstance(value, (ast.Call, ast.Attribute,
                                                       ast.Name))):
                            # unresolved non-None assignment: leave any
                            # earlier resolution alone (first write wins,
                            # matching __init__-then-update idiom)
                            t = cls.attr_types.get(attr)
                    if t is None:
                        continue
                    prior = cls.attr_types.get(attr)
                    if prior is None:
                        cls.attr_types[attr] = t
                        changed = True
                    elif prior != t:
                        cls.ambiguous.add(attr)
                        del cls.attr_types[attr]
                        changed = True
        if not changed:
            break


def load_project(files: Sequence[Path]) -> Project:
    """Parse the whole ``repro`` package enclosing the linted files."""
    from .effects import analyze_function

    roots: List[Path] = []
    seen = set()
    for f in files:
        root = _package_root(Path(f))
        if root is None:
            continue
        key = root.resolve()
        if key not in seen:
            seen.add(key)
            roots.append(root)

    project = Project()
    for root in roots:
        prefix = root.parts[:-1]
        for path in sorted(root.rglob("*.py")):
            try:
                text = path.read_text(encoding="utf-8")
                tree = ast.parse(text, filename=str(path))
            except (OSError, SyntaxError):
                # Unparseable package files degrade the graph, not the
                # lint: the per-file AST pass reports them loudly for
                # every file that was actually linted.
                continue
            rel = path.parts[len(prefix):]
            dotted = list(rel)
            dotted[-1] = path.stem
            if dotted[-1] == "__init__":
                dotted.pop()
            name = ".".join(dotted)
            if name in project.modules:
                continue
            mod = ModuleInfo(name, str(path), tree, text)
            project.modules[name] = mod
            _index_functions(project, mod)

    _infer_attr_types(project)
    for func in project.functions.values():
        analyze_function(project, func)
    return project
