"""Ordered effect summaries and interprocedural flattening.

Every function gets a structured **effect tree** extracted in source
order: counter increments, resolved call sites, and branches.  ENG001
compares the *flattened counter sequence* of a fast-engine transcription
against its oracle counterpart.

Why a flat sequence and not a CFG: the two engines intentionally differ
in control *structure* (the oracle dispatches through polymorphic
helpers, the fast engine fuses them into straight-line code with its own
branch nesting) while agreeing on the order counters are touched along
every execution path.  Flattening — branches contribute both arms in
source order, loops contribute their body once, early returns are
ignored — erases the structural noise but still changes whenever any
two counter touches swap, which is exactly the drift ENG001 exists to
catch.

The counter alphabet is deliberately narrow:

* ``container["name"] += ...`` where the container resolves to an
  attribute of a project class (``self.m``, ``c = l2.c``);
* ``container.counter("name").add(...)`` — the ``CounterGroup`` idiom.

Plain attribute increments (``self.confirmations += 1``) are *not*
counters: the fast engine legitimately elides bookkeeping the oracle
keeps on helper objects, and the paper's reported metrics all flow
through the two shapes above.  Increment amounts are ignored — order,
not magnitude, is the invariant.

Flattening is **binding-aware**: constant arguments at a call site
(``self._fill_from_l2(block, wrong=True)``), constant parameter
defaults, and constants forwarded through parameter-to-parameter calls
prune ``if param:`` / ``if not param:`` guards in the callee, so the
oracle's shared helpers flatten to the same sequence as the fast
engine's specialized inlinings.  Unknown conditions contribute both
arms; recursion is cut at a revisit.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from ..rules import _WALLCLOCK
from .callgraph import CallSite, FunctionInfo, Project, Ref, Scope

__all__ = [
    "Branch",
    "CallStep",
    "Ctr",
    "analyze_function",
    "counter_sequence",
]

#: sentinel for "this parameter's value is unknown at this call site"
_UNKNOWN = object()

_ENV_READS = frozenset({"os.environ", "os.getenv"})


class Ctr:
    """One counter touch: ``(owner class, attr)`` namespace + name."""

    __slots__ = ("ns", "name", "line")

    def __init__(self, ns: Tuple[str, str], name: str, line: int) -> None:
        self.ns = ns
        self.name = name
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ctr({self.ns[0]}.{self.ns[1]}[{self.name}])"


class CallStep:
    """One resolved call, kept in the tree for flattening."""

    __slots__ = ("site",)

    def __init__(self, site: CallSite) -> None:
        self.site = site

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallStep({self.site.target.qualname})"


class Branch:
    """A conditional: both arms kept, pruned at flatten time if the
    condition is a (possibly negated) bare parameter with a known value."""

    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Optional[Tuple[str, bool]],
                 then: List[object], orelse: List[object]) -> None:
        self.cond = cond  # (param_name, polarity) or None
        self.then = then
        self.orelse = orelse

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Branch({self.cond})"


# --- extraction ------------------------------------------------------------


class _Extractor:
    """One source-order pass over a function body.

    Produces the effect tree and, as side products on the
    :class:`FunctionInfo`, the flat call-site list and the wall-clock/
    environment reference seeds the taint rules start from.
    """

    def __init__(self, project: Project, func: FunctionInfo) -> None:
        self.project = project
        self.func = func
        self.scope: Scope = project.scope_for(func)
        self.params = set(func.param_names)
        self.calls: List[CallSite] = []
        self.wallclock: List[Ref] = []
        self.env: List[Ref] = []

    # -- statements --------------------------------------------------------

    def stmts(self, body: Sequence[ast.stmt]) -> List[object]:
        steps: List[object] = []
        for stmt in body:
            steps.extend(self.stmt(stmt))
        return steps

    def stmt(self, node: ast.stmt) -> List[object]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return []  # separate scope, analyzed on its own
        if isinstance(node, ast.Expr):
            return self.expr(node.value)
        if isinstance(node, ast.Assign):
            steps = self.expr(node.value)
            for target in node.targets:
                self._target(target, steps)
                self.scope.assign(target, node.value)
            return steps
        if isinstance(node, ast.AnnAssign):
            steps = self.expr(node.value) if node.value is not None else []
            if node.value is not None:
                self._target(node.target, steps)
                self.scope.assign(node.target, node.value)
            return steps
        if isinstance(node, ast.AugAssign):
            steps = self.expr(node.value)
            ctr = self._aug_counter(node)
            if ctr is not None:
                steps.append(ctr)
            else:
                self._target(node.target, steps)
            return steps
        if isinstance(node, ast.If):
            cond_steps = self.expr(node.test)
            then = self.stmts(node.body)
            orelse = self.stmts(node.orelse)
            cond = self._param_cond(node.test)
            if not then and not orelse:
                return cond_steps
            return cond_steps + [Branch(cond, then, orelse)]
        if isinstance(node, (ast.For, ast.AsyncFor)):
            steps = self.expr(node.iter)
            steps.extend(self.stmts(node.body))
            steps.extend(self.stmts(node.orelse))
            return steps
        if isinstance(node, ast.While):
            steps = self.expr(node.test)
            steps.extend(self.stmts(node.body))
            steps.extend(self.stmts(node.orelse))
            return steps
        if isinstance(node, (ast.With, ast.AsyncWith)):
            steps: List[object] = []
            for item in node.items:
                steps.extend(self.expr(item.context_expr))
            steps.extend(self.stmts(node.body))
            return steps
        if isinstance(node, ast.Try):
            steps = self.stmts(node.body)
            for handler in node.handlers:
                steps.extend(self.stmts(handler.body))
            steps.extend(self.stmts(node.orelse))
            steps.extend(self.stmts(node.finalbody))
            return steps
        if isinstance(node, ast.Return):
            return self.expr(node.value) if node.value is not None else []
        if isinstance(node, (ast.Raise, ast.Assert)):
            steps = []
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    steps.extend(self.expr(child))
            return steps
        if isinstance(node, ast.Delete):
            return []
        # Pass/Break/Continue/Global/Nonlocal/Import...
        return []

    def _target(self, target: ast.AST, steps: List[object]) -> None:
        """Subscript/attribute *targets* may hide calls in their indices."""
        if isinstance(target, ast.Subscript):
            steps.extend(self.expr(target.value))
            steps.extend(self.expr(target.slice))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, steps)

    def _aug_counter(self, node: ast.AugAssign) -> Optional[Ctr]:
        if not isinstance(node.op, ast.Add):
            return None
        target = node.target
        if not isinstance(target, ast.Subscript):
            return None
        key = target.slice
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        ref = self.scope.container_ref(target.value)
        if ref is None:
            return None
        return Ctr(ref, key.value, node.lineno)

    def _param_cond(self, test: ast.expr) -> Optional[Tuple[str, bool]]:
        if isinstance(test, ast.Name) and test.id in self.params:
            return (test.id, True)
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id in self.params
        ):
            return (test.operand.id, False)
        return None

    # -- expressions --------------------------------------------------------

    def expr(self, node: Optional[ast.expr]) -> List[object]:
        if node is None:
            return []
        steps: List[object] = []
        self._expr(node, steps)
        return steps

    def _expr(self, node: ast.expr, steps: List[object]) -> None:
        self._note_refs(node)
        if isinstance(node, ast.Call):
            ctr = self._counter_call(node)
            if ctr is not None:
                steps.append(ctr)
                return
            self._note_refs(node.func)
            # arguments evaluate before the call happens
            for arg in node.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                self._expr(inner, steps)
            for kw in node.keywords:
                self._expr(kw.value, steps)
            site = self.scope.resolve_call(node)
            if site is not None:
                self.calls.append(site)
                steps.append(CallStep(site))
            return
        if isinstance(node, ast.IfExp):
            self._expr(node.test, steps)
            then: List[object] = []
            orelse: List[object] = []
            self._expr(node.body, then)
            self._expr(node.orelse, orelse)
            if then or orelse:
                steps.append(Branch(self._param_cond(node.test), then, orelse))
            return
        if isinstance(node, (ast.Lambda, ast.GeneratorExp, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return  # deferred evaluation: no effects at this point
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, steps)

    # -- taint seeds ---------------------------------------------------------

    def _note_refs(self, node: ast.expr) -> None:
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return
        canonical = self.scope.canon(node)
        if canonical is None:
            return
        if canonical in _WALLCLOCK and not self._allow_tagged(node, "DET001"):
            self.wallclock.append(Ref(node.lineno, node.col_offset, canonical))
        elif canonical in _ENV_READS and not self._allow_tagged(node, "DET004"):
            self.env.append(Ref(node.lineno, node.col_offset, canonical))

    def _allow_tagged(self, node: ast.AST, rule: str) -> bool:
        tags = self.func.module.allow_tags
        return (
            rule in tags.get(node.lineno, {})
            or rule in tags.get(node.lineno - 1, {})
        )

    def _counter_call(self, node: ast.Call) -> Optional[Ctr]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add"):
            return None
        inner = func.value
        if not isinstance(inner, ast.Call):
            return None
        chain = inner.func
        if not (
            isinstance(chain, ast.Attribute)
            and chain.attr == "counter"
            and inner.args
            and isinstance(inner.args[0], ast.Constant)
            and isinstance(inner.args[0].value, str)
        ):
            return None
        ref = self.scope.container_ref(chain.value)
        if ref is None:
            return None
        return Ctr(ref, inner.args[0].value, node.lineno)


def analyze_function(project: Project, func: FunctionInfo) -> None:
    """Fill ``func.effects`` / call sites / taint seeds (idempotent)."""
    if func.effects is not None:
        return
    extractor = _Extractor(project, func)
    body = getattr(func.node, "body", [])
    func.effects = extractor.stmts(body)
    func.call_sites = extractor.calls
    func.wallclock_refs = extractor.wallclock
    func.env_refs = extractor.env


# --- flattening ------------------------------------------------------------


def _call_bindings(site: CallSite,
                   outer: Dict[str, object]) -> Dict[str, object]:
    """Constant parameter bindings for a callee at one call site."""
    target = site.target
    bindings: Dict[str, object] = dict(target.const_defaults())
    params = target.param_names
    if site.skip_first and params and params[0] == "self":
        params = params[1:]

    def value_of(arg: ast.expr):
        if isinstance(arg, ast.Constant):
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in outer:
            return outer[arg.id]
        return _UNKNOWN

    for i, arg in enumerate(site.node.args):
        if isinstance(arg, ast.Starred) or i >= len(params):
            break
        val = value_of(arg)
        if val is _UNKNOWN:
            bindings.pop(params[i], None)
        else:
            bindings[params[i]] = val
    for kw in site.node.keywords:
        if kw.arg is None:  # **kwargs
            continue
        val = value_of(kw.value)
        if val is _UNKNOWN:
            bindings.pop(kw.arg, None)
        else:
            bindings[kw.arg] = val
    return bindings


def counter_sequence(
    project: Project,
    func: FunctionInfo,
    bindings: Optional[Dict[str, object]] = None,
    _stack: Optional[set] = None,
) -> List[Tuple[Tuple[str, str], str, int]]:
    """Flatten a function's counter touches, following resolved calls.

    Returns ``[(ns, name, line), ...]`` where ``ns`` is the
    ``(class qualname, attr)`` the counter container lives on and
    ``line`` is the line of the touch (in whichever file it lives).
    """
    bindings = bindings or {}
    stack = _stack if _stack is not None else set()
    key = (func.qualname, tuple(sorted(bindings.items(), key=repr)))
    cached = project.seq_memo.get(key)
    if cached is not None:
        return list(cached)
    if func.qualname in stack:
        return []  # recursion: cut the cycle
    stack.add(func.qualname)
    out: List[Tuple[Tuple[str, str], str, int]] = []
    clean = _flatten(project, func.effects or [], bindings, stack, out)
    stack.discard(func.qualname)
    if clean:
        # A sequence truncated by a recursion cut above us in the stack
        # must not be memoized — it would be wrong in other contexts.
        project.seq_memo[key] = tuple(out)
    return out


def _flatten(project: Project, steps: Sequence[object],
             bindings: Dict[str, object], stack: set,
             out: List[Tuple[Tuple[str, str], str, int]]) -> bool:
    clean = True
    for step in steps:
        if isinstance(step, Ctr):
            out.append((step.ns, step.name, step.line))
        elif isinstance(step, Branch):
            if step.cond is not None and step.cond[0] in bindings:
                param, polarity = step.cond
                taken = bool(bindings[param]) == polarity
                clean &= _flatten(project, step.then if taken else step.orelse,
                                  bindings, stack, out)
            else:
                clean &= _flatten(project, step.then, bindings, stack, out)
                clean &= _flatten(project, step.orelse, bindings, stack, out)
        elif isinstance(step, CallStep):
            target = step.site.target
            child = _call_bindings(step.site, bindings)
            out.extend(counter_sequence(project, target, child, stack))
            child_key = (target.qualname,
                         tuple(sorted(child.items(), key=repr)))
            if child_key not in project.seq_memo:
                # the callee hit a recursion cut and was not memoized;
                # this expansion is context-dependent too
                clean = False
    return clean
