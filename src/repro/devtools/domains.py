"""Module summaries for the whole-program layer, and the coordinate-axis
classifier.

* **Axis classification** — :func:`axis_of` reads ``lat``/``lon`` off
  identifier conventions (``lat1``, ``min_lon``, ``start_latitude``); the
  per-file CW101 checks geo call sites with it.

* **Module summaries** — a per-module, JSON-serializable digest of exactly
  the facts the project analysis needs: functions, classes, symbolic call
  records, imports, aliases, exports, and referenced identifiers, plus the
  thread facts.  :func:`extract_summary` makes **one** definition walk per
  module (``_walk_definitions``) and hands every function and class to the
  two fact producers.  Summaries depend only on
  the module's own source, so they cache by content hash (see
  ``cache.LintCache.get_summary``).

Like the rest of ``repro.devtools`` this is stdlib-only and never imports
the code it analyzes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .layers import resolve_import
from .threads import ThreadFacts, _annotation, _attr_chain, _blocks, _call_sym, _scope_nodes

__all__ = [
    "Definition",
    "FunctionRef",
    "axis_of",
    "extract_summary",
]

_LAT_WORDS = {"lat", "lats", "latitude", "latitudes", "phi"}
_LON_WORDS = {"lon", "lons", "lng", "longitude", "longitudes", "lam", "lambda"}


def axis_of(name: Optional[str]) -> Optional[str]:
    """Classify an identifier as a ``"lat"`` or ``"lon"`` coordinate, if clear.

    Splits on underscores and strips trailing digits so ``lat1``, ``min_lon``
    and ``start_latitude`` all classify.  Returns ``None`` when the identifier
    mentions neither axis or (defensively) both.
    """
    if not name:
        return None
    hits = set()
    for part in name.lower().split("_"):
        part = part.rstrip("0123456789")
        if part in _LAT_WORDS:
            hits.add("lat")
        elif part in _LON_WORDS:
            hits.add("lon")
    if len(hits) == 1:
        return hits.pop()  # crowdlint: disable=CW204 -- single-element set, pop is deterministic
    return None


# ---------------------------------------------------------------------------
# Module summaries
# ---------------------------------------------------------------------------
#
# Symbolic callee forms (JSON lists so summaries round-trip):
#   ["name", f]           a bare name call:  f(...)
#   ["attr", root, m]     one-level attribute call:  root.m(...)  (root may be
#                         an imported module, a local object, or a class)
#   ["dotted", "a.b.c"]   a longer attribute chain over plain names
#   ["self", m]           self.m(...) inside a method


class _Scope:
    """Per-function extraction state: params, single-assignment values."""

    def __init__(self, qualname: str, node: Optional[ast.AST]):
        self.qualname = qualname
        self.param_names: Set[str] = set()
        #: param -> its annotation expression (a string annotation parsed)
        self.annotations: Dict[str, ast.expr] = {}
        if node is not None:
            args = node.args
            params = list(getattr(args, "posonlyargs", [])) + args.args + args.kwonlyargs
            self.param_names = {arg.arg for arg in params}
            for arg in params:
                annotation = _annotation(arg.annotation)
                if annotation is not None:
                    self.annotations[arg.arg] = annotation
        #: var -> RHS expression of its single simple assignment, or None
        #: when the var is rebound (ambiguous — never chased).
        self.assigns: Dict[str, Optional[ast.expr]] = {}


class Definition(NamedTuple):
    """One ``def`` or ``class`` statement as the extraction walk meets it."""

    node: ast.AST
    qualname: str
    #: ``"C"``/``"F"`` per enclosing definition, outermost first, then this
    #: one: a method is ``"CF"``, a class inside a function ``"FC"``.
    kinds: str
    #: No function's if/with/try/loop block lies on the way here.
    direct: bool
    #: Qualname of the innermost enclosing class (``self`` dispatch).
    owner: Optional[str]

    @property
    def is_class(self) -> bool:
        return isinstance(self.node, ast.ClassDef)


def _walk_definitions(tree: ast.Module) -> Iterator[Definition]:
    """Every function and class of a module, pre-order: the one extraction walk.

    Module and class bodies are read statement by statement; function
    bodies are also read through their if/with/try/loop blocks.  Each fact
    producer picks the definitions it models by ``kinds`` and ``direct``.
    """

    def visit(
        body: Sequence[ast.stmt], prefix: str, kinds: str, direct: bool, owner: Optional[str]
    ) -> Iterator[Definition]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_class = isinstance(stmt, ast.ClassDef)
                qualname = prefix + stmt.name
                here = kinds + ("C" if is_class else "F")
                yield Definition(stmt, qualname, here, direct, owner)
                inner_owner = qualname if is_class else owner
                yield from visit(stmt.body, qualname + ".", here, direct, inner_owner)
            elif kinds.endswith("F"):
                for block in _blocks(stmt):
                    yield from visit(block, prefix, kinds, False, owner)

    return visit(tree.body, "", "", True, None)


def extract_summary(
    tree: ast.Module, module: Optional[str], path: str, is_init: bool
) -> Dict[str, object]:
    """The whole-program-relevant digest of one module, as plain JSON data.

    The thread facts ride inside the summary, so they share its
    content-addressed cache entry.
    """
    defs = list(_walk_definitions(tree))
    module_facts = _SummaryExtractor(tree, module, path, is_init)
    threads = ThreadFacts(tree, defs)
    for defn in defs:
        module_facts.add(defn)
        threads.add(defn)
    summary = module_facts.summary
    summary["threads"] = threads.facts
    return summary


class _SummaryExtractor:
    """The module-fact producer: the summary's functions, classes, imports,
    aliases, exports, and referenced identifiers."""

    def __init__(self, tree: ast.Module, module: Optional[str], path: str, is_init: bool):
        self.module = module
        self.is_init = is_init
        self.functions: Dict[str, Dict[str, object]] = {}
        self.classes: Dict[str, Dict[str, object]] = {}
        self.imports: Dict[str, List[object]] = {}
        self.aliases: Dict[str, str] = {}
        self.summary: Dict[str, object] = {
            "module": module,
            "path": path,
            "is_init": is_init,
            "functions": self.functions,
            "classes": self.classes,
            "imports": self.imports,
            "aliases": self.aliases,
            "exports": None,
            "refs": [],
        }
        refs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._record_import(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
        self.summary["refs"] = sorted(refs)
        module_scope = _Scope("<module>", None)
        self._collect_assigns(tree.body, module_scope)
        self._record_function_like(tree.body, module_scope, line=1)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        self.summary["exports"] = _literal_strings(stmt.value)
                    elif isinstance(stmt.value, ast.Name):
                        self.aliases[target.id] = stmt.value.id

    def add(self, defn: Definition) -> None:
        """Model module-level classes, their methods, and plain nested defs."""
        if defn.is_class:
            if defn.kinds == "C":
                self._extract_class(defn.node)  # type: ignore[arg-type]
        elif defn.direct and "C" not in defn.kinds[1:]:
            node = defn.node
            scope = _Scope(defn.qualname, node)
            self._collect_assigns(node.body, scope)  # type: ignore[attr-defined]
            self._record_function_like(
                node.body,  # type: ignore[attr-defined]
                scope,
                line=node.lineno,  # type: ignore[attr-defined]
                class_name=defn.owner if defn.kinds == "CF" else None,
            )

    # ------------------------------------------------------- imports

    def _record_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.ImportFrom):
            target = resolve_import(self.module, node.module, node.level, self.is_init)
            if target is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.imports[alias.asname or alias.name] = ["symbol", target, alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.imports[alias.asname] = ["module", alias.name]
                else:
                    root = alias.name.split(".")[0]
                    self.imports.setdefault(root, ["module", root])

    # ------------------------------------------------------- functions

    def _record_function_like(
        self,
        body: Sequence[ast.stmt],
        scope: _Scope,
        line: int,
        class_name: Optional[str] = None,
    ) -> None:
        info: Dict[str, object] = {
            "line": line,
            "ctors": {},
            "class": class_name,
        }
        for var, value in scope.assigns.items():
            if isinstance(value, ast.Call):
                sym = self._expr_sym(value.func, scope)
                if sym is not None:
                    info["ctors"][var] = sym  # type: ignore[index]
        # A parameter annotated with a class, and never rebound, holds an
        # instance of it: ``owner: "Server"`` then ``owner.m()``.
        for param, annotation in scope.annotations.items():
            if param not in scope.assigns:
                sym = _call_sym(annotation)
                if sym is not None:
                    info["ctors"][param] = sym  # type: ignore[index]
        self.functions[scope.qualname] = info

    def _extract_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            chain = _attr_chain(base)
            if chain is not None:
                bases.append(
                    ["name", chain[0]] if len(chain) == 1 else ["dotted", ".".join(chain)]
                )
        methods = [
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self.classes[node.name] = {
            "line": node.lineno,
            "methods": methods,
            "bases": bases,
        }

    # ------------------------------------------------------- assignments

    def _collect_assigns(self, body: Sequence[ast.stmt], scope: _Scope) -> None:
        for node in _scope_nodes(body):
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    target, value = node.targets[0].id, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    target, value = node.target.id, node.value
            elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                target, value = node.target.id, node.value
            elif isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor)):
                inner = node.target
                for sub in ast.walk(inner):
                    if isinstance(sub, ast.Name):
                        scope.assigns[sub.id] = None  # rebound opaquely
                continue
            if target is None:
                continue
            if target in scope.assigns:
                scope.assigns[target] = None  # rebound: ambiguous, never chased
            else:
                scope.assigns[target] = value

    # ------------------------------------------------------- callees

    def _expr_sym(
        self, expr: ast.AST, scope: _Scope, depth: int = 3
    ) -> Optional[List[object]]:
        """The symbolic callee of ``expr``, chasing simple local aliases."""
        if isinstance(expr, ast.Name):
            value = scope.assigns.get(expr.id)
            if depth > 0 and expr.id not in scope.param_names and isinstance(value, ast.Name):
                return self._expr_sym(value, scope, depth - 1)
            return ["name", expr.id]
        return _call_sym(expr)


def _literal_strings(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
            else:
                return None
        return out
    return None


#: A function's identity across the project: (module key, qualified name).
FunctionRef = Tuple[str, str]
