"""Value-domain seeding, module summaries, and interprocedural propagation.

crowdlint v2 (``flow.py``) can follow a value inside one function; it stops
at the signature.  The refactors on the ROADMAP — interning time-bin×place
items, user ids, and microcell ids to dense ints; incremental re-aggregation
keyed by those ids — introduce a bug class that *lives* on the signature
boundary: a ``user_id`` int passed where a ``microcell_id`` int is expected,
degrees fed to a ``_m`` parameter, ``(lat, lon)`` swapped two calls away from
where the tuple was built.  All of those type-check fine, run fine, and
produce plausible-looking wrong crowd maps.

This module provides the value-domain half of the whole-program layer:

* **Domain families** — four independent value families, each a small flat
  lattice (unknown < value < conflict):

  - ``axis``: ``lat`` / ``lon``
  - ``unit``: ``meters`` / ``kilometers`` / ``degrees`` / ``radians`` /
    ``seconds`` / ``milliseconds``
  - ``id``:   ``user_id`` / ``microcell_id`` / ``item_id``
  - ``dt``:   ``naive`` / ``aware`` datetimes

* **Seeding** — domains are read off identifier conventions the codebase
  already enforces (CW101/CW102 police them per-file): ``lat``/``lon``
  classify as axes, ``_m``/``_deg``/``_s`` suffixes as units,
  ``user_id``/``microcell_id``/``item_id`` (and ``owner_user_id``-style
  compounds) as id domains, ``_utc``/``_naive`` as datetime kinds.

* **Module summaries** — a per-module, JSON-serializable digest of exactly
  the facts interprocedural analysis needs: functions with parameter seeds,
  symbolic call records with per-argument hints, imports, classes, exports,
  and referenced identifiers, plus the thread, exception and resource
  facts.  :func:`extract_summary` makes **one** definition walk per module
  (``_walk_definitions``) and hands every function and class to the four
  fact producers.  Summaries depend only on the module's own source, so
  they cache by content hash (see ``cache.LintCache.get_summary``).

* **Propagation** — :class:`DomainEnv` solves two fixpoints over the
  resolved call graph on the shared worklist solver: *expected* parameter
  domains flow **backward** (a parameter that is passed straight through to
  a ``microcell_id`` parameter is itself expected to be a microcell id),
  and *return* domains flow **forward** (a function returning a ``user_id``
  confers that domain on every call result).  Anything ambiguous collapses
  to unknown or an explicit conflict sentinel, and neither is ever reported
  on — the CW6xx records flag only a *known* actual against a *known,
  different* expected.

Like the rest of ``repro.devtools`` this is stdlib-only and never imports
the code it analyzes.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .exceptions import ExceptionFacts
from .layers import resolve_import
from .resources import ResourceFacts
from .solver import solve
from .threads import ThreadFacts, _attr_chain, _blocks, _call_sym, _scope_nodes

__all__ = [
    "CONFLICT",
    "Definition",
    "DomainEnv",
    "FunctionRef",
    "axis_of",
    "domain_label",
    "dt_domain_of",
    "extract_summary",
    "id_domain_of",
    "seed_domains",
    "unit_of",
]

#: The independent value families tracked per slot.
FAMILIES = ("axis", "unit", "id", "dt")

#: The rule each family's cross-call conflicts are reported under.
FAMILY_RULES = {"id": "CW601", "axis": "CW602", "unit": "CW603", "dt": "CW603"}

#: Sentinel for a slot two propagation sources disagreed about.  A conflict
#: is never reported (the disagreement usually *is* upstream of the bug the
#: call-site check already flags) and never propagates further.
CONFLICT = "<conflict>"


# ---------------------------------------------------------------------------
# Seeding: identifier conventions -> domains
# ---------------------------------------------------------------------------

_LAT_WORDS = {"lat", "lats", "latitude", "latitudes", "phi"}
_LON_WORDS = {"lon", "lons", "lng", "longitude", "longitudes", "lam", "lambda"}

#: Variable-name suffix → canonical unit.  Deliberately small: only suffixes
#: the codebase actually uses as unit markers, to keep false positives near
#: zero (``_s`` is seconds throughout, ``_m`` meters, ``_deg`` degrees).
_UNIT_SUFFIXES = {
    "m": "meters",
    "meters": "meters",
    "km": "kilometers",
    "deg": "degrees",
    "degrees": "degrees",
    "rad": "radians",
    "s": "seconds",
    "sec": "seconds",
    "seconds": "seconds",
    "ms": "milliseconds",
}

#: ``<owner>_id`` → id domain.  ``cell_id`` counts as a microcell id because
#: microcells are the only cells in this codebase (paper §5).
_ID_OWNERS = {
    "user": "user_id",
    "users": "user_id",
    "microcell": "microcell_id",
    "microcells": "microcell_id",
    "cell": "microcell_id",
    "cells": "microcell_id",
    "item": "item_id",
    "items": "item_id",
}


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


def unit_of(name: Optional[str]) -> Optional[str]:
    """The unit encoded in an identifier's suffix, or ``None``.

    ``dist_m`` → meters, ``EARTH_RADIUS_M`` → meters, ``bearing_deg`` →
    degrees, ``dt_s`` → seconds.  A bare suffix-less name has no unit.
    """
    if not name or "_" not in name:
        return None
    last = name.lower().rsplit("_", 1)[1].rstrip("0123456789")
    return _UNIT_SUFFIXES.get(last)


def id_domain_of(name: Optional[str]) -> Optional[str]:
    """The id domain an identifier names, or ``None``.

    ``user_id`` / ``owner_user_id`` / ``user_ids`` → ``user_id``;
    ``microcell_id`` / ``cell_id`` → ``microcell_id``; ``item_id`` →
    ``item_id``; ``uid`` → ``user_id``.  A bare ``id``/``ids`` stays unknown.
    """
    if not name:
        return None
    parts = [part.rstrip("0123456789") for part in name.lower().split("_")]
    if parts[-1] in {"uid", "uids"}:
        return "user_id"
    if parts[-1] not in {"id", "ids"} or len(parts) < 2:
        return None
    return _ID_OWNERS.get(parts[-2])


def dt_domain_of(name: Optional[str]) -> Optional[str]:
    """``"aware"`` for ``*_utc``/``*_aware`` names, ``"naive"`` for ``*_naive``."""
    if not name or "_" not in name:
        return None
    last = name.lower().rsplit("_", 1)[1]
    if last in {"utc", "aware"}:
        return "aware"
    if last == "naive":
        return "naive"
    return None


def seed_domains(name: Optional[str]) -> Dict[str, str]:
    """Every domain an identifier's name declares, keyed by family."""
    seeds: Dict[str, str] = {}
    axis = axis_of(name)
    if axis:
        seeds["axis"] = axis
    unit = unit_of(name)
    if unit:
        seeds["unit"] = unit
    id_domain = id_domain_of(name)
    if id_domain:
        seeds["id"] = id_domain
    dt = dt_domain_of(name)
    if dt:
        seeds["dt"] = dt
    return seeds


#: Human-readable spelling of a domain value for finding messages.
DOMAIN_LABELS = {
    "lat": "latitude",
    "lon": "longitude",
    "user_id": "user id",
    "microcell_id": "microcell id",
    "item_id": "item id",
    "naive": "timezone-naive datetime",
    "aware": "timezone-aware datetime",
}


def domain_label(value: str) -> str:
    return DOMAIN_LABELS.get(value, value)


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
#   ["new", sym, m]       method on a fresh instance:  Cls(...).m(...)
#
# Argument / return value hints:
#   ["param", p]          the enclosing function's parameter p, passed through
#   ["name", ident]       an identifier whose *name* may seed domains
#   ["call", sym]         the result of a resolvable call (return domain)
#   ["const"]             a literal
#   ["unknown"]           anything else
#
# ``offset`` on a call record shifts positional argument mapping (a call
# through ``functools.partial(f, a, b)`` starts binding at position 2).

_PARTIAL_NAMES = {"partial"}


def _is_partial_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _PARTIAL_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in _PARTIAL_NAMES
    return False


class _Scope:
    """Per-function extraction state: params, single-assignment values."""

    def __init__(self, qualname: str, node: Optional[ast.AST]):
        self.qualname = qualname
        self.positional: List[str] = []
        self.param_names: Set[str] = set()
        if node is not None:
            args = node.args
            self.positional = [
                arg.arg for arg in list(getattr(args, "posonlyargs", [])) + list(args.args)
            ]
            self.param_names = set(self.positional) | {a.arg for a in args.kwonlyargs}
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

    The thread, exception, and resource facts ride inside the summary, so
    they share its content-addressed cache entry.
    """
    defs = list(_walk_definitions(tree))
    domain = _SummaryExtractor(tree, module, path, is_init)
    threads, exceptions, resources = ThreadFacts(tree, defs), ExceptionFacts(), ResourceFacts()
    for defn in defs:
        for producer in (domain, threads, exceptions, resources):
            producer.add(defn)
    summary = domain.summary
    summary["threads"] = threads.facts
    summary["exceptions"] = exceptions.facts
    summary["resources"] = resources.facts
    return summary


class _SummaryExtractor:
    """The domain-fact producer: the summary's functions, classes, calls,
    imports, aliases, exports, and referenced identifiers."""

    def __init__(self, tree: ast.Module, module: Optional[str], path: str, is_init: bool):
        self.module = module
        self.is_init = is_init
        self.functions: Dict[str, Dict[str, object]] = {}
        self.classes: Dict[str, Dict[str, object]] = {}
        self.calls: List[Dict[str, object]] = []
        self.imports: Dict[str, List[object]] = {}
        self.aliases: Dict[str, str] = {}
        self.summary: Dict[str, object] = {
            "module": module,
            "path": path,
            "is_init": is_init,
            "functions": self.functions,
            "classes": self.classes,
            "calls": self.calls,
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
            "positional": scope.positional,
            "params": {
                name: seed_domains(name)
                for name in sorted(scope.param_names)
            },
            "returns": [],
            "ctors": {},
            "class": class_name,
        }
        for var, value in scope.assigns.items():
            if isinstance(value, ast.Call):
                sym = self._expr_sym(value.func, scope)
                if sym is not None and sym[0] != "partial":
                    info["ctors"][var] = sym  # type: ignore[index]
        for node in _scope_nodes(body):
            if isinstance(node, ast.Return) and node.value is not None:
                info["returns"].append(self._value_hint(node.value, scope))  # type: ignore[attr-defined]
            elif isinstance(node, ast.Call):
                self._record_call(node, scope)
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

    # ------------------------------------------------------- calls & hints

    def _record_call(self, node: ast.Call, scope: _Scope) -> None:
        offset = 0
        if _is_partial_call(node):
            return  # partial(...) itself constructs, it does not invoke
        sym = self._expr_sym(node.func, scope)
        if sym is None:
            return
        if sym and sym[0] == "partial":
            # A call through a locally-built functools.partial: unwrap to the
            # underlying callee and start positional binding past the
            # pre-bound arguments.
            _, inner, pre_bound = sym
            sym, offset = inner, pre_bound
        args: List[List[object]] = []
        texts: List[str] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break  # positional mapping is unknowable past a *splat
            args.append(self._value_hint(arg, scope))
            texts.append(_short_text(arg))
        kwargs: Dict[str, List[object]] = {}
        kw_texts: Dict[str, str] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            kwargs[keyword.arg] = self._value_hint(keyword.value, scope)
            kw_texts[keyword.arg] = _short_text(keyword.value)
        self.calls.append(
            {
                "caller": scope.qualname,
                "callee": sym,
                "offset": offset,
                "line": node.lineno,
                "col": node.col_offset,
                "args": args,
                "texts": texts,
                "kwargs": kwargs,
                "kw_texts": kw_texts,
            }
        )

    def _expr_sym(
        self, expr: ast.AST, scope: _Scope, depth: int = 3
    ) -> Optional[List[object]]:
        if isinstance(expr, ast.Name):
            name = expr.id
            if depth > 0 and name not in scope.param_names:
                value = scope.assigns.get(name)
                if isinstance(value, ast.Call) and _is_partial_call(value):
                    inner = (
                        self._expr_sym(value.args[0], scope, depth - 1)
                        if value.args
                        else None
                    )
                    if inner is not None and inner[0] != "partial":
                        return ["partial", inner, len(value.args) - 1]
                elif isinstance(value, ast.Name):
                    return self._expr_sym(value, scope, depth - 1)
            return ["name", name]
        if isinstance(expr, ast.Attribute):
            sym = _call_sym(expr)
            if sym is None and isinstance(expr.value, ast.Call):
                inner = self._expr_sym(expr.value.func, scope, depth - 1)
                if inner is not None and inner[0] in {"name", "attr", "dotted"}:
                    return ["new", inner, expr.attr]
            return sym
        return None

    def _value_hint(self, expr: ast.AST, scope: _Scope, depth: int = 3) -> List[object]:
        while isinstance(expr, ast.UnaryOp):
            expr = expr.operand
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in scope.param_names:
                return ["param", name]
            if seed_domains(name):
                return ["name", name]
            value = scope.assigns.get(name)
            if depth > 0 and value is not None:
                hint = self._value_hint(value, scope, depth - 1)
                if hint[0] != "unknown":
                    return hint
            return ["name", name]
        if isinstance(expr, ast.Attribute):
            return ["name", expr.attr]
        if isinstance(expr, ast.Call):
            if _is_partial_call(expr):
                return ["unknown"]
            sym = self._expr_sym(expr.func, scope)
            if sym is not None and sym[0] != "partial":
                return ["call", sym]
            return ["unknown"]
        if isinstance(expr, ast.Constant):
            return ["const"]
        return ["unknown"]


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


def _short_text(node: ast.AST, limit: int = 40) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------------------
# Interprocedural propagation
# ---------------------------------------------------------------------------

#: A function's identity across the project: (module key, qualified name).
FunctionRef = Tuple[str, str]

#: ``resolver(module_key, caller, sym)`` → ``(ref, bound)`` or ``None``.
Resolver = Callable[[str, str, List[object]], Optional[Tuple[FunctionRef, bool]]]


def _bound_args(
    summaries: Dict[str, Dict[str, object]], resolver: Resolver
) -> Iterator[Tuple[str, Dict[str, object], FunctionRef, str, List[object], str]]:
    """``(module, call, callee ref, bound param, hint, arg text)`` per mapped arg."""
    for module_key in sorted(summaries):
        for call in summaries[module_key]["calls"]:  # type: ignore[union-attr]
            resolved = resolver(module_key, call["caller"], call["callee"])
            if resolved is None:
                continue
            ref, bound = resolved
            info = summaries[ref[0]]["functions"].get(ref[1])  # type: ignore[union-attr]
            if info is None:
                continue
            positional = list(info["positional"])
            if bound and positional:
                positional = positional[1:]
            base = int(call["offset"])
            for index, hint in enumerate(call["args"]):
                slot = base + index
                if slot >= len(positional):
                    break
                yield module_key, call, ref, positional[slot], hint, call["texts"][index]
            for kw_name, hint in sorted(call["kwargs"].items()):
                if kw_name in info["params"]:
                    yield module_key, call, ref, kw_name, hint, call["kw_texts"][kw_name]


class DomainEnv:
    """Expected parameter domains and return domains, solved to a fixpoint.

    ``expected[ref][param][family]`` is the domain a parameter is *required*
    to carry: its own name seed, or — when the name says nothing — whatever
    domain the parameter flows into when passed straight through to another
    call (backward propagation).  ``ret[ref][family]`` is the domain every
    return path of the function agrees on (forward propagation through
    ``["call", ...]`` hints).  Both use :data:`CONFLICT` for slots that two
    sources disagree about; conflicted slots neither report nor propagate.
    """

    def __init__(self) -> None:
        self.expected: Dict[FunctionRef, Dict[str, Dict[str, str]]] = {}
        self.ret: Dict[FunctionRef, Dict[str, str]] = {}
        self.seeded: Dict[FunctionRef, Dict[str, Set[str]]] = {}

    # -- queries -----------------------------------------------------------

    def expected_domains(self, ref: FunctionRef, param: str) -> Dict[str, str]:
        slots = self.expected.get(ref, {}).get(param, {})
        return {family: value for family, value in slots.items() if value != CONFLICT}

    def return_domains(self, ref: FunctionRef) -> Dict[str, str]:
        return {
            family: value
            for family, value in self.ret.get(ref, {}).items()
            if value != CONFLICT
        }

    # -- solving -----------------------------------------------------------

    def solve(self, summaries: Dict[str, Dict[str, object]], resolver: Resolver) -> None:
        """Run both fixpoints on the shared solver, expected domains first.

        ``resolver(module_key, caller, sym)`` returns ``(ref, bound)`` —
        ``bound`` meaning the first positional parameter is an implicit
        ``self`` — or ``None`` when the callee cannot be pinned.  Expected
        domains never read return domains, so the return fixpoint runs on
        the settled expected slots.
        """
        returning: List[FunctionRef] = []
        for module_key in sorted(summaries):
            for qualname, info in summaries[module_key]["functions"].items():  # type: ignore[union-attr]
                if qualname == "<module>":
                    continue
                ref = (module_key, qualname)
                self.expected[ref] = {param: dict(seeds) for param, seeds in info["params"].items()}  # type: ignore[index]
                self.seeded[ref] = {param: set(seeds) for param, seeds in info["params"].items()}  # type: ignore[index]
                self.ret[ref] = {}
                if info["returns"]:  # type: ignore[index]
                    returning.append(ref)

        # Backward: a parameter passed straight through to another call
        # expects what the callee's parameter expects.
        relays: Dict[FunctionRef, List[Tuple[str, FunctionRef, str]]] = {}
        relayed_by: Dict[FunctionRef, Set[FunctionRef]] = {}
        for module_key, call, ref, param, hint, _text in _bound_args(summaries, resolver):
            src = (module_key, str(call["caller"]))
            if hint[0] != "param" or hint[1] not in self.expected.get(src, {}):
                continue
            relays.setdefault(src, []).append((str(hint[1]), ref, param))
            relayed_by.setdefault(ref, set()).add(src)
        solve(
            sorted(relays),
            lambda src: self._pull_expected(src, relays[src]),
            lambda ref: sorted(relayed_by.get(ref, ())),
        )

        # Forward: a function returning a call's result returns its domains.
        returned_by: Dict[FunctionRef, Set[FunctionRef]] = {}
        for ref in returning:
            for hint in summaries[ref[0]]["functions"][ref[1]]["returns"]:  # type: ignore[index]
                resolved = resolver(ref[0], ref[1], hint[1]) if hint[0] == "call" else None
                if resolved is not None:
                    returned_by.setdefault(resolved[0], set()).add(ref)
        solve(
            returning,
            lambda ref: self._pull_return(ref, summaries, resolver),
            lambda ref: sorted(returned_by.get(ref, ())),
        )

    def _pull_expected(
        self, src: FunctionRef, relays: List[Tuple[str, FunctionRef, str]]
    ) -> bool:
        changed = False
        for param, ref, callee_param in relays:
            slots = self.expected[src][param]
            seeded = self.seeded[src][param]
            for family, value in self.expected_domains(ref, callee_param).items():
                if family in seeded:
                    continue  # the seed is authoritative; call-site check compares
                current = slots.get(family)
                if current is None:
                    slots[family] = value
                    changed = True
                elif current not in (value, CONFLICT):
                    slots[family] = CONFLICT
                    changed = True
        return changed

    def _pull_return(
        self,
        ref: FunctionRef,
        summaries: Dict[str, Dict[str, object]],
        resolver: Resolver,
    ) -> bool:
        combined: Optional[Dict[str, str]] = None
        for hint in summaries[ref[0]]["functions"][ref[1]]["returns"]:  # type: ignore[index]
            domains = self.hint_domains(ref[0], ref[1], hint, resolver)
            if domains is None:
                combined = {}
                break
            if combined is None:
                combined = dict(domains)
            else:
                combined = {
                    family: value
                    for family, value in combined.items()
                    if domains.get(family) == value
                }
        combined = combined or {}
        if combined == self.ret[ref]:
            return False
        self.ret[ref] = combined
        return True

    def emit_records(
        self,
        summaries: Dict[str, Dict[str, object]],
        resolver: Resolver,
        emit: Callable[[str, Dict[str, object]], None],
    ) -> None:
        """Hand every CW601–CW603 record to ``emit(module_key, record)``.

        One record per resolved call argument whose parameter expects a
        known domain, with the argument's known domain as ``actual`` (or
        ``None``).  The rules report the records whose actual differs; the
        agreeing and unknown ones stay in the table so a caller's dep-key
        changes whenever a callee's expectation does.  Conflicted slots are
        filtered out before this point.
        """
        for module_key, call, ref, param, hint, text in _bound_args(summaries, resolver):
            actual = self.hint_domains(module_key, str(call["caller"]), hint, resolver) or {}
            expected = self.expected_domains(ref, param)
            for family in FAMILIES:
                want = expected.get(family)
                if not want:
                    continue
                emit(
                    module_key,
                    {
                        "rule": FAMILY_RULES[family],
                        "family": family,
                        "line": call["line"],
                        "col": call["col"],
                        "caller": call["caller"],
                        "callee": f"{ref[0]}.{ref[1]}",
                        "param": param,
                        "expected": want,
                        "actual": actual.get(family),
                        "arg": text,
                    },
                )

    def hint_domains(
        self, module_key: str, caller: str, hint: List[object], resolver: Resolver
    ) -> Optional[Dict[str, str]]:
        """The known domains a value hint carries, or ``None`` for unknown."""
        kind = hint[0]
        if kind == "name":
            return seed_domains(hint[1]) or None  # type: ignore[arg-type]
        if kind == "param":
            return self.expected_domains((module_key, caller), hint[1]) or None  # type: ignore[arg-type]
        if kind == "call":
            resolved = resolver(module_key, caller, hint[1])
            if resolved is None:
                return None
            return self.return_domains(resolved[0]) or None
        return None
