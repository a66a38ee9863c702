"""Static race detection for the concurrent serving path (crowdlint v4).

Three stages, mirroring the v3 whole-program pipeline:

1. **Thread-entry discovery.**  Per-module *thread facts* (extracted next to
   the module summaries, so they ride the same content-addressed cache)
   record every spawn site — ``threading.Thread(target=...)``,
   ``concurrent.futures`` submissions, ``exec.ordered_map`` worker fns,
   executor ``initializer=`` hooks.  Request-handler classes are no roots
   of their own: code is concurrent when a spawn reaches it (in this repo,
   ``CrowdWebApp.handle`` through the ``warm`` thread).  Targets resolve
   through the existing
   :meth:`~repro.devtools.callgraph.ProjectAnalysis.resolve`.

2. **Escape analysis.**  BFS reachability from the roots assigns each
   function a set of *concurrency domains* (``main``, ``thread``,
   ``pool``).  Module globals and instance attributes (reached through
   ``self``, or through a parameter annotated with a class of the same
   module, ``owner: "Server"``) that are
   **mutated** outside construction and **touched from a thread domain**
   are *shared*: two threads spawned from one site already race each
   other, so a single ``thread`` domain counts as concurrent.  ``pool``
   (process workers) has its own address space and never races ``main``.

3. **Lockset inference.**  ``with <lock>:`` regions and
   ``acquire()``/``release()`` pairs produce per-site held-lock sets;
   held sets propagate interprocedurally through an optimistic entry-lock
   fixpoint (the intersection of every resolved call site's held set),
   solved by :func:`~repro.devtools.solver.solve` like every other
   crowdlint fixpoint.  A shared symbol whose writes are majority-
   guarded by one lock gets that lock as its *guarded-by*; the CW7xx pack
   then reports bare writes to symbols no lock guards (CW701) and
   non-atomic check-then-act on shared containers outside any lock
   (CW703).

Only **writes** and check-then-act sites anchor findings.  Bare *reads* of
a published reference are idiomatic under the GIL (``get_observer``
returning the module global) and flagging them would drown the report in
noise; reads still contribute domain evidence and appear in the
``--threads`` listing.

The fact producer is import-light (``ast`` + stdlib + the solver) so
:mod:`repro.devtools.domains` can hand it each definition of its one
extraction walk without an import cycle.  The module-fact producer there
shares the AST helpers at the top.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .solver import solve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import ProjectAnalysis
    from .domains import Definition

__all__ = ["ThreadFacts", "ThreadAnalysis"]

DOMAIN_MAIN = "main"          #: code not reachable from any spawn site
DOMAIN_THREAD = "thread"      #: threading.Thread / ThreadPoolExecutor work
DOMAIN_POOL = "pool"          #: process-pool workers (own address space)

_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)
_THREAD_CTORS = frozenset({"Thread", "Timer"})
_EXECUTOR_CTORS = {
    "ThreadPoolExecutor": DOMAIN_THREAD,
    "ProcessPoolExecutor": DOMAIN_POOL,
}
#: ``repro.exec.ordered_map`` fans work out to a process pool.
_POOL_MAP_FNS = frozenset({"ordered_map"})

#: Methods exempt from the shared-write rules: the instance is not yet
#: published while its constructor runs (happens-before the escape).
_CTOR_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


# --------------------------------------------------------------------------
# extraction: one module's thread facts as plain JSON data
# --------------------------------------------------------------------------


def _attr_chain(expr: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]`` for pure-name chains, else ``None``."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _call_sym(expr: ast.AST) -> Optional[List[object]]:
    """A symbolic callee in the callgraph's resolvable vocabulary."""
    if isinstance(expr, ast.Name):
        return ["name", expr.id]
    if isinstance(expr, ast.Attribute):
        chain = _attr_chain(expr)
        if chain is None:
            return None
        if len(chain) == 2:
            if chain[0] == "self":
                return ["self", chain[1]]
            return ["attr", chain[0], chain[1]]
        return ["dotted", ".".join(chain)]
    return None


def _last_name(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_lock_ctor(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Call)
        and _last_name(expr.func) in _LOCK_CTORS
        and not expr.args
        and not expr.keywords
    )


def _is_mutable_value(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(expr, ast.Call) and _last_name(expr.func) in _MUTABLE_CTORS


def _self_attr(expr: ast.AST) -> Optional[str]:
    """``self.x`` → ``"x"`` (one level only — deeper chains stay opaque)."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _annotation(annotation: Optional[ast.expr]) -> Optional[ast.expr]:
    """An annotation expression, a string annotation parsed (``None`` if absent
    or unparsable)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return annotation


def _scope_nodes(roots: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Every node under ``roots`` in one scope; nested scopes stay unopened.

    A nested ``def``/``class``/``lambda`` is yielded itself but not entered —
    the extraction walk hands it to the producers as its own definition.
    """
    stack = list(roots)
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """The statement blocks of a compound statement, in source order."""
    if isinstance(stmt, ast.Try):
        handlers = [handler.body for handler in stmt.handlers]
        return [stmt.body, *handlers, stmt.orelse, stmt.finalbody]
    if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
        return [stmt.body, stmt.orelse]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [stmt.body]
    return []


def _headers(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a statement evaluates itself, outside its blocks."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    return [child for child in ast.iter_child_nodes(stmt) if isinstance(child, ast.expr)]


class _ModuleInventory:
    """The module-level tables every function record consults."""

    def __init__(self, tree: ast.Module, defs: Sequence["Definition"]) -> None:
        self.mutable_globals: Dict[str, int] = {}
        self.global_locks: Set[str] = set()
        self.rebound_globals: Set[str] = set()
        self.class_bases: Dict[str, List[str]] = {}
        self.class_attrs: Dict[str, Set[str]] = {}
        self.attr_locks: Dict[str, Set[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                self.rebound_globals.update(node.names)
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name) or value is None:
                    continue
                if _is_lock_ctor(value):
                    self.global_locks.add(target.id)
                elif _is_mutable_value(value):
                    self.mutable_globals[target.id] = stmt.lineno
        for defn in defs:
            # Classes reached through an if/with/try/loop inside a function
            # stay out of the tables; their methods see no self attributes.
            if defn.is_class and defn.direct:
                self._add_class(defn.node, defn.qualname)

    def _add_class(self, node: ast.ClassDef, path: str) -> None:
        self.class_bases[path] = [
            name for name in (_last_name(base) for base in node.bases) if name
        ]
        self.class_attrs.setdefault(path, set())
        self.attr_locks.setdefault(path, set())
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_method_attrs(child, path)

    def _scan_method_attrs(self, method: ast.AST, class_path: str) -> None:
        for node in _scope_nodes(ast.iter_child_nodes(method)):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                self.class_attrs[class_path].add(attr)
                if value is not None and _is_lock_ctor(value):
                    self.attr_locks[class_path].add(attr)

    # -- lookups -----------------------------------------------------------

    def _chase(self, class_path: Optional[str], attr: str, table: Dict[str, Set[str]]) -> Optional[str]:
        """The class (``class_path`` or a base) declaring ``attr``, if any."""
        by_simple_name = {path.rsplit(".", 1)[-1]: path for path in self.class_bases}
        seen: Set[str] = set()
        pending = [class_path] if class_path else []
        while pending:
            path = pending.pop(0)
            if path is None or path in seen:
                continue
            seen.add(path)
            if attr in table.get(path, ()):
                return path
            pending.extend(by_simple_name.get(base) for base in self.class_bases.get(path, []))
        return None

    def lock_class(self, class_path: Optional[str], attr: str) -> Optional[str]:
        return self._chase(class_path, attr, self.attr_locks)

    def attr_class(self, class_path: Optional[str], attr: str) -> Optional[str]:
        return self._chase(class_path, attr, self.class_attrs)


class _FunctionScope:
    """Per-function name tables (locals, global decls, simple aliases, and
    the parameters that hold an instance of one of ``classes``)."""

    def __init__(self, fn: ast.AST, classes: Iterable[str] = ()):
        self.globals_decl: Set[str] = set()
        self.locals: Set[str] = set()
        self.assigns: Dict[str, ast.expr] = {}
        self.executors: Dict[str, str] = {}
        #: param -> the class of ``classes`` it is annotated with, when the
        #: body never rebinds it: ``owner: "Server"`` then ``owner.x``.
        self.owners: Dict[str, str] = {}
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (
                list(getattr(args, "posonlyargs", []))
                + args.args
                + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.locals.add(arg.arg)
                annotation = _annotation(arg.annotation)
                if isinstance(annotation, ast.Name) and annotation.id in classes:
                    self.owners[arg.arg] = annotation.id
        for node in _scope_nodes(ast.iter_child_nodes(fn)):
            if isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
                self.owners.pop(node.id, None)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.assigns[target.id] = node.value
            if isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                ctor = node.context_expr
                if isinstance(ctor, ast.Call):
                    domain = _EXECUTOR_CTORS.get(_last_name(ctor.func) or "")
                    if domain:
                        self.executors[node.optional_vars.id] = domain
        for name, value in self.assigns.items():
            if isinstance(value, ast.Call):
                domain = _EXECUTOR_CTORS.get(_last_name(value.func) or "")
                if domain:
                    self.executors[name] = domain
        self.locals -= self.globals_decl


class ThreadFacts:
    """The thread-fact producer: one record per function — accesses, locks,
    calls, spawns — plus the module inventory they were judged against."""

    def __init__(self, tree: ast.Module, defs: Sequence["Definition"]):
        self.inv = _ModuleInventory(tree, defs)
        self.facts: Dict[str, object] = {
            "mutable_globals": dict(sorted(self.inv.mutable_globals.items())),
            "locks": sorted(self.inv.global_locks),
            "functions": {},
        }

    def add(self, defn: "Definition") -> None:
        if defn.is_class:
            return
        record: Dict[str, object] = {
            "line": defn.node.lineno,
            "class": defn.owner,
            "writes": [],
            "reads": [],
            "calls": [],
            "cta": [],
            "spawns": [],
        }
        self.facts["functions"][defn.qualname] = record  # type: ignore[index]
        scope = _FunctionScope(defn.node, self.inv.class_bases)
        walker = _FunctionWalker(self.inv, record, defn.owner, scope)
        walker.walk(defn.node.body, [])  # type: ignore[attr-defined]


class _FunctionWalker:
    """Statement walk of one function body tracking lexically-held locks.

    :meth:`walk` visits one block in order and skips nested definitions (the
    extraction walk hands them over itself).  :meth:`statement` handles what
    the walk models and returns ``True``; anything else falls through: the
    statement's own expressions go to :meth:`scan`, then each of its blocks
    is walked with a copy of the held locks.
    """

    def __init__(
        self,
        inventory: _ModuleInventory,
        record: Dict[str, object],
        self_class: Optional[str],
        scope: _FunctionScope,
    ):
        self.inv = inventory
        self.rec = record
        self.self_class = self_class
        self.scope = scope

    # -- symbols -----------------------------------------------------------

    def _global_symbol(self, name: str, for_write: bool = False) -> Optional[str]:
        if name in self.scope.locals:
            return None
        if for_write and name in self.scope.globals_decl:
            return f"g:{name}"
        if name in self.inv.mutable_globals or name in self.inv.rebound_globals:
            return f"g:{name}"
        return None

    def _owned_attr(self, expr: ast.AST) -> Optional[Tuple[Optional[str], str]]:
        """``(class, attr)`` of ``self.attr``, or of ``p.attr`` for a parameter
        ``p`` annotated with a class of this module."""
        if not (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)):
            return None
        name = expr.value.id
        if name == "self":
            return self.self_class, expr.attr
        if name in self.scope.owners:
            return self.scope.owners[name], expr.attr
        return None

    def _attr_symbol(self, expr: ast.AST) -> Optional[str]:
        owned = self._owned_attr(expr)
        if owned is None:
            return None
        owner = self.inv.attr_class(*owned)
        if owner is None:
            return None
        return f"a:{owner}:{owned[1]}"

    def _container_symbol(self, expr: ast.AST) -> Optional[str]:
        """The shared symbol behind a mutated container, if it is one."""
        if isinstance(expr, ast.Name):
            return self._global_symbol(expr.id)
        return self._attr_symbol(expr)

    def _lock_of(self, expr: ast.AST, depth: int = 2) -> Optional[str]:
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.inv.global_locks and name not in self.scope.locals:
                return f"g:{name}"
            value = self.scope.assigns.get(name)
            if depth > 0 and value is not None:
                return self._lock_of(value, depth - 1)
            return None
        owned = self._owned_attr(expr)
        if owned is not None:
            owner = self.inv.lock_class(*owned)
            if owner is not None:
                return f"a:{owner}:{owned[1]}"
        return None

    # -- recording ---------------------------------------------------------

    def _emit(self, kind: str, symbol: str, node: ast.AST, held: Sequence[str]) -> None:
        entry = {
            "sym": symbol,
            "line": node.lineno,  # type: ignore[attr-defined]
            "col": node.col_offset,  # type: ignore[attr-defined]
        }
        if kind == "writes":
            entry["held"] = sorted(set(held))
        self.rec[kind].append(entry)  # type: ignore[union-attr]

    # -- the walk ----------------------------------------------------------

    def walk(self, stmts: Sequence[ast.stmt], held: List[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if self.statement(stmt, held):
                continue
            for expr in _headers(stmt):
                self.scan(expr, held)
            for block in _blocks(stmt):
                # acquire()/release() only toggle within a block
                self.walk(block, list(held))

    def statement(self, stmt: ast.stmt, held: List[str]) -> bool:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered: List[str] = []
            entered_set: Set[str] = set(held)
            for item in stmt.items:
                self.scan(item.context_expr, held + entered)
                lock = self._lock_of(item.context_expr)
                if lock is not None and lock not in entered_set:
                    entered.append(lock)
                    entered_set.add(lock)
            self.walk(stmt.body, held + entered)
            return True
        if isinstance(stmt, ast.If):
            self._check_then_act(stmt, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._write_target(stmt.target, held)
        elif isinstance(stmt, ast.Assign):
            self.scan(stmt.value, held)
            for target in stmt.targets:
                self._write_target(target, held)
            return True
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                self.scan(stmt.value, held)
            self._write_target(stmt.target, held)
            return True
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    symbol = self._container_symbol(target.value)
                    if symbol is not None:
                        self._emit("writes", symbol, target, held)
                    self.scan(target.slice, held)
            return True
        elif isinstance(stmt, ast.Expr):
            return self._acquire_release(stmt.value, held)
        return False

    def _acquire_release(self, expr: ast.AST, held: List[str]) -> bool:
        if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)):
            return False
        if expr.func.attr not in ("acquire", "release"):
            return False
        lock = self._lock_of(expr.func.value)
        if lock is None:
            return False
        if expr.func.attr == "acquire":
            if lock not in held:
                held.append(lock)
        elif lock in held:
            held.remove(lock)
        return True

    def _write_target(self, target: ast.AST, held: Sequence[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, held)
            return
        if isinstance(target, ast.Starred):
            self._write_target(target.value, held)
            return
        if isinstance(target, ast.Name):
            symbol = self._global_symbol(target.id, for_write=True)
            # A local rebind is not shared state; only a declared-global or
            # container mutation escapes the frame.
            if symbol is not None and target.id in self.scope.globals_decl:
                self._emit("writes", symbol, target, held)
            return
        if self._owned_attr(target) is not None:
            symbol = self._attr_symbol(target)
            if symbol is not None:
                self._emit("writes", symbol, target, held)
            return
        if isinstance(target, ast.Subscript):
            symbol = self._container_symbol(target.value)
            if symbol is not None:
                self._emit("writes", symbol, target, held)
            else:
                self.scan(target.value, held)
            self.scan(target.slice, held)
            return
        if isinstance(target, ast.Attribute):
            # Attribute chains on other roots stay opaque (don't know).
            self.scan(target.value, held)

    def scan(self, expr: ast.AST, held: Sequence[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                symbol = self._global_symbol(node.id)
                if symbol is not None:
                    self._emit("reads", symbol, node, held)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                symbol = self._attr_symbol(node)
                if symbol is not None:
                    self._emit("reads", symbol, node, held)

    def _record_call(self, call: ast.Call, held: Sequence[str]) -> None:
        sym = _call_sym(call.func)
        if sym is not None:
            self.rec["calls"].append(  # type: ignore[union-attr]
                {
                    "sym": sym,
                    "line": call.lineno,
                    "col": call.col_offset,
                    "held": sorted(set(held)),
                }
            )
        self._record_spawn(call)
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATING_METHODS
        ):
            symbol = self._container_symbol(call.func.value)
            if symbol is not None:
                self._emit("writes", symbol, call, held)

    def _record_spawn(self, call: ast.Call) -> None:
        name = _last_name(call.func)
        func = call.func
        if name in _THREAD_CTORS:
            found = [(DOMAIN_THREAD, kw.value) for kw in call.keywords if kw.arg == "target"]
        elif name in _EXECUTOR_CTORS:
            domain = _EXECUTOR_CTORS[name]
            found = [(domain, kw.value) for kw in call.keywords if kw.arg == "initializer"]
        elif name in _POOL_MAP_FNS and call.args:
            found = [(DOMAIN_POOL, call.args[0])]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and isinstance(func.value, ast.Name)
            and func.value.id in self.scope.executors
            and call.args
        ):
            found = [(self.scope.executors[func.value.id], call.args[0])]
        else:
            found = []
        for domain, target in found:
            self.rec["spawns"].append(  # type: ignore[union-attr]
                {"domain": domain, "target": _call_sym(target), "line": call.lineno}
            )

    # -- check-then-act ----------------------------------------------------

    def _check_then_act(self, stmt: ast.If, held: Sequence[str]) -> None:
        test = stmt.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.In, ast.NotIn))
            and len(test.comparators) == 1
        ):
            return
        container = test.comparators[0]
        symbol = self._container_symbol(container)
        if symbol is None:
            return
        container_text = _safe_unparse(container)
        key_text = _safe_unparse(test.left)
        if container_text is None or key_text is None:
            return
        if not self._acts_on(stmt, container_text, key_text):
            return
        self.rec["cta"].append(  # type: ignore[union-attr]
            {
                "sym": symbol,
                "line": stmt.lineno,
                "col": stmt.col_offset,
                "held": sorted(set(held)),
                "setdefault": self._setdefault_shape(stmt, test, container_text, key_text),
            }
        )

    def _acts_on(self, stmt: ast.If, container_text: str, key_text: str) -> bool:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Subscript):
                continue
            if (
                _safe_unparse(node.value) == container_text
                and _safe_unparse(node.slice) == key_text
            ):
                return True
        return False

    @staticmethod
    def _setdefault_shape(
        stmt: ast.If, test: ast.Compare, container_text: str, key_text: str
    ) -> bool:
        """Is this exactly ``if k not in d: d[k] = v``, one ``d.setdefault(k, v)``?

        Only when ``v`` is effect-free enough that eager evaluation cannot
        change behaviour (constants, names, empty constructors, literal
        displays of those).
        """
        if not isinstance(test.ops[0], ast.NotIn) or stmt.orelse or len(stmt.body) != 1:
            return False
        body = stmt.body[0]
        if not (isinstance(body, ast.Assign) and len(body.targets) == 1):
            return False
        target = body.targets[0]
        return (
            isinstance(target, ast.Subscript)
            and _safe_unparse(target.value) == container_text
            and _safe_unparse(target.slice) == key_text
            and _is_effect_free(body.value)
        )


def _safe_unparse(node: ast.AST) -> Optional[str]:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return None


def _is_effect_free(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Constant, ast.Name)):
        return True
    if isinstance(expr, (ast.List, ast.Set, ast.Tuple)):
        return all(_is_effect_free(element) for element in expr.elts)
    if isinstance(expr, ast.Dict):
        return all(
            key is not None and _is_effect_free(key) and _is_effect_free(value)
            for key, value in zip(expr.keys, expr.values)
        )
    if isinstance(expr, ast.Call):
        return _last_name(expr.func) in _MUTABLE_CTORS and not expr.args and not expr.keywords
    return False


# --------------------------------------------------------------------------
# whole-program analysis
# --------------------------------------------------------------------------

Node = Tuple[str, str]  # (module key, function qualname)


class ThreadAnalysis:
    """Roots, concurrency domains, locksets, and guarded-by inference.

    Built from the per-module thread facts inside the summaries, linked
    through the project's call resolution; both fixpoints run on the shared
    solver.
    """

    def __init__(self, project: "ProjectAnalysis"):
        self.nodes: Dict[Node, Dict[str, object]] = project.function_facts("threads")
        self.edges: Dict[Node, Set[Node]] = {}
        self.call_sites: Dict[Node, List[Tuple[Node, FrozenSet[str]]]] = {}
        for node, call, target in project.linked_calls(self.nodes):
            self.edges.setdefault(node, set()).add(target)
            self.call_sites.setdefault(target, []).append((node, frozenset(call["held"])))
        self.roots: List[Tuple[Node, str, str]] = self._discover_roots(project)
        self.domains: Dict[Node, Set[str]] = {}
        self.entry_locks: Dict[Node, Optional[FrozenSet[str]]] = {}
        self.shared: Dict[str, Dict[str, object]] = {}
        self._propagate_domains()
        self._solve_entry_locks()
        self._collect_shared()

    # -- construction ------------------------------------------------------

    def _discover_roots(self, project: "ProjectAnalysis") -> List[Tuple[Node, str, str]]:
        roots: List[Tuple[Node, str, str]] = []
        for node, record in sorted(self.nodes.items()):
            module_key, qualname = node
            for spawn in record["spawns"]:  # type: ignore[union-attr]
                target = project._resolve_target(
                    module_key, qualname, spawn["target"], self.nodes
                )
                if target is None:
                    continue
                via = f"{module_key}:{spawn['line']} ({qualname})"
                roots.append((target, str(spawn["domain"]), via))
        return roots

    def _callees(self, node: Node) -> List[Node]:
        return sorted(self.edges.get(node, ()))

    def _propagate_domains(self) -> None:
        """Domain marks: a root's own domain plus every caller's (they grow)."""
        seeded: Dict[Node, Set[str]] = {}
        for node, domain, _via in self.roots:
            seeded.setdefault(node, set()).add(domain)

        def update(node: Node) -> bool:
            marks = set(seeded.get(node, ()))
            for caller, _held in self.call_sites.get(node, ()):
                marks |= self.domains.get(caller, set())
            if marks == self.domains.get(node, set()):
                return False
            self.domains[node] = marks
            return True

        solve(sorted(seeded), update, self._callees)

    def _solve_entry_locks(self) -> None:
        """Locks held on entry: the meet over call sites, shrinking from ⊤.

        ``None`` is ⊤ (no caller known yet); a caller still at ⊤ is skipped,
        which keeps the meet optimistic until every caller has settled.
        """
        root_nodes = {node for node, _domain, _via in self.roots}
        entry = self.entry_locks
        for node in self.nodes:
            fixed = node in root_nodes or node not in self.call_sites
            entry[node] = frozenset() if fixed else None

        def update(node: Node) -> bool:
            if node in root_nodes or node not in self.call_sites:
                return False  # spawn entries hold nothing, whatever callers do
            met: Optional[FrozenSet[str]] = None
            for caller, held in self.call_sites[node]:
                caller_entry = entry[caller]
                if caller_entry is None:
                    continue
                site_locks = held | caller_entry
                met = site_locks if met is None else met & site_locks
            if met is None or met == entry[node]:
                return False
            entry[node] = met
            return True

        solve(sorted(self.nodes), update, self._callees)

    def _effective_held(self, node: Node, held: Iterable[str]) -> FrozenSet[str]:
        entry = self.entry_locks.get(node) or frozenset()
        return frozenset(held) | entry

    def _node_domains(self, node: Node) -> FrozenSet[str]:
        marks = self.domains.get(node)
        return frozenset(marks) if marks else frozenset({DOMAIN_MAIN})

    def _collect_shared(self) -> None:
        accesses: Dict[str, Dict[str, object]] = {}
        for node, record in sorted(self.nodes.items()):
            for kind in ("writes", "reads"):
                for access in record[kind]:  # type: ignore[union-attr]
                    key = f"{node[0]}::{access['sym']}"
                    info = accesses.setdefault(
                        key, {"writes": [], "reads": [], "domains": set()}
                    )
                    info["domains"].update(self._node_domains(node))  # type: ignore[union-attr]
                    entry = {"node": node, "line": access["line"], "col": access["col"]}
                    if kind == "writes":
                        entry["held"] = self._effective_held(node, access["held"])
                        entry["exempt"] = self._is_ctor_write(node, str(access["sym"]))
                    info[kind].append(entry)  # type: ignore[union-attr]
        for key, info in accesses.items():
            live_writes = [w for w in info["writes"] if not w["exempt"]]  # type: ignore[union-attr]
            if not live_writes:
                continue
            if DOMAIN_THREAD not in info["domains"]:  # type: ignore[operator]
                continue
            guard = self._infer_guard(live_writes)
            self.shared[key] = {
                "writes": live_writes,
                "reads": info["reads"],
                "domains": frozenset(info["domains"]),  # type: ignore[arg-type]
                "guard": guard,
            }

    def _is_ctor_write(self, node: Node, symbol: str) -> bool:
        if not symbol.startswith("a:"):
            return False
        record = self.nodes[node]
        class_path = record.get("class")
        if not class_path:
            return False
        method = node[1].rsplit(".", 1)[-1]
        return method in _CTOR_METHODS

    @staticmethod
    def _infer_guard(writes: List[Dict[str, object]]) -> Optional[str]:
        counts: Counter = Counter()
        for write in writes:
            for lock in write["held"]:  # type: ignore[union-attr]
                counts[lock] += 1
        for lock, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if count * 2 > len(writes):
                return lock
        return None

    # -- findings ----------------------------------------------------------

    def emit_records(self, emit: Callable[[str, Dict[str, object]], None]) -> None:
        """Hand every CW7xx finding record to ``emit(module_key, record)``."""
        for key in sorted(self.shared):
            info = self.shared[key]
            if info["guard"] is not None:
                continue  # some lock guards the symbol's writes
            domains = sorted(info["domains"])  # type: ignore[arg-type]
            for write in info["writes"]:  # type: ignore[union-attr]
                node = write["node"]
                if not write["held"]:
                    emit(
                        node[0],
                        {
                            "rule": "CW701",
                            "line": write["line"],
                            "col": write["col"],
                            "symbol": self.pretty_symbol(key),
                            "domains": domains,
                            "function": node[1],
                        },
                    )
        self._emit_check_then_act(emit)

    def _emit_check_then_act(self, emit: Callable[[str, Dict[str, object]], None]) -> None:
        for node, record in sorted(self.nodes.items()):
            module_key, _qualname = node
            for cta in record.get("cta", []):  # type: ignore[union-attr]
                key = f"{module_key}::{cta['sym']}"
                if key not in self.shared:
                    continue
                if self._effective_held(node, cta.get("held", [])):
                    continue  # the whole check→act runs under some lock
                emit(
                    module_key,
                    {
                        "rule": "CW703",
                        "line": cta["line"],
                        "col": cta["col"],
                        "symbol": self.pretty_symbol(key),
                        "function": node[1],
                        "setdefault": cta["setdefault"],
                    },
                )

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def pretty_symbol(key: str) -> str:
        """``mod::g:X`` → ``mod.X``; ``mod::a:Cls:attr`` → ``mod.Cls.attr``."""
        module_key, _, symbol = key.partition("::")
        if symbol.startswith("g:"):
            return f"{module_key}.{symbol[2:]}"
        if symbol.startswith("a:"):
            _kind, class_path, attr = symbol.split(":", 2)
            return f"{module_key}.{class_path}.{attr}"
        return key

    def pretty_lock(self, module_key: str, lock: str) -> str:
        return self.pretty_symbol(lock if "::" in lock else f"{module_key}::{lock}")

    def render(self) -> str:
        """The ``--threads`` debug listing: roots, shared state, accesses."""
        lines: List[str] = []
        lines.append(f"thread roots ({len(self.roots)}):")
        for node, domain, via in sorted(self.roots, key=lambda r: (r[0], r[1])):
            lines.append(f"  [{domain}] {node[0]}:{node[1]}  via {via}")
        lines.append("")
        lines.append(f"shared state ({len(self.shared)}):")
        for key in sorted(self.shared):
            info = self.shared[key]
            guard = info["guard"]
            guard_text = (
                self.pretty_lock(key.partition("::")[0], str(guard))
                if guard
                else "<none>"
            )
            domains = ",".join(sorted(info["domains"]))  # type: ignore[arg-type]
            lines.append(
                f"  {self.pretty_symbol(key)}  domains={domains}  guarded_by={guard_text}"
            )
            for write in info["writes"]:  # type: ignore[union-attr]
                node = write["node"]
                held = ",".join(sorted(write["held"])) or "-"  # type: ignore[arg-type]
                lines.append(
                    f"    write {node[0]}:{write['line']}  {node[1]}  locks={held}"
                )
            for read in info["reads"]:  # type: ignore[union-attr]
                node = read["node"]
                lines.append(f"    read  {node[0]}:{read['line']}  {node[1]}")
        return "\n".join(lines)
