"""Resource-lifetime + cache-coherence analysis (crowdlint v5, stages 2+3).

Stage 2 — **resource lifetimes**.  Per-function facts record every
acquisition site (``open``/``socket``/``HTTPConnection``/executor
constructors assigned to a plain name, ``X.acquire()`` lock statements,
``tracemalloc.start()``, ``TemporaryDirectory``), then track each one
lexically to its release (``close``/``release``/``shutdown``/``cleanup``/
``os.close``/``tracemalloc.stop``).  A ``with`` acquisition is managed and
never recorded; a token that *escapes* (returned, yielded, stored into a
container/attribute, aliased, or passed to another function) transfers
ownership and is skipped — the analysis only judges provably-local
lifetimes, which is what keeps it at zero false positives.  For the rest:

* no release at all → leak on **every** path (CW801; CW802 for locks);
* release present but not inside a ``finally`` → leak on the exception
  path if an intervening unguarded call **may raise** per the
  interprocedural fixpoint of :mod:`repro.devtools.exceptions`, or on an
  early ``return``/``raise`` between acquire and release.

Stage 3 — **cache coherence**, specialized to ``repro.web.cache``.  A
*serving class* is any class whose ``__init__`` stores a
``ResponseCache(...)`` in an attribute; its other ``__init__``-assigned
attributes are the *served pipeline state*.  Every mutation of served
state outside the constructor must be followed (lexically, in the same
method) by an ``invalidate()``/``clear()`` on the cache attribute —
otherwise handlers keep serving stale generations (CW805).  And no
handler-domain code may bypass the cache API by touching its private
internals (``x.cache._entries`` …) — reads must go through
``lookup``/``store``/``stats`` (CW806, using the thread-domain
propagation of :mod:`repro.devtools.threads` to know what is
handler-reachable).

The atomic-persistence protocol (CW804) is checked per function: code
that stages through ``tempfile.mkstemp`` and publishes with
``os.replace``/``rename`` must ``fsync`` before the rename and unlink the
temp file in an ``except``/``finally`` cleanup, the way
``repro.persistence.save_profiles`` does.

The fact producer is import-light (``ast`` + stdlib + the symbolic
helpers shared with :mod:`repro.devtools.threads`) so
:mod:`repro.devtools.domains` can hand it each definition of its one
extraction walk without an import cycle; :class:`LifecycleAnalysis` judges
the facts once per project, into the project's records table.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .threads import (
    DOMAIN_HANDLER,
    _attr_chain,
    _BlockWalker,
    _call_sym,
    _last_name,
    _scope_nodes,
    _self_attr,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import ProjectAnalysis
    from .domains import Definition

__all__ = ["ResourceFacts", "LifecycleAnalysis"]

#: Constructor last-name → resource kind for plain-name assignments.
_CTOR_KINDS: Dict[str, str] = {
    "open": "file",
    "socket": "socket",
    "create_connection": "socket",
    "socketpair": "socket",
    "HTTPConnection": "connection",
    "HTTPSConnection": "connection",
    "ProcessPoolExecutor": "executor",
    "ThreadPoolExecutor": "executor",
    "TemporaryDirectory": "tempdir",
    "NamedTemporaryFile": "file",
}

#: Method names that release each kind.
_RELEASERS: Dict[str, frozenset] = {
    "file": frozenset({"close"}),
    "socket": frozenset({"close", "shutdown"}),
    "connection": frozenset({"close"}),
    "executor": frozenset({"shutdown"}),
    "tempdir": frozenset({"cleanup"}),
    "trace": frozenset(),  # released by tracemalloc.stop(), matched specially
    "lock": frozenset({"release"}),
}

#: Container/attribute mutators that count as serving-state mutations.
_MUTATORS = frozenset(
    {"update", "append", "extend", "add", "insert", "clear", "pop", "popitem",
     "remove", "discard", "setdefault"}
)

#: Cache methods that bump the generation / drop stale entries.
_BUMPERS = frozenset({"invalidate", "clear"})

#: The class whose instances mark a serving class when stored in __init__.
_CACHE_CLASS = "ResponseCache"

Node = Tuple[str, str]  # (module_key, qualname)
_ResState = Tuple[int, bool, bool, bool]  # (block, guarded, in_finally, in_cleanup)


# --------------------------------------------------------------------------
# extraction: one module's resource + coherence facts as plain JSON data
# --------------------------------------------------------------------------

class ResourceFacts:
    """The resource-fact producer: acquisitions tracked to their releases
    per function, plus the cache-coherence facts of serving classes."""

    def __init__(self) -> None:
        self.coherence: Dict[str, object] = {
            "classes": {},
            "mutations": [],
            "reads": [],
            "defines_cache_class": False,
        }
        self.facts: Dict[str, object] = {"functions": {}, "coherence": self.coherence}

    def add(self, defn: "Definition") -> None:
        if "FC" in defn.kinds:
            return  # classes nested in functions stay opaque, like exceptions.py
        if defn.is_class:
            _scan_coherence_class(defn.node, defn.qualname, self.coherence)
            return
        fn = defn.node
        walker = _ResWalker()
        walker.prescan(fn)
        walker.walk(fn.body, (walker.new_block(), False, False, False))  # type: ignore[attr-defined]
        self.facts["functions"][defn.qualname] = walker.finish(fn)  # type: ignore[index]
        _scan_reads(fn, defn.qualname, self.coherence["reads"])  # type: ignore[arg-type]


class _ResWalker(_BlockWalker):
    """Lexical statement walk of one function body collecting lifetime events.

    The walk state is ``(block, guarded, in_finally, in_cleanup)``: a fresh
    id per block, whether a ``try`` protects the statement, and whether it
    runs in a ``finally`` or an ``except`` cleanup.
    """

    def __init__(self) -> None:
        self.acquires: List[Dict[str, object]] = []
        self.releases: List[Dict[str, object]] = []
        self.escapes: Dict[str, List[int]] = {}
        self.raise_lines: List[int] = []
        self.return_lines: List[int] = []
        self.calls: List[Dict[str, object]] = []
        self.atomic: Dict[str, object] = {}
        self.is_generator = False
        self._tokens: Set[str] = set()
        self._blocks = 0

    def new_block(self) -> int:
        self._blocks += 1
        return self._blocks

    # -- pre-pass ----------------------------------------------------------

    def prescan(self, fn: ast.AST) -> None:
        """Candidate tokens, generator-ness, and the atomic-staging shape."""
        for node in _scope_nodes(ast.iter_child_nodes(fn)):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.is_generator = True
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = _last_name(node.value.func)
                if (
                    name in _CTOR_KINDS
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    self._tokens.add(node.targets[0].id)
            if isinstance(node, ast.Call):
                # _scope_nodes gives no ordering guarantee, so the
                # atomic-staging shape is collected order-independently.
                name = _last_name(node.func)
                if name == "mkstemp":
                    if node.lineno < int(self.atomic.get("line", 10 ** 9)):
                        self.atomic["line"] = node.lineno
                        self.atomic["col"] = node.col_offset
                elif name in ("replace", "rename"):
                    if node.lineno < int(self.atomic.get("replace", 10 ** 9)):
                        self.atomic["replace"] = node.lineno
                elif name == "fsync":
                    self.atomic["fsync"] = True

    # -- expression scan ---------------------------------------------------

    def _scan_expr(self, expr: ast.AST, guarded: bool) -> None:
        stack: List[Tuple[ast.AST, bool]] = [(expr, False)]
        while stack:
            node, shielded = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Name):
                if (
                    not shielded
                    and isinstance(node.ctx, ast.Load)
                    and node.id in self._tokens
                ):
                    self.escapes.setdefault(node.id, []).append(node.lineno)
                continue
            if isinstance(node, ast.Attribute):
                # receiver position: ``f.read()`` / ``f.name`` is not an escape
                stack.append((node.value, isinstance(node.value, ast.Name)))
                continue
            if isinstance(node, ast.Call):
                sym = _call_sym(node.func)
                if sym is not None:
                    self.calls.append(
                        {"sym": sym, "line": node.lineno, "guarded": guarded}
                    )
                # handing the raw handle to the os layer is not an escape
                shield_args = _last_name(node.func) in ("close", "fsync", "fdopen")
                stack.append((node.func, False))
                for arg in node.args:
                    stack.append((arg, shield_args))
                for keyword in node.keywords:
                    stack.append((keyword.value, False))
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    stack.append((child, False))

    # -- acquisition / release matching -----------------------------------

    def _lock_token(self, expr: ast.AST) -> Optional[str]:
        chain = _attr_chain(expr)
        if chain is not None and len(chain) <= 3:
            return ".".join(chain)
        return None

    def _record_acquire(
        self, token: str, kind: str, stmt: ast.stmt, block: int
    ) -> None:
        self.acquires.append(
            {
                "token": token,
                "kind": kind,
                "line": stmt.lineno,
                "col": stmt.col_offset,
                "end": getattr(stmt, "end_lineno", stmt.lineno),
                "block": block,
            }
        )

    def _record_release(
        self, token: str, stmt: ast.stmt, block: int, in_finally: bool
    ) -> None:
        self.releases.append(
            {
                "token": token,
                "line": stmt.lineno,
                "end_line": getattr(stmt, "end_lineno", stmt.lineno),
                "end_col": getattr(stmt, "end_col_offset", 0),
                "block": block,
                "finally": in_finally,
            }
        )

    def _expr_statement(
        self, stmt: ast.Expr, block: int, guarded: bool, in_finally: bool, in_cleanup: bool
    ) -> bool:
        """Handle acquire/release statement shapes; True when consumed."""
        call = stmt.value
        if not isinstance(call, ast.Call):
            return False
        chain = _attr_chain(call.func)
        name = _last_name(call.func)
        if chain == ["tracemalloc", "start"]:
            self._record_acquire("tracemalloc", "trace", stmt, block)
            return True
        if chain == ["tracemalloc", "stop"]:
            self._record_release("tracemalloc", stmt, block, in_finally)
            return True
        if name == "acquire" and isinstance(call.func, ast.Attribute):
            token = self._lock_token(call.func.value)
            # acquire(blocking=False)/acquire(timeout=...) may not hold the
            # lock at all — only the plain unconditional form is tracked.
            if token is not None and not call.args and not call.keywords:
                self._record_acquire(token, "lock", stmt, block)
                return True
        if name == "release" and isinstance(call.func, ast.Attribute):
            token = self._lock_token(call.func.value)
            if token is not None:
                self._record_release(token, stmt, block, in_finally)
                return True
        if (
            name in ("close", "shutdown", "cleanup")
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self._tokens
        ):
            self._record_release(call.func.value.id, stmt, block, in_finally)
            for arg in call.args:  # shutdown(wait=...) args still scan for calls
                self._scan_expr(arg, guarded)
            return True
        if (
            chain == ["os", "close"]
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in self._tokens
        ):
            self._record_release(call.args[0].id, stmt, block, in_finally)
            return True
        if name in ("unlink", "remove") and (in_finally or in_cleanup):
            if "line" in self.atomic:
                self.atomic["cleanup"] = True
        return False

    # -- the walk ----------------------------------------------------------

    def enter(self, state: _ResState) -> _ResState:
        return (self.new_block(), *state[1:])  # type: ignore[return-value]

    def scan(self, expr: ast.AST, state: _ResState) -> None:
        self._scan_expr(expr, state[1])

    def statement(self, stmt: ast.stmt, state: _ResState) -> bool:
        block, guarded, in_finally, in_cleanup = state
        if isinstance(stmt, ast.Return):
            self.return_lines.append(stmt.lineno)
            return False
        if isinstance(stmt, ast.Raise):
            self.raise_lines.append(stmt.lineno)
            return False
        if isinstance(stmt, ast.Try):
            body_guarded = guarded or bool(stmt.handlers) or bool(stmt.finalbody)
            self.walk(stmt.body, (self.new_block(), body_guarded, in_finally, in_cleanup))
            for handler in stmt.handlers:
                self.walk(handler.body, (self.new_block(), guarded, in_finally, True))
            self.walk(stmt.orelse, (self.new_block(), guarded, in_finally, in_cleanup))
            self.walk(stmt.finalbody, (self.new_block(), guarded, True, in_cleanup))
            return True
        if isinstance(stmt, ast.Expr):
            return self._expr_statement(stmt, block, guarded, in_finally, in_cleanup)
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and _last_name(stmt.value.func) in _CTOR_KINDS
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            kind = _CTOR_KINDS[_last_name(stmt.value.func)]  # type: ignore[index]
            self._record_acquire(stmt.targets[0].id, kind, stmt, block)
            for arg in stmt.value.args:
                self._scan_expr(arg, guarded)
            for keyword in stmt.value.keywords:
                self._scan_expr(keyword.value, guarded)
            return True
        return False

    # -- post-processing ---------------------------------------------------

    def finish(self, fn: ast.AST) -> Dict[str, object]:
        record: Dict[str, object] = {
            "line": fn.lineno,  # type: ignore[attr-defined]
            "acquires": [],
        }
        if not self.is_generator:
            for acq in self.acquires:
                record["acquires"].append(self._close_out(acq))  # type: ignore[union-attr]
        if "line" in self.atomic and "replace" in self.atomic:
            record["atomic"] = {
                "line": int(self.atomic["line"]),
                "col": int(self.atomic.get("col", 0)),
                "replace": int(self.atomic["replace"]),
                "fsync": bool(self.atomic.get("fsync")),
                "cleanup": bool(self.atomic.get("cleanup")),
            }
        return record

    def _close_out(self, acq: Dict[str, object]) -> Dict[str, object]:
        token = str(acq["token"])
        line = int(acq["line"])
        release = None
        for rel in self.releases:
            if rel["token"] == token and int(rel["line"]) >= line:
                if release is None or int(rel["line"]) < int(release["line"]):
                    release = rel
        window_end = int(release["line"]) if release else 10 ** 9
        escapes = any(
            line <= esc <= window_end for esc in self.escapes.get(token, [])
        )
        out: Dict[str, object] = {
            "token": token,
            "kind": acq["kind"],
            "line": line,
            "col": int(acq["col"]),
            "released": release is not None,
            "release_line": int(release["line"]) if release else None,
            "protected": bool(release and release["finally"]),
            "escapes": escapes,
            "raise_between": [
                l for l in self.raise_lines if line < l < window_end
            ][:4],
            "return_between": [
                l for l in self.return_lines if line < l < window_end
            ][:4],
            "calls_between": [
                {"sym": c["sym"], "line": c["line"]}
                for c in self.calls
                if not c["guarded"] and line < int(c["line"]) < window_end
            ][:16],
        }
        if (
            acq["kind"] == "lock"
            and release is not None
            and not release["finally"]
            and release["block"] == acq["block"]
            and int(release["line"]) > int(acq["end"])
            and sum(1 for a in self.acquires if a["token"] == token) == 1
            and sum(1 for r in self.releases if r["token"] == token) == 1
        ):
            out["fix"] = {
                "a_line": line,
                "a_col": int(acq["col"]),
                "a_end": int(acq["end"]),
                "r_line": int(release["line"]),
                "r_end_line": int(release["end_line"]),
                "r_end_col": int(release["end_col"]),
                "lock": token,
            }
        return out


# -- coherence facts (module-level class scan) ------------------------------

def _scan_coherence_class(
    node: ast.ClassDef, path: str, coherence: Dict[str, object]
) -> None:
    if node.name == _CACHE_CLASS:
        coherence["defines_cache_class"] = True
    cache_attr, state = _ctor_attrs(node)
    if cache_attr is not None:
        coherence["classes"][path] = {"cache": cache_attr, "state": sorted(state)}  # type: ignore[index]
        _scan_mutations(node, path, cache_attr, state, coherence)


def _ctor_attrs(cls: ast.ClassDef) -> Tuple[Optional[str], Set[str]]:
    """(cache attribute, other ``self.X = ...`` attrs) from ``__init__``."""
    cache_attr: Optional[str] = None
    state: Set[str] = set()
    for stmt in cls.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
            continue
        for node in _scope_nodes(ast.iter_child_nodes(stmt)):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if (
                    isinstance(node.value, ast.Call)
                    and _last_name(node.value.func) == _CACHE_CLASS
                ):
                    cache_attr = attr
                else:
                    state.add(attr)
    state.discard(cache_attr or "")
    return cache_attr, state


def _scan_mutations(
    cls: ast.ClassDef,
    path: str,
    cache_attr: str,
    state: Set[str],
    facts: Dict[str, object],
) -> None:
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name == "__init__":
            continue
        qualname = f"{path}.{stmt.name}"
        mutations: List[Dict[str, object]] = []
        bumps: List[int] = []
        for node in _scope_nodes(ast.iter_child_nodes(stmt)):
            mutated = _mutated_state_attr(node, state)
            if mutated is not None:
                attr, line, col = mutated
                mutations.append(
                    {"class": path, "attr": attr, "func": qualname,
                     "line": line, "col": col}
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _BUMPERS
            ):
                receiver = _self_attr(node.func.value)
                if receiver == cache_attr:
                    bumps.append(node.lineno)
        for mutation in mutations:
            mutation["bumped"] = any(b > int(mutation["line"]) for b in bumps)
            facts["mutations"].append(mutation)  # type: ignore[union-attr]


def _mutated_state_attr(
    node: ast.AST, state: Set[str]
) -> Optional[Tuple[str, int, int]]:
    """``self.X = ...`` / ``self.X[k] = ...`` / ``self.X.update(...)`` sites."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            attr = _self_attr(target)
            if attr is not None and attr in state:
                return attr, node.lineno, node.col_offset
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        attr = _self_attr(node.func.value)
        if attr is not None and attr in state:
            return attr, node.lineno, node.col_offset
    return None


def _scan_reads(fn: ast.AST, qualname: str, reads: List[Dict[str, object]]) -> None:
    """Collect ``<recv>.<cache_attr>._private`` bypass reads of one function."""
    for node in _scope_nodes(ast.iter_child_nodes(fn)):
        if not isinstance(node, ast.Attribute):
            continue
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            continue
        value = node.value
        receiver: Optional[str] = None
        if isinstance(value, ast.Attribute):
            receiver = value.attr
        elif isinstance(value, ast.Name):
            receiver = value.id
        if receiver is None or receiver == "self":
            continue
        reads.append(
            {"func": qualname, "recv": receiver, "attr": node.attr,
             "line": node.lineno, "col": node.col_offset}
        )


# --------------------------------------------------------------------------
# whole-program analysis: lifetimes judged with exception edges
# --------------------------------------------------------------------------

class LifecycleAnalysis:
    """CW801/802/804/805/806 records from the per-module resource facts.

    Exception edges come from :class:`~repro.devtools.exceptions.\
ExceptionAnalysis` (is the leak path reachable?), handler-domain
    membership from :class:`~repro.devtools.threads.ThreadAnalysis`
    (is the bypass read served concurrently?).
    """

    def __init__(self, project: "ProjectAnalysis"):
        self.project = project
        self.exceptions = project.exceptions()
        self.threads = project.threads()
        self._cache_attrs: Set[str] = {
            str(info["cache"])
            for summary in project.summaries.values()
            for info in summary["resources"]["coherence"]["classes"].values()  # type: ignore[index]
        }

    def emit_records(self, emit: Callable[[str, Dict[str, object]], None]) -> None:
        """Hand every CW801/802/804/805/806 record to ``emit(module_key, record)``."""
        summaries = self.project.summaries
        for module_key in sorted(summaries):
            facts = summaries[module_key]["resources"]
            for qualname, record in sorted(facts["functions"].items()):  # type: ignore[index]
                for finding in self._judge_function(module_key, qualname, record):
                    emit(module_key, finding)
            for finding in self._judge_coherence(module_key, facts["coherence"]):  # type: ignore[index]
                emit(module_key, finding)

    # -- lifetimes ---------------------------------------------------------

    def _raising_call(
        self, module_key: str, qualname: str, calls: Sequence[Dict[str, object]]
    ) -> Optional[Tuple[int, List[str]]]:
        """The first intervening resolved call that may raise, if any."""
        for call in calls:
            target = self.project._resolve_target(
                module_key, qualname, call["sym"], self.exceptions.nodes
            )
            if target is None:
                continue
            raised = self.exceptions.raises_out.get(target)
            if raised:
                return int(call["line"]), sorted(raised)
        return None

    def _judge_function(
        self, module_key: str, qualname: str, record: Dict[str, object]
    ) -> Iterator[Dict[str, object]]:
        for acq in record.get("acquires", []):  # type: ignore[union-attr]
            if acq.get("escapes"):
                continue
            rule = "CW802" if acq["kind"] == "lock" else "CW801"
            noun = "lock" if rule == "CW802" else str(acq["kind"])
            token = acq["token"]
            base: Dict[str, object] = {
                "rule": rule,
                "line": int(acq["line"]),
                "col": int(acq["col"]),
                "kind": acq["kind"],
                "token": token,
                "func": qualname,
            }
            if not acq.get("released"):
                base["reason"] = (
                    f"{noun} {token!r} is acquired here and never "
                    f"released on any path"
                )
                yield base
                continue
            if acq.get("protected"):
                continue
            release_line = acq.get("release_line")
            returns = acq.get("return_between") or []
            raises = acq.get("raise_between") or []
            raising = self._raising_call(
                module_key, qualname, acq.get("calls_between") or []
            )
            if returns:
                base["reason"] = (
                    f"return at line {returns[0]} skips the release of "
                    f"{token!r} at line {release_line}"
                )
            elif raises:
                base["reason"] = (
                    f"raise at line {raises[0]} skips the release of "
                    f"{token!r} at line {release_line}"
                )
            elif raising is not None:
                call_line, types = raising
                base["reason"] = (
                    f"call at line {call_line} may raise "
                    f"{', '.join(types)}; the release of {token!r} at line "
                    f"{release_line} is skipped on that path"
                )
            else:
                continue
            if rule == "CW802" and "fix" in acq:
                base["fix"] = acq["fix"]
            yield base
        atomic = record.get("atomic")
        if isinstance(atomic, dict):
            reasons = []
            if not atomic["fsync"]:
                reasons.append(
                    "temp file is renamed into place at line "
                    f"{atomic['replace']} without an fsync — a crash "
                    "can publish truncated contents"
                )
            if not atomic["cleanup"]:
                reasons.append(
                    "staged temp file is not unlinked when the write "
                    "fails (no except/finally cleanup before the "
                    f"rename at line {atomic['replace']})"
                )
            for reason in reasons:
                yield {
                    "rule": "CW804",
                    "line": int(atomic["line"]),
                    "col": int(atomic["col"]),
                    "func": qualname,
                    "reason": reason,
                }

    # -- coherence ---------------------------------------------------------

    def _judge_coherence(
        self, module_key: str, coherence: Dict[str, object]
    ) -> Iterator[Dict[str, object]]:
        for mutation in coherence.get("mutations", []):  # type: ignore[union-attr]
            if mutation.get("bumped"):
                continue
            yield {
                "rule": "CW805",
                "line": int(mutation["line"]),
                "col": int(mutation["col"]),
                "attr": mutation["attr"],
                "func": mutation["func"],
                "class": mutation["class"],
            }
        if coherence.get("defines_cache_class"):
            return  # the cache implementation touches its own internals
        for read in coherence.get("reads", []):  # type: ignore[union-attr]
            if read["recv"] not in self._cache_attrs:
                continue
            node = (module_key, str(read["func"]))
            if DOMAIN_HANDLER not in self.threads.domains.get(node, set()):
                continue
            yield {
                "rule": "CW806",
                "line": int(read["line"]),
                "col": int(read["col"]),
                "attr": f"{read['recv']}.{read['attr']}",
                "func": read["func"],
            }
