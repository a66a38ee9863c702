"""Resource-lifetime analysis (crowdlint v5, stage 2).

Per-function facts record every acquisition site (``open``/``socket``/
``HTTPConnection``/executor constructors assigned to a plain name,
``tracemalloc.start()``, ``TemporaryDirectory``), then track each one
lexically to its release (``close``/``shutdown``/``cleanup``/``os.close``/
``tracemalloc.stop``).  A ``with`` acquisition is managed and never
recorded; a token that *escapes* (returned, yielded, stored into a
container/attribute, aliased, or passed to another function) transfers
ownership and is skipped — the analysis only judges provably-local
lifetimes, which is what keeps it at zero false positives.  For the rest
CW801 reports:

* no release at all → leak on **every** path;
* release present but not inside a ``finally`` → leak on the exception
  path if an intervening unguarded call **may raise** per the
  interprocedural fixpoint of :mod:`repro.devtools.exceptions`, or on an
  early ``return``/``raise`` between acquire and release.

The fact producer is import-light (``ast`` + stdlib + the symbolic
helpers shared with :mod:`repro.devtools.threads`) so
:mod:`repro.devtools.domains` can hand it each definition of its one
extraction walk without an import cycle; :class:`LifecycleAnalysis` judges
the facts once per project, into the project's records table.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .threads import _attr_chain, _BlockWalker, _call_sym, _last_name, _scope_nodes

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

_ResState = Tuple[bool, bool]  # (guarded, in_finally)


# --------------------------------------------------------------------------
# extraction: one module's resource facts as plain JSON data
# --------------------------------------------------------------------------

class ResourceFacts:
    """The resource-fact producer: acquisitions tracked to their releases,
    per function."""

    def __init__(self) -> None:
        self.facts: Dict[str, object] = {"functions": {}}

    def add(self, defn: "Definition") -> None:
        if defn.is_class or "FC" in defn.kinds:
            return  # classes nested in functions stay opaque, like exceptions.py
        fn = defn.node
        walker = _ResWalker()
        walker.prescan(fn)
        walker.walk(fn.body, (False, False))  # type: ignore[attr-defined]
        self.facts["functions"][defn.qualname] = walker.finish(fn)  # type: ignore[index]


class _ResWalker(_BlockWalker):
    """Lexical statement walk of one function body collecting lifetime events.

    The walk state is ``(guarded, in_finally)``: whether a ``try`` protects
    the statement, and whether it runs in a ``finally``.
    """

    def __init__(self) -> None:
        self.acquires: List[Dict[str, object]] = []
        self.releases: List[Dict[str, object]] = []
        self.escapes: Dict[str, List[int]] = {}
        self.raise_lines: List[int] = []
        self.return_lines: List[int] = []
        self.calls: List[Dict[str, object]] = []
        self.is_generator = False
        self._tokens: Set[str] = set()

    # -- pre-pass ----------------------------------------------------------

    def prescan(self, fn: ast.AST) -> None:
        """Candidate tokens and generator-ness."""
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

    def _record_acquire(self, token: str, kind: str, stmt: ast.stmt) -> None:
        self.acquires.append(
            {"token": token, "kind": kind, "line": stmt.lineno, "col": stmt.col_offset}
        )

    def _record_release(self, token: str, stmt: ast.stmt, in_finally: bool) -> None:
        self.releases.append({"token": token, "line": stmt.lineno, "finally": in_finally})

    def _expr_statement(self, stmt: ast.Expr, guarded: bool, in_finally: bool) -> bool:
        """Handle acquire/release statement shapes; True when consumed."""
        call = stmt.value
        if not isinstance(call, ast.Call):
            return False
        chain = _attr_chain(call.func)
        name = _last_name(call.func)
        if chain == ["tracemalloc", "start"]:
            self._record_acquire("tracemalloc", "trace", stmt)
            return True
        if chain == ["tracemalloc", "stop"]:
            self._record_release("tracemalloc", stmt, in_finally)
            return True
        if (
            name in ("close", "shutdown", "cleanup")
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self._tokens
        ):
            self._record_release(call.func.value.id, stmt, in_finally)
            for arg in call.args:  # shutdown(wait=...) args still scan for calls
                self._scan_expr(arg, guarded)
            return True
        if (
            chain == ["os", "close"]
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in self._tokens
        ):
            self._record_release(call.args[0].id, stmt, in_finally)
            return True
        return False

    # -- the walk ----------------------------------------------------------

    def scan(self, expr: ast.AST, state: _ResState) -> None:
        self._scan_expr(expr, state[0])

    def statement(self, stmt: ast.stmt, state: _ResState) -> bool:
        guarded, in_finally = state
        if isinstance(stmt, ast.Return):
            self.return_lines.append(stmt.lineno)
            return False
        if isinstance(stmt, ast.Raise):
            self.raise_lines.append(stmt.lineno)
            return False
        if isinstance(stmt, ast.Try):
            body_guarded = guarded or bool(stmt.handlers) or bool(stmt.finalbody)
            self.walk(stmt.body, (body_guarded, in_finally))
            for handler in stmt.handlers:
                self.walk(handler.body, state)
            self.walk(stmt.orelse, state)
            self.walk(stmt.finalbody, (guarded, True))
            return True
        if isinstance(stmt, ast.Expr):
            return self._expr_statement(stmt, guarded, in_finally)
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and _last_name(stmt.value.func) in _CTOR_KINDS
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            kind = _CTOR_KINDS[_last_name(stmt.value.func)]  # type: ignore[index]
            self._record_acquire(stmt.targets[0].id, kind, stmt)
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
        return {
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


# --------------------------------------------------------------------------
# whole-program analysis: lifetimes judged with exception edges
# --------------------------------------------------------------------------

class LifecycleAnalysis:
    """CW801 records from the per-module resource facts.

    Exception edges come from :class:`~repro.devtools.exceptions.\
ExceptionAnalysis`: is the leak path reachable?
    """

    def __init__(self, project: "ProjectAnalysis"):
        self.project = project
        self.exceptions = project.exceptions()

    def emit_records(self, emit: Callable[[str, Dict[str, object]], None]) -> None:
        """Hand every CW801 record to ``emit(module_key, record)``."""
        summaries = self.project.summaries
        for module_key in sorted(summaries):
            facts = summaries[module_key]["resources"]
            for qualname, record in sorted(facts["functions"].items()):  # type: ignore[index]
                for finding in self._judge_function(module_key, qualname, record):
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
            noun = str(acq["kind"])
            token = acq["token"]
            base: Dict[str, object] = {
                "rule": "CW801",
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
            yield base
