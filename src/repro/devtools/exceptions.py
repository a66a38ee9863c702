"""Interprocedural exception-propagation analysis (crowdlint v5, stage 1).

Per-function *may-raise* summaries computed to fixpoint over the existing
whole-program call graph:

1. **Fact extraction.**  Per-module *exception facts* ride inside the
   module summaries (same content-addressed cache): every explicit
   ``raise`` site, every call expression in the
   callgraph's symbolic-callee vocabulary, and every ``except`` handler —
   each annotated with the ordered stack of handlers lexically guarding
   it, so propagation respects Python's first-matching-handler rule and
   the fact that ``else:``/``finally:`` blocks are *not* protected by
   their own ``try``.

2. **Hierarchy model.**  Handler subsumption uses a builtin exception
   hierarchy (``FileNotFoundError ⊂ OSError ⊂ Exception`` …) extended
   with every project-defined exception class discovered in the facts
   (``UnknownCategoryError ⊂ KeyError``).  ``except Exception`` catches
   any type that does not chain into the ``BaseException``-only family
   (``SystemExit``/``KeyboardInterrupt``/``GeneratorExit``); a bare
   ``except`` or ``except BaseException`` catches everything.

3. **Propagation fixpoint.**  ``raises_out(f)`` seeds from f's unguarded
   explicit raises, grows with every resolved callee's escape set minus
   the handlers guarding the call site, and routes bare ``raise``
   statements inside a handler back out with the types that handler
   actually received.  Sets only grow, so the shared worklist solver runs
   it to convergence with no pass bound.

Unresolved callees (stdlib, third-party) contribute **nothing** — the
analysis answers "which *project-raised* exceptions reach this frame",
which is exactly what the CW801 leak-reachability check needs, and it
keeps CW801 at zero false positives on code the resolver cannot see.

The fact producer is import-light (``ast`` + stdlib + the symbolic
helpers shared with :mod:`repro.devtools.threads`) so
:mod:`repro.devtools.domains` can hand it each definition of its one
extraction walk without an import cycle.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .solver import solve
from .threads import _BlockWalker, _call_sym, _last_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import ProjectAnalysis
    from .domains import Definition

__all__ = ["ExceptionFacts", "ExceptionAnalysis"]

#: child → parent for the builtin hierarchy the subsumption check walks.
_BUILTIN_PARENTS: Dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
}

#: Types that do *not* descend from ``Exception`` — ``except Exception``
#: never catches these (nor anything chaining into them).
_NON_EXCEPTION = frozenset(
    {"BaseException", "KeyboardInterrupt", "SystemExit", "GeneratorExit"}
)

Node = Tuple[str, str]  # (module_key, qualname)
GuardGroups = List[List[int]]  # inner-to-outer: handler ids of each enclosing try


# --------------------------------------------------------------------------
# extraction: one module's exception facts as plain JSON data
# --------------------------------------------------------------------------

def _exc_type_name(expr: Optional[ast.AST]) -> Optional[str]:
    """``raise X(...)`` / ``raise X`` → ``"X"``; bare / opaque → ``None``."""
    if expr is None:
        return None
    if isinstance(expr, ast.Call):
        return _last_name(expr.func)
    return _last_name(expr)


def _caught_type_names(handler: ast.ExceptHandler) -> List[str]:
    """The handler's caught types by last name; ``[]`` for a bare except."""
    node = handler.type
    if node is None:
        return []
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        name = _last_name(expr)
        if name is not None:
            names.append(name)
    return names


class ExceptionFacts:
    """The exception-fact producer: raises, calls, and handlers with guards
    per function, plus the project exception classes' bases."""

    def __init__(self) -> None:
        self.facts: Dict[str, Dict[str, object]] = {"classes": {}, "functions": {}}

    def add(self, defn: "Definition") -> None:
        if "FC" in defn.kinds:
            return  # classes nested in functions stay opaque, like threads.py
        if defn.is_class:
            bases = [name for name in map(_last_name, defn.node.bases) if name]
            self.facts["classes"][defn.node.name] = bases
            return
        record: Dict[str, object] = {
            "line": defn.node.lineno,
            "raises": [],
            "calls": [],
            "handlers": [],
        }
        self.facts["functions"][defn.qualname] = record
        _ExcWalker(record).walk(defn.node.body, ([], None))  # type: ignore[attr-defined]


class _ExcWalker(_BlockWalker):
    """Statement walk of one function tracking the enclosing handler stack.

    The walk state is ``(guards, handler_id)``: the handler groups guarding
    the current statement, and the handler whose body it sits in.
    """

    def __init__(self, record: Dict[str, object]):
        self.rec = record

    def scan(self, expr: ast.AST, state: Tuple[GuardGroups, Optional[int]]) -> None:
        """Record every call in an expression tree (lambda bodies excluded)."""
        guards = state[0]
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                sym = _call_sym(node.func)
                if sym is not None:
                    self.rec["calls"].append(  # type: ignore[union-attr]
                        {
                            "sym": sym,
                            "line": node.lineno,
                            "col": node.col_offset,
                            "guards": [list(group) for group in guards],
                        }
                    )
            stack.extend(ast.iter_child_nodes(node))

    def statement(self, stmt: ast.stmt, state: Tuple[GuardGroups, Optional[int]]) -> bool:
        guards, handler_id = state
        if isinstance(stmt, ast.Raise):
            exc_type = _exc_type_name(stmt.exc)
            entry: Dict[str, object] = {
                "type": exc_type,
                "line": stmt.lineno,
                "guards": [list(group) for group in guards],
            }
            if exc_type is None:
                if handler_id is None:
                    return True  # bare raise with no active handler: dead code
                entry["handler"] = handler_id
            self.rec["raises"].append(entry)  # type: ignore[union-attr]
            return False  # the raised expression still scans for calls
        if isinstance(stmt, ast.Try):
            handler_ids: List[int] = []
            for handler in stmt.handlers:
                hid = len(self.rec["handlers"])  # type: ignore[arg-type]
                handler_ids.append(hid)
                self.rec["handlers"].append(_caught_type_names(handler))  # type: ignore[union-attr]
            inner = ([handler_ids] if handler_ids else []) + guards
            self.walk(stmt.body, (inner, handler_id))
            for hid, handler in zip(handler_ids, stmt.handlers):
                self.walk(handler.body, (guards, hid))
            # else: runs only when the body did not raise — and its own
            # exceptions are NOT caught by this try's handlers.
            self.walk(stmt.orelse, state)
            self.walk(stmt.finalbody, state)
            return True
        return False


# --------------------------------------------------------------------------
# whole-program analysis: the may-raise fixpoint
# --------------------------------------------------------------------------


class ExceptionAnalysis:
    """Interprocedural may-raise sets.

    Built from the per-module exception facts inside the summaries, linked
    through the project's call resolution; the fixpoint runs on the shared
    solver.
    """

    def __init__(self, project: "ProjectAnalysis"):
        self._parents: Dict[str, Set[str]] = {}
        for name, parent in _BUILTIN_PARENTS.items():
            self._parents.setdefault(name, set()).add(parent)
        for module_key in sorted(project.summaries):
            classes = project.summaries[module_key]["exceptions"]["classes"]  # type: ignore[index]
            for name, bases in classes.items():
                self._parents.setdefault(name, set()).update(bases)
        self.nodes: Dict[Node, Dict[str, object]] = project.function_facts("exceptions")
        self.raises_out: Dict[Node, Set[str]] = {}
        self.incoming: Dict[Tuple[Node, int], Set[str]] = {}
        self._call_targets: Dict[Node, List[Tuple[Dict[str, object], Node]]] = {}
        callers: Dict[Node, Set[Node]] = {}
        for node, call, target in project.linked_calls(self.nodes):
            if target != node:
                self._call_targets.setdefault(node, []).append((call, target))
                callers.setdefault(target, set()).add(node)
        # A bare re-raise reads its own function's handler inputs, so a
        # changed function is revisited along with its callers.
        def dependents(node: Node) -> List[Node]:
            return [node, *sorted(callers.get(node, ()))]

        solve(sorted(self.nodes), self._propagate, dependents)

    # -- the hierarchy -----------------------------------------------------

    def _is_subtype(self, child: str, ancestor: str) -> bool:
        if child == ancestor:
            return True
        seen: Set[str] = set()
        stack = [child]
        while stack:
            current = stack.pop()
            for parent in self._parents.get(current, ()):
                if parent == ancestor:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return False

    def _catches(self, caught: Sequence[str], exc: str) -> bool:
        """Would a handler with these caught types stop ``exc``?"""
        if not caught:
            return True  # bare except
        for caught_type in caught:
            if caught_type == "BaseException":
                return True
            if self._is_subtype(exc, caught_type):
                return True
            if caught_type == "Exception":
                # Unknown types are assumed Exception-derived unless they
                # chain into the BaseException-only family.
                if exc not in _NON_EXCEPTION and not any(
                    self._is_subtype(exc, base) for base in _NON_EXCEPTION
                ):
                    return True
        return False

    # -- the fixpoint ------------------------------------------------------

    def _sites(self, node: Node) -> Iterator[Tuple[List[str], GuardGroups]]:
        """Every throwing site of a function as (types, guards): raises
        (a bare ``raise`` re-raises what its handler received), then calls."""
        record = self.nodes[node]
        for entry in record["raises"]:  # type: ignore[union-attr]
            if entry["type"] is not None:
                yield [str(entry["type"])], entry["guards"]
            else:
                received = self.incoming.get((node, int(entry["handler"])), ())
                yield sorted(received), entry["guards"]
        for call, target in self._call_targets.get(node, ()):
            yield sorted(self.raises_out.get(target, ())), call["guards"]  # type: ignore[misc]

    def _handler_for(self, node: Node, exc: str, guards: GuardGroups) -> Optional[int]:
        """The first guarding handler that catches ``exc``; ``None`` if it escapes."""
        handlers = self.nodes[node]["handlers"]
        for group in guards:
            for hid in group:
                try:
                    caught = handlers[hid]  # type: ignore[index]
                except (IndexError, TypeError):
                    continue
                if self._catches(caught, exc):
                    return hid
        return None

    def _propagate(self, node: Node) -> bool:
        """Deliver every site's types to a handler or out of the function."""
        changed = False
        for types, guards in self._sites(node):
            for exc in types:
                hid = self._handler_for(node, exc, guards)
                if hid is None:
                    bucket = self.raises_out.setdefault(node, set())
                else:
                    bucket = self.incoming.setdefault((node, hid), set())
                if exc not in bucket:
                    bucket.add(exc)
                    changed = True
        return changed

    def may_raise(self, module_key: str, qualname: str) -> frozenset:
        """The project-raised exception types escaping one function."""
        return frozenset(self.raises_out.get((module_key, qualname), set()))
