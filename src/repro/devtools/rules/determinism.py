"""CW2xx — the determinism pack.

The repo's headline guarantee (ROADMAP, PR 2) is bit-for-bit reproducibility:
the same seed regenerates every dataset, pattern set, and report, serial or
parallel.  These rules catch the three ways that guarantee silently erodes:

* **CW202** — wall-clock reads (``time.time()``, ``datetime.now()``) whose
  value ends up *in data* — returned, yielded, or stored — rather than in
  timing/observability sinks.  Elapsed-time subtraction and observer calls
  are fine; a timestamp in a result dict means two identical runs differ.
* **CW203** — iteration over a ``set`` that feeds *ordered* output (a list,
  a ``join``, a yield) without an explicit ``sorted(...)``.  Set order
  depends on ``PYTHONHASHSEED`` for strings, so this is nondeterminism that
  only shows up across interpreter restarts — the worst kind.
* **CW204** — plucking an *arbitrary* element out of a set
  (``next(iter(s))``, ``s.pop()``): same hash-order dependence, one element
  at a time.

All three are flow-aware: they use reaching definitions (``devtools/flow``)
to decide whether a name denotes a set or where a clock value ends up, and
they only flag when every reaching definition agrees — ambiguity means
silence, keeping false positives near zero.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..engine import FileContext, Rule, register
from ..layers import layer_of
from .common import callee_name, identifier_of

# --------------------------------------------------------------------------
# CW202 — wall-clock values flowing into data
# --------------------------------------------------------------------------

#: Value-preserving wrappers we look *through* when classifying a use.
_TRANSPARENT_CALLS = frozenset({"abs", "float", "int", "max", "min", "round"})

#: Layers whose whole job is timestamps and timing; exempt from CW202.
_CLOCK_LAYERS = frozenset({"obs"})


def _is_wallclock_call(node: ast.Call, ctx: FileContext) -> Optional[str]:
    """The dotted name of a wall-clock read, or None."""
    func = node.func
    if isinstance(func, ast.Attribute):
        owner = identifier_of(func.value)
        if owner == "time" and func.attr in {"time", "time_ns"}:
            return f"time.{func.attr}"
        if owner == "datetime" and func.attr in {"now", "today"}:
            return f"datetime.{func.attr}"
    elif isinstance(func, ast.Name) and func.id in {"time", "time_ns"}:
        # ``from time import time`` — resolve through the import.
        for definition in ctx.flow.definitions_for(func):
            if definition.kind == "import" and isinstance(
                definition.value, ast.ImportFrom
            ):
                if definition.value.module == "time":
                    return f"time.{func.id}"
    return None


def _data_sink_reason(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """Why this expression's value counts as *data*, or None if benign.

    Walks up the expression tree from ``node``: subtraction (elapsed time),
    comparisons, and observability/logging sinks clear the value; returns,
    yields, container literals, f-strings, and attribute/subscript stores
    condemn it.  An unknown callee ends the walk benignly — interprocedural
    tracking is out of scope and "don't know" must mean "don't flag".
    """
    parents = ctx.flow.parents
    child: ast.AST = node
    parent = parents.get(child)
    while parent is not None:
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return "is returned as data"
        if isinstance(parent, (ast.Dict, ast.List, ast.Tuple, ast.Set,
                               ast.JoinedStr, ast.FormattedValue)):
            return "is stored in a data structure"
        if isinstance(parent, ast.BinOp):
            if isinstance(parent.op, ast.Sub):
                return None  # elapsed-time arithmetic
            child, parent = parent, parents.get(parent)  # scaled clock: keep walking
            continue
        if isinstance(parent, ast.Compare):
            return None
        if isinstance(parent, ast.keyword):
            child, parent = parent, parents.get(parent)
            continue
        if isinstance(parent, ast.Call):
            if child is parent.func:
                return None
            name = callee_name(parent)
            if name in _TRANSPARENT_CALLS:
                child, parent = parent, parents.get(parent)
                continue
            if name in {"dict", "list", "tuple"}:
                return "is stored in a data structure"
            # Observability sinks (observe/inc/set_gauge/...) and unknown
            # callees both land here: "don't know" must mean "don't flag".
            return None
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return "is stored on an object"
            return None  # Name assignment: tracked through reaching defs
        if isinstance(parent, ast.stmt):
            return None
        child, parent = parent, parents.get(parent)
    return None


@register
class WallclockDataRule(Rule):
    id = "CW202"
    name = "wallclock-in-data-path"
    description = (
        "time.time()/datetime.now() value flows into returned or stored "
        "data instead of a timing/observability sink."
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        layer = layer_of(ctx.module)
        if not ctx.module or not ctx.module.startswith("repro"):
            return  # polices the library, not tests/scripts
        if layer in _CLOCK_LAYERS or layer == "devtools":
            return
        clock = _is_wallclock_call(node, ctx)
        if clock is None:
            return
        reason = _data_sink_reason(ctx, node)
        if reason is None:
            reason = self._assigned_name_reaches_data(ctx, node)
        if reason is not None:
            ctx.report(
                self,
                node,
                f"{clock}() {reason} — two identical runs now differ; pass "
                "timestamps in explicitly or route this through repro.obs",
            )

    def _assigned_name_reaches_data(
        self, ctx: FileContext, node: ast.Call
    ) -> Optional[str]:
        """Follow ``x = time.time()`` to every use of ``x`` this def reaches."""
        parent = ctx.flow.parents.get(node)
        if not isinstance(parent, ast.Assign) or len(parent.targets) != 1:
            return None
        target = parent.targets[0]
        if not isinstance(target, ast.Name):
            return None
        for definition in _defs_from_stmt(ctx, parent, target.id):
            for use in ctx.flow.uses_of(definition):
                reason = _data_sink_reason(ctx, use)
                if reason is not None:
                    return f"(via {target.id!r}, line {use.lineno}) {reason}"
        return None


def _defs_from_stmt(ctx: FileContext, stmt: ast.stmt, name: str):
    """The Definition objects a statement generates for ``name``."""
    func = ctx.flow.enclosing_function(stmt)
    graph = ctx.flow.graph_for(func) if func is not None else ctx.flow.module_graph
    for anchored in graph.statements():
        if anchored is stmt:
            for definition in graph._gen(stmt):
                if definition.name == name:
                    yield definition
            return


# --------------------------------------------------------------------------
# CW203 / CW204 — set iteration order
# --------------------------------------------------------------------------

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_PRESERVING_METHODS = frozenset({
    "copy", "difference", "intersection", "symmetric_difference", "union",
})
#: Consumers whose output order follows input order.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})
#: Consumers for which input order is irrelevant — looking *through* these
#: clears the iteration (``sorted(s)`` is the sanctioned spelling).
_ORDER_INSENSITIVE = frozenset({
    "all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum",
    "Counter", "dict",
})
#: Mutating calls inside a loop body that make iteration order observable.
_ORDER_SENSITIVE_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "write", "writerow",
})


def is_set_like(ctx: FileContext, node: ast.AST, depth: int = 4) -> bool:
    """Whether an expression provably evaluates to a set/frozenset.

    Conservative: every reaching definition of a name must itself be
    set-like for the name to count.
    """
    if depth <= 0:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = callee_name(node)
        if isinstance(node.func, ast.Name) and name in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_PRESERVING_METHODS
        ):
            return is_set_like(ctx, node.func.value, depth - 1)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return is_set_like(ctx, node.left, depth - 1) or (
            isinstance(node.op, (ast.BitOr, ast.BitXor))
            and is_set_like(ctx, node.right, depth - 1)
        )
    if isinstance(node, ast.IfExp):
        return is_set_like(ctx, node.body, depth - 1) and is_set_like(
            ctx, node.orelse, depth - 1
        )
    if isinstance(node, ast.Name):
        defs = ctx.flow.definitions_for(node)
        if not defs:
            return False
        for definition in defs:
            if definition.kind == "assign" and definition.value is not None:
                if not is_set_like(ctx, definition.value, depth - 1):
                    return False
            elif definition.kind == "aug":
                if definition.value is None or not is_set_like(
                    ctx, definition.value, depth - 1
                ):
                    return False
            else:
                return False
        return True
    return False


def _inside_order_insensitive_call(ctx: FileContext, node: ast.AST) -> bool:
    """True when an enclosing call renders iteration order irrelevant."""
    parents = ctx.flow.parents
    child: ast.AST = node
    parent = parents.get(child)
    while parent is not None and not isinstance(parent, ast.stmt):
        if isinstance(parent, ast.Call) and child is not parent.func:
            if callee_name(parent) in _ORDER_INSENSITIVE:
                return True
        child, parent = parent, parents.get(parent)
    return False


@register
class UnorderedIterationRule(Rule):
    id = "CW203"
    name = "unordered-iteration"
    description = (
        "Iteration over a set feeds ordered output (list/tuple/join/yield/"
        "append) without an explicit sorted(...)."
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        name = callee_name(node)
        iterable: Optional[ast.AST] = None
        if (
            isinstance(node.func, ast.Name)
            and name in _ORDERED_CONSUMERS
            and len(node.args) == 1
        ):
            iterable = node.args[0]
        elif (
            isinstance(node.func, ast.Attribute)
            and name == "join"
            and isinstance(node.func.value, (ast.Constant, ast.Name))
            and len(node.args) == 1
        ):
            iterable = node.args[0]
        if iterable is None:
            return
        if isinstance(iterable, ast.GeneratorExp):
            self._check_comprehension(ctx, iterable, within_consumer=True)
            return
        if not is_set_like(ctx, iterable):
            return
        if _inside_order_insensitive_call(ctx, node):
            return
        ctx.report(
            self,
            node,
            f"{name}() over a set is hash-ordered; wrap the set in "
            "sorted(...) for a stable order",
        )

    def visit_For(self, ctx: FileContext, node: ast.For) -> None:
        if not is_set_like(ctx, node.iter):
            return
        if not self._body_is_order_sensitive(node.body):
            return
        ctx.report(
            self,
            node,
            "loop over a set feeds ordered output (append/yield inside the "
            "body); iterate over sorted(...) instead",
        )

    def visit_ListComp(self, ctx: FileContext, node: ast.ListComp) -> None:
        self._check_comprehension(ctx, node, within_consumer=False)

    def _check_comprehension(
        self, ctx: FileContext, node: ast.AST, within_consumer: bool
    ) -> None:
        for generator in node.generators:
            if not is_set_like(ctx, generator.iter):
                continue
            if not within_consumer and _inside_order_insensitive_call(ctx, node):
                continue
            ctx.report(
                self,
                node,
                "comprehension over a set produces a hash-ordered sequence; "
                "iterate over sorted(...) instead",
            )
            return

    @staticmethod
    def _body_is_order_sensitive(body: Iterable[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_METHODS
                ):
                    return True
        return False


@register
class ArbitrarySetElementRule(Rule):
    id = "CW204"
    name = "arbitrary-set-element"
    description = (
        "next(iter(s)) / s.pop() on a set picks a hash-ordered 'first' "
        "element — which element is PYTHONHASHSEED-dependent."
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "next" and node.args:
            inner = node.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "iter"
                and inner.args
                and is_set_like(ctx, inner.args[0])
            ):
                ctx.report(
                    self,
                    node,
                    "next(iter(<set>)) picks a hash-ordered element; use "
                    "min(...)/max(...) or sort first",
                )
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and not node.args
            and not node.keywords
            and is_set_like(ctx, func.value)
        ):
            ctx.report(
                self,
                node,
                "set.pop() removes a hash-ordered element; pick the element "
                "deterministically (e.g. via min/sorted) before removing it",
            )
