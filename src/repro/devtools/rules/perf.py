"""CW5xx — the hot-path performance pack.

The ROADMAP's production-scale goal (millions of users, incremental
re-aggregation) makes per-item constant factors in the mining/crowd/exec
layers load-bearing.  These rules catch two per-iteration shapes that
profile reviews kept finding:

* **CW501** — ``x in some_list`` membership tests inside a loop: O(n) per
  probe, O(n²) for the classic build-and-dedupe loop.  A set probe is O(1).
* **CW505** — ``TimedItem(...)`` constructed inside a mining/crowd loop
  body: those layers operate on the interned id representation (see
  ``repro.sequences.vocab``); boxing an item per iteration is exactly the
  allocation the interning refactor removed.  Decode at the boundary via
  the vocabulary instead.

List-ness is proven through reaching definitions: "don't know" means
"don't flag".
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from ..engine import FileContext, Rule, register
from ..layers import layer_of
from .common import callee_name

_LOOP_TYPES = (ast.For, ast.AsyncFor, ast.While)
_COMP_TYPES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def enclosing_loop(ctx: FileContext, node: ast.AST) -> Optional[ast.AST]:
    """The innermost loop whose *body* repeats ``node``, or ``None``.

    Comprehension generators count as loops.  Positions that evaluate once —
    a ``for`` statement's iterable, a comprehension's first source iterable —
    do not count, and the walk stops at function/class boundaries.
    """
    parents = ctx.flow.parents
    child: ast.AST = node
    current = parents.get(child)
    via_iter: Optional[ast.comprehension] = None  # generator we entered via .iter
    while current is not None:
        if isinstance(current, _SCOPE_TYPES):
            return None
        if isinstance(current, _LOOP_TYPES):
            if not (isinstance(current, (ast.For, ast.AsyncFor)) and child is current.iter):
                return current
        elif isinstance(current, ast.comprehension):
            if child is current.iter:
                via_iter = current
        elif isinstance(current, _COMP_TYPES):
            if current.generators[0] is not via_iter:
                return current
            via_iter = None
        child, current = current, parents.get(current)
    return None


def names_rebound_in(loop: ast.AST) -> Set[str]:
    """Names assigned (not merely mutated) anywhere inside a loop."""
    rebound: Set[str] = set()
    for sub in ast.walk(loop):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            rebound.add(sub.id)
    return rebound


def is_list_like(ctx: FileContext, node: ast.AST, depth: int = 4) -> bool:
    """Whether an expression provably evaluates to a ``list``.

    Conservative twin of ``determinism.is_set_like``: every reaching
    definition of a name must itself be list-like.
    """
    if depth <= 0:
        return False
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    if isinstance(node, ast.Call):
        name = callee_name(node)
        if isinstance(node.func, ast.Name) and name in {"list", "sorted"}:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return is_list_like(ctx, node.left, depth - 1) and is_list_like(
            ctx, node.right, depth - 1
        )
    if isinstance(node, ast.Name):
        defs = ctx.flow.definitions_for(node)
        if not defs:
            return False
        for definition in defs:
            if definition.kind not in {"assign", "aug"} or definition.value is None:
                return False
            if not is_list_like(ctx, definition.value, depth - 1):
                return False
        return True
    return False


@register
class ListMembershipInLoopRule(Rule):
    id = "CW501"
    name = "list-membership-in-loop"
    description = (
        "`x in <list>` inside a loop is O(n) per probe — the classic "
        "accidentally-quadratic dedupe; probe a set instead."
    )

    def visit_Compare(self, ctx: FileContext, node: ast.Compare) -> None:
        if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.In, ast.NotIn)):
            return
        haystack = node.comparators[0]
        if not isinstance(haystack, ast.Name):
            return
        loop = enclosing_loop(ctx, node)
        if loop is None:
            return
        if haystack.id in names_rebound_in(loop):
            return  # rebound each iteration: not the same list being re-scanned
        if not is_list_like(ctx, haystack):
            return
        ctx.report(
            self,
            node,
            f"membership test against list {haystack.id!r} inside a loop is "
            "O(len) per probe; keep a set alongside (or instead) for O(1) "
            "membership",
        )


#: Layers whose inner loops must stay on the interned id representation.
_INTERNED_LAYERS = frozenset({"mining", "crowd"})


@register
class TimedItemInHotLoopRule(Rule):
    id = "CW505"
    name = "timeditem-in-hot-loop"
    description = (
        "TimedItem(...) constructed inside a mining/crowd loop body boxes "
        "an item per iteration; those layers run on interned int ids — "
        "decode at the boundary via the vocabulary instead."
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        else:
            return
        if callee != "TimedItem":
            return
        if layer_of(ctx.module) not in _INTERNED_LAYERS:
            return
        if enclosing_loop(ctx, node) is None:
            return
        ctx.report(
            self,
            node,
            "TimedItem(...) inside a mining/crowd loop allocates a boxed "
            "item per iteration; operate on interned ids and decode once "
            "at the boundary (ItemVocab.decode)",
        )
