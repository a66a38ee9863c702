"""Shared helpers for the crowdlint rules.

The axis classifier lives in :mod:`repro.devtools.domains` next to the
module summaries.  This module re-exports it alongside the small AST
conveniences the rule packs share, and :class:`RecordRule`, the base every
whole-program rule uses to turn project records into findings.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Dict, Optional, Tuple

from ..domains import axis_of  # noqa: F401  (re-exported)
from ..engine import FileContext, Fix, Rule
from ..layers import layer_of
from ..threads import _last_name

#: The trailing identifier of a name-like expression: ``lat`` → ``"lat"``,
#: ``point.lon`` → ``"lon"``, anything else → ``None``.  The rules and the
#: whole-program fact producers share this one copy.
identifier_of = _last_name

__all__ = [
    "RecordRule",
    "anchor",
    "axis_of",
    "callee_name",
    "identifier_of",
]


def callee_name(node: ast.Call) -> Optional[str]:
    """The simple name a call dispatches to (``f(...)`` or ``mod.f(...)``)."""
    return identifier_of(node.func)


class RecordRule(Rule):
    """A whole-program rule: one finding per project record of its rule id.

    The project's records table is the rule's only input beyond the file
    itself.  Subclasses phrase a record (:meth:`message`, or
    :meth:`describe` when the finding also carries a rewrite), may narrow
    which records report (:meth:`reports`), and name the layers whose
    findings are errors (``error_layers``; everywhere else they warn).
    """

    requires_project = True
    error_layers: AbstractSet[str] = frozenset()

    def check_module(self, ctx: FileContext) -> None:
        if ctx.project is None:
            return  # per-file runs have no project records
        for record in ctx.project.records(ctx.module_key):
            if record["rule"] != self.id or not self.reports(record):
                continue
            message, fix = self.describe(ctx, record)
            ctx.report(self, anchor(record), message, fix=fix, severity=self.severity(ctx))

    def reports(self, record: Dict[str, object]) -> bool:
        return True

    def describe(self, ctx: FileContext, record: Dict[str, object]) -> Tuple[str, Optional[Fix]]:
        """The finding's message and optional rewrite."""
        return self.message(record), None

    def message(self, record: Dict[str, object]) -> str:
        raise NotImplementedError

    def severity(self, ctx: FileContext) -> str:
        layer = layer_of(ctx.module) if ctx.module else None
        return "error" if layer in self.error_layers else "warning"


def anchor(record: Dict[str, object]) -> ast.AST:
    """A location-only node so pragma suppression works on record findings."""
    node = ast.Pass()
    node.lineno = int(record["line"])  # type: ignore[arg-type]
    node.col_offset = int(record["col"])  # type: ignore[arg-type]
    return node
