"""Shared helpers for the crowdlint rules.

The axis classifier lives in :mod:`repro.devtools.domains` next to the
module summaries.  This module re-exports it alongside the small AST
conveniences the rule packs share, and :class:`RecordRule`, the base every
whole-program rule uses to turn project records into findings.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from ..domains import axis_of  # noqa: F401  (re-exported)
from ..engine import FileContext, Rule
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
    itself.  Subclasses phrase a record (:meth:`message`).
    """

    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        if ctx.project is None:
            return  # per-file runs have no project records
        for record in ctx.project.records(ctx.module_key):
            if record["rule"] == self.id:
                ctx.report(self, anchor(record), self.message(record))

    def message(self, record: Dict[str, object]) -> str:
        raise NotImplementedError


def anchor(record: Dict[str, object]) -> ast.AST:
    """A location-only node so pragma suppression works on record findings."""
    node = ast.Pass()
    node.lineno = int(record["line"])  # type: ignore[arg-type]
    node.col_offset = int(record["col"])  # type: ignore[arg-type]
    return node
