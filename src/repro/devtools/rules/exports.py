"""CW105/CW604: ``__all__`` export drift, and dead exports.

**CW105** checks one module on its own.  Two directions of drift, both real
failure modes for a package this size:

* a name listed in ``__all__`` that is not bound at module top level breaks
  ``from package import *`` and lies to readers about the public surface;
* a public function/class defined in the module (or, for ``__init__.py``,
  imported into it) but missing from ``__all__`` silently drops it from the
  star-import surface and from the documented API.

Modules without ``__all__`` are skipped — the rule enforces consistency where
the author opted into an explicit export list, it does not mandate one.

**CW604** needs the whole program: a public name that no product code uses
is dead surface, even when tests call it or a package re-exports it.  The
names judged are the ``__all__`` entries of a module (package
``__init__.py`` re-export hubs aside) and the methods of its module-level
classes; a use is a ``Name`` or ``Attribute`` node in a linted file outside
any ``tests`` directory.  The project analysis (``devtools/callgraph``)
computes these records; the rule reports them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..engine import FileContext, Rule, register
from .common import RecordRule


def _all_names(tree: ast.Module) -> Optional[Tuple[ast.AST, List[str]]]:
    """The ``__all__`` assignment node and its string entries, if present."""
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], stmt.value
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        names = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
            else:
                return None  # dynamic __all__: out of scope
        return stmt, names
    return None


def _top_level_bindings(tree: ast.Module) -> Tuple[Set[str], Set[str], Set[str]]:
    """(defs_and_classes, imported, other_assigned) names bound at top level."""
    defs: Set[str] = set()
    imported: Set[str] = set()
    assigned: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(stmt.name)
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        assigned.add(name_node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            assigned.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # names bound conditionally (TYPE_CHECKING guards, optional deps)
            # still count as bound for the "unknown name" direction
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.add(sub.name)
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            imported.add(alias.asname or alias.name)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        imported.add(alias.asname or alias.name.split(".", 1)[0])
    return defs, imported, assigned


@register
class ExportDriftRule(Rule):
    id = "CW105"
    name = "export-drift"
    description = (
        "__all__ disagrees with the names actually defined (unknown entries, "
        "or public definitions missing from the export list)."
    )

    def check_module(self, ctx: FileContext) -> None:
        found = _all_names(ctx.tree)
        if found is None:
            return
        all_node, exported = found
        defs, imported, assigned = _top_level_bindings(ctx.tree)
        bound = defs | imported | assigned

        for name in exported:
            if name not in bound:
                ctx.report(
                    self,
                    all_node,
                    f"__all__ lists {name!r} but the module never binds it",
                )

        # Missing-from-__all__: definitions in a regular module; imported
        # names too when the module is a package __init__ (its whole point
        # is re-export).  Underscore names are private by convention.
        candidates = set(defs)
        if ctx.is_init:
            candidates |= imported
        for name in sorted(candidates):
            if name.startswith("_") or name in exported:
                continue
            ctx.report(
                self,
                all_node,
                f"public name {name!r} is defined but missing from __all__",
            )


@register
class DeadExportRule(RecordRule):
    id = "CW604"
    name = "dead-export"
    description = (
        "A public name (an __all__ entry, or a method of a module-level "
        "class) that no product code uses: a use from tests/, an import or "
        "a re-export does not reach it."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"{record['name']!r} is public but no product code uses it; delete "
            "it, or keep it with `# crowdlint: disable=CW604 -- <reason>`"
        )
