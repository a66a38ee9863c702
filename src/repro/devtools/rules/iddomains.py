"""CW6xx — the id-domain / units pack (whole-program).

The interning refactor on the ROADMAP turns user ids, microcell ids, and
time-bin×place item ids into indistinguishable dense ints; degrees, meters,
and seconds were always indistinguishable floats.  The type system cannot
tell them apart, so these rules do, using the interprocedural domain
analysis (``devtools/domains``) over the project call graph
(``devtools/callgraph``), read as records from the project's records table:

* **CW601** — a value with a *known* id domain passed to a parameter whose
  resolved callee expects a *different* id domain (``user_id`` into a
  ``microcell_id`` slot), through any number of pass-through intermediaries.
* **CW602** — a known latitude/longitude passed to the opposite axis's
  parameter: the cross-call lat/lon swap the per-file CW101 cannot see.
* **CW603** — a known unit fed to a parameter expecting another unit
  (degrees into ``_m``), and naive datetimes fed to ``*_utc`` parameters.
* **CW604** — an ``__all__`` export no other module references or imports:
  dead public surface (``__init__.py`` re-export hubs are exempt).
* **CW605** — one container subscripted with keys from two different id
  domains in the same function (``counts[user_id]`` and
  ``counts[microcell_id]``): either a bug or two maps fused into one.

CW601–CW603 report only a *known* actual against a *known, different*
expected (their records also list the calls that agree, or whose actual is
unknown, so a caller re-lints whenever a callee's expectation changes);
anything the propagation could not pin — including genuine conflicts,
which poison their slot — stays silent.  Zero false positives is
the design budget, enforced by the clean-twin fixtures in the tests.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from ..domains import domain_label, id_domain_of
from ..engine import FileContext, Rule, register
from .common import RecordRule, identifier_of


class _CrossCallRule(RecordRule):
    """CW601–CW603: a known actual domain against a different expected one."""

    def reports(self, record: Dict[str, object]) -> bool:
        return record["actual"] not in (None, record["expected"])

    def severity(self, ctx: FileContext) -> str:
        return "error"


@register
class CrossCallIdDomainRule(_CrossCallRule):
    id = "CW601"
    name = "cross-call-id-domain"
    description = (
        "A value with a known id domain (user/microcell/item) is passed to "
        "a parameter that interprocedural analysis expects to be a "
        "different id domain."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"{record['arg']!r} is a {domain_label(record['actual'])} but "
            f"parameter {record['param']!r} of {record['callee']}() "
            f"expects a {domain_label(record['expected'])}"
        )


@register
class CrossCallLatLonSwapRule(_CrossCallRule):
    id = "CW602"
    name = "cross-call-latlon-swap"
    description = (
        "A known latitude/longitude value is passed to the opposite axis's "
        "parameter of a resolved callee — the cross-module lat/lon swap."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"{record['arg']!r} is a {domain_label(record['actual'])} but "
            f"parameter {record['param']!r} of {record['callee']}() is a "
            f"{domain_label(record['expected'])} — lat/lon swapped at "
            "this call?"
        )


@register
class CrossCallUnitMismatchRule(_CrossCallRule):
    id = "CW603"
    name = "cross-call-unit-mismatch"
    description = (
        "A value with a known unit (or datetime awareness) is passed to a "
        "parameter expecting a different one — degrees into meters, naive "
        "datetimes into *_utc slots."
    )

    def message(self, record: Dict[str, object]) -> str:
        what = "carries" if record["family"] == "unit" else "is"
        return (
            f"{record['arg']!r} {what} {domain_label(record['actual'])} "
            f"but parameter {record['param']!r} of {record['callee']}() "
            f"expects {domain_label(record['expected'])}"
        )


@register
class DeadExportRule(RecordRule):
    id = "CW604"
    name = "dead-export"
    description = (
        "An __all__ entry no other module references, imports, or calls: "
        "dead public surface the call graph proves unreachable from outside."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"{record['name']!r} is exported in __all__ but nothing else "
            "in the project references it; drop the export or the symbol"
        )


@register
class MixedIdContainerKeysRule(Rule):
    id = "CW605"
    name = "mixed-id-container-keys"
    description = (
        "The same container is subscripted with keys from two different id "
        "domains in one function — one map cannot be keyed by both."
    )

    def check_module(self, ctx: FileContext) -> None:
        scopes = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            seen: Dict[str, Tuple[str, str]] = {}
            for sub in self._own_subscripts(scope):
                container = sub.value.id  # type: ignore[union-attr]
                key_name = identifier_of(sub.slice)
                domain = id_domain_of(key_name)
                if domain is None:
                    continue
                previous = seen.get(container)
                if previous is None:
                    seen[container] = (domain, key_name or "")
                elif previous[0] != domain:
                    ctx.report(
                        self,
                        sub,
                        f"container {container!r} is keyed by "
                        f"{domain_label(domain)} {key_name!r} here but by "
                        f"{domain_label(previous[0])} {previous[1]!r} earlier "
                        "in this function — mixed id domains in one map",
                    )

    @staticmethod
    def _own_subscripts(scope: ast.AST) -> List[ast.Subscript]:
        """Subscripts of plain names in ``scope``, excluding nested functions."""
        out: List[ast.Subscript] = []
        stack: List[ast.AST] = list(scope.body)  # type: ignore[attr-defined]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scopes get their own pass
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
                out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        out.sort(key=lambda n: (n.lineno, n.col_offset))
        return out
