"""CW4xx — the observability-conformance pack.

``repro.obs`` (PR 3) promises that metric names follow the
``repro_<layer>_<name>_<unit>`` grammar so dashboards can be written once.
The promise was a convention; this rule makes it mechanical:

* **CW401** — metric-name grammar: a literal metric name must be
  ``repro_<layer>_<name>_<unit>`` with a known unit segment.

Like CW108 the rule polices the library, not its consumers: files outside
the ``repro`` package (tests, scripts) are exempt.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from ..engine import FileContext, Rule, register

#: Registry/observer mutators that take a metric name as their first argument.
_METRIC_CALLS = frozenset({
    "counter", "gauge", "histogram", "inc", "labels_of", "observe", "set_gauge",
})

#: Canonical unit segments (the grammar's trailing ``<unit>``).
CANONICAL_UNITS = frozenset({
    "bytes", "depth", "ms", "ns", "ratio", "s", "size", "total", "us",
})

_SEGMENT_RE = re.compile(r"^[a-z][a-z0-9]*$")


def _metric_name_argument(node: ast.Call) -> Optional[ast.Constant]:
    """The literal metric-name argument of an instrumentation call, if any."""
    if not isinstance(node.func, ast.Attribute) or node.func.attr not in _METRIC_CALLS:
        return None
    candidate: Optional[ast.expr] = node.args[0] if node.args else None
    if candidate is None:
        for keyword in node.keywords:
            if keyword.arg == "name":
                candidate = keyword.value
                break
    if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
        return candidate
    return None


def _in_repro_library(ctx: FileContext) -> bool:
    return bool(ctx.module) and ctx.module.split(".")[0] == "repro"


def _split_metric(name: str) -> Optional[Tuple[str, List[str], str]]:
    """``repro_<layer>_<name...>_<unit>`` → (layer, name parts, unit)."""
    parts = name.split("_")
    if len(parts) < 4 or parts[0] != "repro":
        return None
    return parts[1], parts[2:-1], parts[-1]


@register
class MetricNameGrammarRule(Rule):
    id = "CW401"
    name = "metric-name-grammar"
    description = (
        "A literal metric name does not follow repro_<layer>_<name>_<unit> "
        "with a canonical unit segment."
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        if not _in_repro_library(ctx):
            return
        literal = _metric_name_argument(node)
        if literal is None:
            return
        name = literal.value
        problem = self._grammar_problem(name)
        if problem is None:
            return
        ctx.report(
            self,
            node,
            f"metric name {name!r} {problem}; the convention is "
            "repro_<layer>_<name>_<unit> (units: "
            f"{', '.join(sorted(CANONICAL_UNITS))})",
        )

    @staticmethod
    def _grammar_problem(name: str) -> Optional[str]:
        split = _split_metric(name)
        if split is None:
            return (
                "lacks the repro_<layer>_<name>_<unit> shape "
                "(needs at least four _-separated segments starting with 'repro')"
            )
        layer, middle, unit = split
        segments = [layer, *middle, unit]
        if any(not _SEGMENT_RE.match(segment) for segment in segments):
            return "has non-lowercase or empty segments"
        if unit not in CANONICAL_UNITS:
            return f"ends in unknown unit {unit!r}"
        return None
