"""CW101: coordinate-argument-order checks at geo call sites.

A swapped ``(lon, lat)`` passed to a ``(lat, lon)`` signature produces
plausible-looking but wrong results (the point lands on the wrong continent,
or — worse for city-scale data — a few hundred kilometers off, which survives
bounding-box filters).  This rule knows the argument order of the ``repro.geo``
public surface and flags call sites whose argument *names* contradict the
parameter's axis.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule, register
from .common import axis_of, callee_name

#: Function name → per-positional-argument axis (``None`` = unconstrained).
GEO_SIGNATURES = {
    "haversine_m": ("lat", "lon", "lat", "lon"),
    "equirectangular_m": ("lat", "lon", "lat", "lon"),
    "destination_point": ("lat", "lon", None, None),
    "validate_lat_lon": ("lat", "lon"),
    "GeoPoint": ("lat", "lon"),
}


@register
class CoordinateOrderRule(Rule):
    id = "CW101"
    name = "lat-lon-order"
    description = (
        "Argument whose name says it is a longitude passed in a latitude "
        "position of a known geo signature (or vice versa)."
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        name = callee_name(node)
        signature = GEO_SIGNATURES.get(name or "")
        if signature is None:
            return
        for position, arg in enumerate(node.args):
            if position >= len(signature):
                break
            expected = signature[position]
            actual = axis_of(_arg_identifier(arg))
            if expected and actual and actual != expected:
                ctx.report(
                    self,
                    arg,
                    f"{name}() expects a {expected} in position {position + 1} "
                    f"but the argument looks like a {actual} "
                    f"({ast.unparse(arg)!r}); check the (lat, lon) order",
                )
        for keyword in node.keywords:
            expected = axis_of(keyword.arg)
            actual = axis_of(_arg_identifier(keyword.value))
            if expected and actual and actual != expected:
                ctx.report(
                    self,
                    keyword.value,
                    f"{name}() keyword {keyword.arg!r} expects a {expected} but "
                    f"the argument looks like a {actual} "
                    f"({ast.unparse(keyword.value)!r})",
                )


def _arg_identifier(node: ast.AST):
    """Identifier carrying the axis hint: a name, attribute, or unary thereof."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
