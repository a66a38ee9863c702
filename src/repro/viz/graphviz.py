"""Place-graph rendering: the individual user's "graph of visited places".

Lays out a networkx place graph on a circle, one node per place in sorted
label order (the order the categorical colours are assigned in), so the
same graph always renders identically with no seed and no iterations.
Nodes are sized by visit count / pattern support and edges weighted by
transition frequency.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .palette import (
    CATEGORICAL,
    GRID,
    OTHER,
    SURFACE,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    categorical_for,
)
from .svg import SvgCanvas

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["render_place_graph"]


def _node_radius(value: float, vmax: float, r_min: float = 10.0, r_max: float = 26.0) -> float:
    if vmax <= 0:
        return r_min
    return r_min + (r_max - r_min) * math.sqrt(min(1.0, value / vmax))


def render_place_graph(
    graph: nx.DiGraph,
    width: float = 720.0,
    height: float = 560.0,
    title: Optional[str] = None,
) -> str:
    """A user's place graph as SVG.

    Node size encodes visits (or max pattern support × 100 for pattern
    graphs); edge width encodes transition weight; node color is the place
    label's fixed categorical slot.
    """
    canvas = SvgCanvas(width, height, background=SURFACE)
    heading = title or f"Place graph — user {graph.graph.get('user_id', '?')}"
    canvas.text(12, 22, heading, fill=TEXT_PRIMARY, size=14, weight="600")
    if graph.number_of_nodes() == 0:
        canvas.text(width / 2, height / 2, "no places visited",
                    fill=TEXT_SECONDARY, size=13, anchor="middle")
        return canvas.to_string()

    # Places on an ellipse filling the plot area, clockwise from the top.
    pad = 60.0
    cx, rx = width / 2, (width - 2 * pad) / 2
    ry = (height - 60.0 - pad) / 2
    cy = 40.0 + pad / 2 + ry
    order = sorted(graph.nodes())
    step = 2 * math.pi / len(order)
    positions: Dict[str, Tuple[float, float]] = {
        node: (cx + rx * math.cos(i * step - math.pi / 2),
               cy + ry * math.sin(i * step - math.pi / 2))
        for i, node in enumerate(order)
    }

    def node_value(attrs: Dict) -> float:
        if "visits" in attrs:
            return float(attrs["visits"])
        return float(attrs.get("support", 0.0)) * 100.0

    vmax = max((node_value(a) for _, a in graph.nodes(data=True)), default=1.0)
    w_max = max((attrs.get("weight", 1.0) for _, _, attrs in graph.edges(data=True)), default=1.0)
    colors = categorical_for(order)

    # Edges first (under the nodes), arrowheads as short chevrons.
    for u, v, attrs in graph.edges(data=True):
        x1, y1 = positions[u]
        x2, y2 = positions[v]
        weight = attrs.get("weight", 1.0)
        stroke_w = 1.0 + 3.0 * (weight / w_max)
        canvas.line(x1, y1, x2, y2, stroke=GRID, stroke_width=stroke_w, opacity=0.9)
        # Arrow chevron at 70% along the edge.
        ax = x1 + (x2 - x1) * 0.7
        ay = y1 + (y2 - y1) * 0.7
        angle = math.atan2(y2 - y1, x2 - x1)
        size = 6.0
        for da in (2.6, -2.6):
            canvas.line(ax, ay, ax - size * math.cos(angle + da),
                        ay - size * math.sin(angle + da),
                        stroke=TEXT_SECONDARY, stroke_width=1.2)

    for node, attrs in graph.nodes(data=True):
        x, y = positions[node]
        value = node_value(attrs)
        r = _node_radius(value, vmax)
        detail = (f"{int(attrs['visits'])} visits" if "visits" in attrs
                  else f"support {attrs.get('support', 0):.0%}")
        canvas.circle(x, y, r, fill=colors.get(node, OTHER), opacity=0.9,
                      stroke=SURFACE, stroke_width=2,
                      tooltip=f"{node}: {detail}")
        canvas.text(x, y - r - 6, str(node), fill=TEXT_PRIMARY, size=11, anchor="middle")
    return canvas.to_string()
