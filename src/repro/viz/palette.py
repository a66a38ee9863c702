"""Chart palette: validated categorical slots, sequential ramp, ink tokens.

Values are the reference data-viz palette (CVD-validated: worst adjacent
categorical ΔE 24.2 in light mode, sequential = one blue hue light→dark).
Categorical hues are assigned in **fixed slot order, never cycled**; when
more than eight categories appear, the overflow folds into the neutral
"other" color rather than inventing a ninth hue.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = [
    "CATEGORICAL",
    "SEQUENTIAL",
    "SURFACE",
    "GRID",
    "TEXT_PRIMARY",
    "TEXT_SECONDARY",
    "TEXT_MUTED",
    "OTHER",
    "categorical_for",
    "sequential_color",
]

#: Fixed-order categorical slots (light mode).
CATEGORICAL: List[str] = [
    "#2a78d6",  # 1 blue
    "#1baf7a",  # 2 aqua
    "#eda100",  # 3 yellow
    "#008300",  # 4 green
    "#4a3aa7",  # 5 violet
    "#e34948",  # 6 red
    "#e87ba4",  # 7 magenta
    "#eb6834",  # 8 orange
]

#: One-hue sequential ramp (blue, light → dark), for magnitude encodings.
SEQUENTIAL: List[str] = [
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281", "#0d366b",
]

SURFACE = "#fcfcfb"
GRID = "#e7e6e2"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
TEXT_MUTED = "#8a897f"
#: Overflow/neutral series color (never a ninth hue).
OTHER = "#9b9a91"


def categorical_for(names: Sequence[str]) -> Dict[str, str]:
    """Assign slot colors to category names in their given (fixed) order.

    Names beyond the eight slots all get :data:`OTHER`.  Callers must pass
    names in a *stable* order (e.g. overall frequency at first render) so a
    filter never repaints surviving series.
    """
    mapping: Dict[str, str] = {}
    for i, name in enumerate(names):
        mapping[name] = CATEGORICAL[i] if i < len(CATEGORICAL) else OTHER
    return mapping


def sequential_color(value: float, vmin: float, vmax: float) -> str:
    """Map a magnitude onto the sequential ramp (clamped)."""
    if vmax <= vmin:
        return SEQUENTIAL[len(SEQUENTIAL) // 2]
    f = (value - vmin) / (vmax - vmin)
    f = min(1.0, max(0.0, f))
    return SEQUENTIAL[round(f * (len(SEQUENTIAL) - 1))]
