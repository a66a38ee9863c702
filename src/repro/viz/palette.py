"""Chart palette: validated categorical slots, sequential ramp, ink tokens.

Values are the reference data-viz palette (CVD-validated: worst adjacent
categorical ΔE 24.2 in light mode, sequential = one blue hue light→dark).
Categorical hues are assigned in **fixed slot order, never cycled**; when
more than eight categories appear, the overflow folds into the neutral
"other" color rather than inventing a ninth hue.

Dark mode is a *selected* palette — the same eight hues re-stepped for the
dark surface and validated against it, not an automatic inversion.  Use
:class:`Theme` (``LIGHT`` / ``DARK``) to parameterize renderers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "CATEGORICAL",
    "SEQUENTIAL",
    "SURFACE",
    "GRID",
    "TEXT_PRIMARY",
    "TEXT_SECONDARY",
    "TEXT_MUTED",
    "OTHER",
    "Theme",
    "LIGHT",
    "DARK",
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


#: Dark-surface steps of the same eight hues (selected for the dark band,
#: OKLCH L ≈ 0.48–0.67, ≥3:1 on #1a1a19).
CATEGORICAL_DARK: List[str] = [
    "#3987e5",  # 1 blue
    "#199e70",  # 2 aqua
    "#c98500",  # 3 yellow
    "#008300",  # 4 green
    "#9085e9",  # 5 violet
    "#e66767",  # 6 red
    "#d55181",  # 7 magenta
    "#d95926",  # 8 orange
]


@dataclass(frozen=True)
class Theme:
    """A render theme: surface, ink tokens, and the slot palette for it."""

    name: str
    surface: str
    grid: str
    text_primary: str
    text_secondary: str
    text_muted: str
    other: str
    categorical: Tuple[str, ...]
    sequential: Tuple[str, ...]

    def sequential_color(self, value: float, vmin: float, vmax: float) -> str:
        ramp = self.sequential
        if vmax <= vmin:
            return ramp[len(ramp) // 2]
        f = min(1.0, max(0.0, (value - vmin) / (vmax - vmin)))
        return ramp[round(f * (len(ramp) - 1))]


LIGHT = Theme(
    name="light",
    surface=SURFACE,
    grid=GRID,
    text_primary=TEXT_PRIMARY,
    text_secondary=TEXT_SECONDARY,
    text_muted=TEXT_MUTED,
    other=OTHER,
    categorical=tuple(CATEGORICAL),
    sequential=tuple(SEQUENTIAL),
)

DARK = Theme(
    name="dark",
    surface="#1a1a19",
    grid="#383835",
    text_primary="#ffffff",
    text_secondary="#c3c2b7",
    text_muted="#8a897f",
    other="#6f6e66",
    categorical=tuple(CATEGORICAL_DARK),
    # Dark sequential: the same blue hue read dark→light so that "more"
    # stays the higher-contrast end on a dark surface.
    sequential=tuple(reversed(SEQUENTIAL)),
)


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
