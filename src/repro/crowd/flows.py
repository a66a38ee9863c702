"""Crowd flows: how the crowd moves between microcells across windows.

The paper observes that "if we change the time, the crowd locations may
change to other microcells" (Fig. 3 vs Fig. 4).  Flows quantify that: an
origin–destination matrix between consecutive windows, the substrate of the
movement animation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..geo import CellIndex
from .aggregate import CrowdTimeline
from .snapshot import CrowdSnapshot

__all__ = ["Flow", "window_flows", "timeline_flows"]


@dataclass(frozen=True)
class Flow:
    """Users moving from one microcell to another between two windows."""

    origin: CellIndex
    destination: CellIndex
    user_ids: Tuple[str, ...]
    from_window: str
    to_window: str

    @property
    def size(self) -> int:
        return len(self.user_ids)


def window_flows(a: CrowdSnapshot, b: CrowdSnapshot) -> List[Flow]:
    """Flows between two snapshots (users placed in both, in another cell), largest first."""
    at_a = {p.user_id: p.cell for p in a.placements}
    moves: Dict[Tuple[CellIndex, CellIndex], List[str]] = {}
    for p in b.placements:
        origin = at_a.get(p.user_id)
        if origin is None or origin == p.cell:
            continue
        moves.setdefault((origin, p.cell), []).append(p.user_id)
    flows = [
        Flow(
            origin=origin,
            destination=dest,
            user_ids=tuple(sorted(users)),
            from_window=a.window.label,
            to_window=b.window.label,
        )
        for (origin, dest), users in moves.items()
    ]
    flows.sort(key=lambda f: (-f.size, f.origin, f.destination))
    return flows


def timeline_flows(timeline: CrowdTimeline) -> List[List[Flow]]:
    """Flows between every consecutive pair of windows."""
    snaps = list(timeline)
    return [
        window_flows(a, b) for a, b in zip(snaps, snaps[1:])
    ]
