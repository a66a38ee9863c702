"""Crowd snapshots: the city at one time window (Figs. 3–4).

A :class:`CrowdSnapshot` answers "who is where between 9 and 10 am": every
placed user, the per-microcell occupancy, and the paper's *groups* — users
co-located in the same microcell with the same place label at the same
time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..geo import CellIndex, MicrocellGrid
from .sync import UserPlacement
from .windows import TimeWindow

__all__ = ["CrowdGroup", "CrowdSnapshot"]


@dataclass(frozen=True)
class CrowdGroup:
    """Users categorized together: same microcell, same label, same window."""

    cell: CellIndex
    label: str
    user_ids: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.user_ids)


@dataclass(frozen=True)
class CrowdSnapshot:
    """The crowd at one time window."""

    window: TimeWindow
    placements: Tuple[UserPlacement, ...]
    grid: MicrocellGrid

    @property
    def n_users(self) -> int:
        return len(self.placements)

    def cell_counts(self) -> Dict[CellIndex, int]:
        """Occupancy per microcell."""
        return dict(Counter(p.cell for p in self.placements))

    def groups(self, min_size: int = 1) -> List[CrowdGroup]:
        """Co-located same-label user groups, largest first."""
        if min_size < 1:
            raise ValueError("min_size must be >= 1")
        buckets: Dict[Tuple[CellIndex, str], List[str]] = defaultdict(list)
        for p in self.placements:
            buckets[(p.cell, p.label)].append(p.user_id)
        groups = [
            CrowdGroup(cell=cell, label=label, user_ids=tuple(sorted(users)))
            for (cell, label), users in buckets.items()
            if len(users) >= min_size
        ]
        groups.sort(key=lambda g: (-g.size, g.label, g.cell))
        return groups

    def to_dict(self) -> Dict:
        """JSON-ready representation for the web API."""
        return {
            "window": self.window.label,
            "start_bin": self.window.start_bin,
            "end_bin": self.window.end_bin,
            "n_users": self.n_users,
            "placements": [
                {
                    "user_id": p.user_id,
                    "label": p.label,
                    "support": round(p.support, 4),
                    "cell": list(p.cell),
                    "venue_id": p.venue_id,
                    "lat": p.lat,
                    "lon": p.lon,
                }
                for p in self.placements
            ],
            "groups": [
                {"cell": list(g.cell), "label": g.label, "users": list(g.user_ids)}
                for g in self.groups(min_size=2)
            ],
        }
