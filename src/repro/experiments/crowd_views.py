"""Figure 3–4 drivers: city-scale crowd views at chosen time windows.

Reproduces the paper's demo screenshots — the crowd at 9–10 am and at a
second window — and quantifies the claim that "if we change the time, the
crowd locations may change to other microcells".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..crowd import CrowdSnapshot, CrowdTimeline
from ..viz import label_color_order, render_snapshot

__all__ = ["CrowdViewResult", "crowd_views", "crowd_shift"]


@dataclass(frozen=True)
class CrowdViewResult:
    """Snapshots rendered at the requested hours, plus movement evidence."""

    hours: Tuple[float, ...]
    snapshots: Tuple[CrowdSnapshot, ...]
    svgs: Tuple[str, ...]
    #: Jaccard distance between occupied-cell sets of consecutive views —
    #: > 0 demonstrates the crowd *moves* between windows.
    shift_scores: Tuple[float, ...]

    def summary_rows(self) -> List[Tuple[str, int, int]]:
        """(window, users placed, occupied cells) per view."""
        return [
            (snap.window.label, snap.n_users, len(snap.cell_counts()))
            for snap in self.snapshots
        ]


def crowd_shift(a: CrowdSnapshot, b: CrowdSnapshot) -> float:
    """Jaccard *distance* of occupied microcell sets (0 = identical crowd
    layout, 1 = completely relocated)."""
    cells_a = set(a.cell_counts())
    cells_b = set(b.cell_counts())
    if not cells_a and not cells_b:
        return 0.0
    union = cells_a | cells_b
    return 1.0 - len(cells_a & cells_b) / len(union)


def crowd_views(
    timeline: CrowdTimeline, hours: Sequence[float] = (9.5, 13.5)
) -> CrowdViewResult:
    """Render the crowd at each requested local hour (paper: 9–10 am view,
    then a later window showing the crowd relocated)."""
    if not hours:
        raise ValueError("need at least one hour")
    order = label_color_order(list(timeline))
    snapshots = tuple(timeline.at_hour(h) for h in hours)
    svgs = tuple(
        render_snapshot(snap, label_order=order,
                        title=f"Crowd in the smart city, {snap.window.label}")
        for snap in snapshots
    )
    shifts = tuple(
        crowd_shift(a, b) for a, b in zip(snapshots, snapshots[1:])
    )
    return CrowdViewResult(hours=tuple(hours), snapshots=snapshots, svgs=svgs,
                           shift_scores=shifts)
