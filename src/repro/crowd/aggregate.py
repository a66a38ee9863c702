"""Crowd aggregation: the full timeline of snapshots (phase 3, step 2).

``CrowdAggregator`` wires together profiles, visit evidence, the microcell
grid, and time windows, and produces the synchronized crowd view for every
window of the day — the data behind the platform's city map and the
time slider.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Tuple

from ..data.records import CheckInDataset
from ..exec import ExecConfig, ordered_map
from ..geo import CellIndex, MicrocellGrid
from ..patterns import UserPatternProfile
from ..sequences import HOURLY, TimeBinning
from ..taxonomy import CategoryTree
from .snapshot import CrowdSnapshot
from .sync import UserPlacement, VisitIndex, place_user
from .windows import TimeWindow, windows_for

__all__ = ["CrowdAggregator", "CrowdTimeline"]


def _snapshot_window(window: TimeWindow, aggregator: "CrowdAggregator") -> CrowdSnapshot:
    """Module-level snapshot worker (picklable for the process backend)."""
    return aggregator.snapshot(window)


@dataclass(frozen=True)
class CrowdTimeline:
    """All snapshots of a day, in window order."""

    snapshots: Tuple[CrowdSnapshot, ...]

    def __iter__(self):
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i: int) -> CrowdSnapshot:
        return self.snapshots[i]

    def at_hour(self, hour: float) -> CrowdSnapshot:
        """The snapshot whose window covers a local hour."""
        for snap in self.snapshots:
            if snap.window.start_hour <= hour < snap.window.end_hour:
                return snap
        raise ValueError(f"no window covers hour {hour}")

    def occupancy_series(self) -> List[Tuple[str, int]]:
        """(window label, crowd size) per window — the day's activity curve."""
        return [(s.window.label, s.n_users) for s in self.snapshots]

    def cell_occupancy_matrix(self) -> Dict[CellIndex, List[int]]:
        """Per-cell occupancy across all windows (cells ever occupied only).

        Reads this timeline's own snapshots, so serving it recomputes no
        window.  Cells are interned to dense column ids for the fill, so
        each window costs one pass over its *occupied* cells instead of a
        dict probe per (window × ever-occupied cell).
        """
        window_counts = [snap.cell_counts() for snap in self.snapshots]
        cells = sorted({cell for counts in window_counts for cell in counts})
        cell_id = {cell: i for i, cell in enumerate(cells)}
        columns = [[0] * len(window_counts) for _ in cells]
        for window_index, counts in enumerate(window_counts):
            for cell, count in counts.items():
                columns[cell_id[cell]][window_index] = count
        return {cell: columns[i] for i, cell in enumerate(cells)}


class CrowdAggregator:
    """Synchronizes and aggregates all users' patterns over a city grid.

    Parameters mirror the placement knobs of :mod:`repro.crowd.sync`; the
    defaults match the paper's hourly crowd view.
    """

    def __init__(
        self,
        profiles: Mapping[str, UserPatternProfile],
        dataset: CheckInDataset,
        grid: MicrocellGrid,
        taxonomy: CategoryTree,
        binning: TimeBinning = HOURLY,
        pattern_tolerance: int = 0,
        evidence_tolerance: int = 1,
        min_support: float = 0.0,
    ) -> None:
        self.profiles = dict(profiles)
        self.grid = grid
        self.binning = binning
        self.pattern_tolerance = pattern_tolerance
        self.evidence_tolerance = evidence_tolerance
        self.min_support = min_support
        self.index = VisitIndex(dataset, grid, taxonomy, binning)

    # ------------------------------------------------------------ snapshots

    def snapshot(self, window: TimeWindow) -> CrowdSnapshot:
        """The crowd during one window.

        A user appears at most once per window: each bin of the window is
        tried in order and the first grounded placement wins (matching the
        paper's one-dot-per-user city view).
        """
        placements: List[UserPlacement] = []
        for user_id in sorted(self.profiles):
            profile = self.profiles[user_id]
            for b in window:
                placement = place_user(
                    profile,
                    self.index,
                    b,
                    self.pattern_tolerance,
                    self.evidence_tolerance,
                    self.min_support,
                )
                if placement is not None:
                    placements.append(placement)
                    break
        return CrowdSnapshot(window=window, placements=tuple(placements), grid=self.grid)

    def timeline(
        self, bins_per_window: int = 1, exec_config: ExecConfig = ExecConfig()
    ) -> CrowdTimeline:
        """Snapshots for every window of the day.

        Windows are independent of each other, so the process backend of
        ``exec_config`` renders them on worker processes (the aggregator is
        shipped to each worker once per chunk); the ordered merge keeps the
        result identical to the serial path.
        """
        windows = windows_for(self.binning, bins_per_window)
        snapshots = ordered_map(
            partial(_snapshot_window, aggregator=self), windows, exec_config,
            label="snapshot_window",
        )
        return CrowdTimeline(snapshots=tuple(snapshots))

    # ----------------------------------------------------------- aggregates

    def busiest_window(self) -> CrowdSnapshot:
        """The window with the largest placed crowd."""
        timeline = self.timeline()
        return max(timeline, key=lambda s: s.n_users)
