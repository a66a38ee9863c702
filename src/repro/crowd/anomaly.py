"""Crowd-anomaly detection: find days when a microcell's crowd spikes.

The crowd-management motivation of the paper (refs [4], [15]): a venue
suddenly drawing far more people than its routine baseline is the event a
city operator wants flagged.  This module builds per-cell daily occupancy
series from raw check-ins and flags (day, cell) pairs whose count is a
z-score outlier against that cell's own history.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Tuple

import numpy as np

from ..data.records import CheckInDataset, day_date
from ..geo import CellIndex, MicrocellGrid

__all__ = ["CellSpike", "detect_spikes"]


@dataclass(frozen=True)
class CellSpike:
    """One anomalous (day, microcell) occupancy observation."""

    day: date
    cell: CellIndex
    count: int
    baseline_mean: float
    baseline_std: float
    z_score: float
    n_users: int  # distinct users behind the spike


def _cell_day_counts(
    dataset: CheckInDataset, grid: MicrocellGrid
) -> Tuple[Dict[CellIndex, Dict[date, int]], Dict[Tuple[CellIndex, date], int]]:
    """Check-ins per microcell per local day, and the distinct users of each
    (cell, day); cells and days in order."""
    rows, cols = grid.cell_indexes_clamped(dataset.lat_array(), dataset.lon_array())
    pairs, row_pair = np.unique(np.stack([rows, cols, dataset.local_days()], axis=1), axis=0,
                                return_inverse=True)
    row_pair = row_pair.reshape(-1)
    n_users = max(dataset.n_users, 1)
    user_pair = np.unique(row_pair * n_users + dataset.columns.user) // n_users
    counts: Dict[CellIndex, Dict[date, int]] = {}
    users: Dict[Tuple[CellIndex, date], int] = {}
    for row, col, day, count, n in zip(
        *pairs.T.tolist(), np.bincount(row_pair, minlength=len(pairs)).tolist(),
        np.bincount(user_pair, minlength=len(pairs)).tolist(),
    ):
        day = day_date(day)
        counts.setdefault((row, col), {})[day] = count
        users[((row, col), day)] = n
    return counts, users


def detect_spikes(
    dataset: CheckInDataset,
    grid: MicrocellGrid,
    z_threshold: float = 4.0,
    min_count: int = 5,
    min_history_days: int = 7,
) -> List[CellSpike]:
    """Z-score spike detection per cell, strongest first.

    Parameters
    ----------
    z_threshold:
        Minimum standard score against the cell's *other* days.
    min_count:
        Ignore days below this absolute count (tiny cells are noisy).
    min_history_days:
        A cell needs at least this many active days to have a baseline.
    """
    if z_threshold <= 0:
        raise ValueError("z_threshold must be positive")
    if min_count < 1 or min_history_days < 2:
        raise ValueError("min_count must be >= 1 and min_history_days >= 2")

    by_cell, users_by_cell_day = _cell_day_counts(dataset, grid)
    spikes: List[CellSpike] = []
    for cell, by_day in by_cell.items():
        if len(by_day) < min_history_days:
            continue
        days = sorted(by_day)
        counts = np.array([by_day[d] for d in days], dtype=float)
        for i, day in enumerate(days):
            count = counts[i]
            if count < min_count:
                continue
            # Baseline excludes the candidate day itself.
            rest = np.delete(counts, i)
            mean = float(rest.mean())
            std = float(rest.std())
            spread = max(std, 1.0)  # floor: a flat history still flags big jumps
            z = (count - mean) / spread
            if z >= z_threshold:
                spikes.append(
                    CellSpike(
                        day=day,
                        cell=cell,
                        count=int(count),
                        baseline_mean=mean,
                        baseline_std=std,
                        z_score=float(z),
                        n_users=users_by_cell_day[(cell, day)],
                    )
                )
    spikes.sort(key=lambda s: (-s.z_score, s.day, s.cell))
    return spikes
