"""Statistics over mining output — the quantities plotted in Figs. 5–8.

The paper measures, per user: the *number of sequences* (mined frequent
patterns) and the *average length of sequences*; then reports the average
over users per ``min_support`` and the distribution at ``min_support=0.5``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from .base import SequentialPattern

__all__ = ["UserMiningStats", "user_mining_stats", "MiningAggregate", "aggregate_stats"]


@dataclass(frozen=True)
class UserMiningStats:
    """Per-user summary of one mining run."""

    user_id: str
    n_sequences: int  # the paper's "number of sequences extracted"
    avg_length: float
    max_length: int
    n_days: int  # size of the user's sequence database


def user_mining_stats(
    user_id: str, patterns: Sequence[SequentialPattern], n_days: int
) -> UserMiningStats:
    """Summarize one user's mined pattern set."""
    if not patterns:
        return UserMiningStats(user_id=user_id, n_sequences=0, avg_length=0.0,
                               max_length=0, n_days=n_days)
    lengths = [len(p.items) for p in patterns]
    return UserMiningStats(
        user_id=user_id,
        n_sequences=len(patterns),
        avg_length=float(np.mean(lengths)),
        max_length=max(lengths),
        n_days=n_days,
    )


@dataclass(frozen=True)
class MiningAggregate:
    """Across-user aggregate for one ``min_support`` setting."""

    min_support: float
    n_users: int
    mean_sequences_per_user: float
    median_sequences_per_user: float
    std_sequences_per_user: float
    mean_avg_length: float
    median_avg_length: float
    std_avg_length: float

    def as_row(self) -> Dict[str, float]:
        return {
            "min_support": self.min_support,
            "n_users": self.n_users,
            "mean_sequences_per_user": self.mean_sequences_per_user,
            "median_sequences_per_user": self.median_sequences_per_user,
            "mean_avg_length": self.mean_avg_length,
            "median_avg_length": self.median_avg_length,
        }


def aggregate_stats(
    min_support: float, per_user: Mapping[str, UserMiningStats]
) -> MiningAggregate:
    """Aggregate per-user stats into the paper's per-support summary.

    Users with zero patterns still count (their 0 pulls the mean down, which
    is what "sequences per user decreases with support" measures); users
    with zero patterns are excluded from the *length* average, since an
    empty set has no length.
    """
    if not per_user:
        raise ValueError("cannot aggregate an empty stats collection")
    counts = np.array([s.n_sequences for s in per_user.values()], dtype=float)
    lengths = np.array(
        [s.avg_length for s in per_user.values() if s.n_sequences > 0], dtype=float
    )
    if lengths.size == 0:
        lengths = np.array([0.0])
    return MiningAggregate(
        min_support=min_support,
        n_users=len(per_user),
        mean_sequences_per_user=float(counts.mean()),
        median_sequences_per_user=float(np.median(counts)),
        std_sequences_per_user=float(counts.std()),
        mean_avg_length=float(lengths.mean()),
        median_avg_length=float(np.median(lengths)),
        std_avg_length=float(lengths.std()),
    )
