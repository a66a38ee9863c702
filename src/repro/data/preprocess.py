"""Pre-processing: densest-window selection and active-user filtering.

The paper's pipeline (Section I.1):

1. the full 11-month dataset is sparse (<1 record/user/day), so the
   experiments use the *densest consecutive 3-month window* (April–June);
2. within that window, only *active* users are kept — "users with less than
   2 hours check-in records for more than 50 days", i.e. users who, on more
   than 50 distinct days, produced consecutive check-ins less than two hours
   apart (so their days are densely enough sampled to reveal a pattern).

Both steps are parameterized here so the sensitivity ablation can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import List, Tuple

import numpy as np

from .records import CheckInDataset
from .stats import monthly_counts

__all__ = [
    "densest_window",
    "ActiveUserFilter",
    "filter_active_users",
    "preprocess",
    "PreprocessReport",
]


def _month_start(key: str) -> datetime:
    year, month = key.split("-")
    return datetime(int(year), int(month), 1, tzinfo=timezone.utc)


def _month_after(ts: datetime) -> datetime:
    if ts.month == 12:
        return ts.replace(year=ts.year + 1, month=1)
    return ts.replace(month=ts.month + 1)


def densest_window(dataset: CheckInDataset, months: int = 3) -> Tuple[datetime, datetime]:
    """UTC [start, end) bounds of the consecutive ``months``-month window
    holding the most check-ins."""
    if months < 1:
        raise ValueError("window must cover at least one month")
    counts = monthly_counts(dataset)
    if not counts:
        raise ValueError("empty dataset has no densest window")
    # Expand to the full calendar range so months with zero check-ins still
    # occupy a slot — windows must be *calendar*-consecutive.
    first = _month_start(min(counts))
    last = _month_start(max(counts))
    keys: List[str] = []
    cursor = first
    while cursor <= last:
        keys.append(f"{cursor.year:04d}-{cursor.month:02d}")
        cursor = _month_after(cursor)
    span = min(months, len(keys))
    best_i, best_total = 0, -1
    for i in range(len(keys) - span + 1):
        total = sum(counts.get(k, 0) for k in keys[i:i + span])
        if total > best_total:
            best_total, best_i = total, i
    start = _month_start(keys[best_i])
    end = _month_start(keys[best_i + span - 1])
    return start, _month_after(end)


@dataclass(frozen=True)
class ActiveUserFilter:
    """The paper's activity criterion, parameterized.

    A local-calendar day *qualifies* for a user when the user has at least
    ``min_checkins_per_day`` check-ins that day and at least one pair of
    consecutive check-ins separated by no more than ``max_gap_hours``.
    A user passes the filter with more than ``min_qualifying_days`` qualifying
    days.
    """

    min_qualifying_days: int = 50
    max_gap_hours: float = 2.0
    min_checkins_per_day: int = 2

    def __post_init__(self) -> None:
        if self.min_qualifying_days < 0:
            raise ValueError("min_qualifying_days must be non-negative")
        if self.max_gap_hours <= 0:
            raise ValueError("max_gap_hours must be positive")
        if self.min_checkins_per_day < 1:
            raise ValueError("min_checkins_per_day must be >= 1")

    def _qualifying_days(self, dataset: CheckInDataset) -> np.ndarray:
        """Qualifying-day counts per user code."""
        users, days = dataset.columns.user, dataset.local_days(0, len(dataset))
        order = np.lexsort((days, users))  # stable: chronological within a day
        users, days, times = users[order], days[order], dataset.columns.time_us[order]
        same = (users[1:] == users[:-1]) & (days[1:] == days[:-1])
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        group = np.cumsum(np.concatenate(([False], ~same)))
        sizes = np.diff(np.append(starts, len(users)))
        max_gap_us = timedelta(hours=self.max_gap_hours) // timedelta(microseconds=1)
        close = same & (times[1:] - times[:-1] <= max_gap_us)
        has_close = np.bincount(group[1:][close], minlength=len(starts)) > 0
        if self.min_checkins_per_day == 1:
            has_close |= sizes == 1
        qualifies = (sizes >= self.min_checkins_per_day) & has_close
        return np.bincount(users[starts[qualifies]], minlength=dataset.n_users)

    def passing_users(self, dataset: CheckInDataset) -> List[str]:
        """Ids of users exceeding the qualifying-day threshold, sorted."""
        if not len(dataset):
            return []
        counts = self._qualifying_days(dataset)
        return [dataset.user_table[i]
                for i in np.flatnonzero(counts > self.min_qualifying_days).tolist()]


def filter_active_users(
    dataset: CheckInDataset, criteria: ActiveUserFilter = ActiveUserFilter()
) -> CheckInDataset:
    """Keep only users passing the activity criterion."""
    return dataset.filter_users(criteria.passing_users(dataset)).with_name(
        f"{dataset.name}/active"
    )


@dataclass(frozen=True)
class PreprocessReport:
    """What preprocessing did — surfaced in reports and the web UI."""

    input_checkins: int
    input_users: int
    window_start: datetime
    window_end: datetime
    window_checkins: int
    window_users: int
    active_users: int
    output_checkins: int

    def as_rows(self) -> List[Tuple[str, str]]:
        return [
            ("input check-ins", f"{self.input_checkins:,}"),
            ("input users", f"{self.input_users:,}"),
            ("densest window", f"{self.window_start.date()} .. {self.window_end.date()}"),
            ("window check-ins", f"{self.window_checkins:,}"),
            ("window users", f"{self.window_users:,}"),
            ("active users kept", f"{self.active_users:,}"),
            ("output check-ins", f"{self.output_checkins:,}"),
        ]


def preprocess(
    dataset: CheckInDataset,
    months: int = 3,
    criteria: ActiveUserFilter = ActiveUserFilter(),
) -> Tuple[CheckInDataset, PreprocessReport]:
    """Run the paper's full pre-processing: densest window, then active users."""
    start, end = densest_window(dataset, months)
    windowed = dataset.filter_time(start, end)
    filtered = filter_active_users(windowed, criteria)
    report = PreprocessReport(
        input_checkins=len(dataset),
        input_users=dataset.n_users,
        window_start=start,
        window_end=end,
        window_checkins=len(windowed),
        window_users=windowed.n_users,
        active_users=filtered.n_users,
        output_checkins=len(filtered),
    )
    return filtered.with_name(f"{dataset.name}/preprocessed"), report
