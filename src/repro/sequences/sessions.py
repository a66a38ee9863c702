"""Sessionization: a user's check-in stream → one visit sequence per day.

The mining unit of the paper is the *daily sequence*: the ordered places a
user visited on one local calendar day.  Support of a pattern is then the
fraction of days on which it occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from ..data.records import CheckInDataset, day_date
from .items import Labeler, PlaceRef, TimedItem
from .timebins import HOURLY, TimeBinning

# crowdlint: disable-file=CW604 -- DAY_KINDS is the documented set of valid
# day_kind arguments; it is exported for downstream callers even though the
# repo itself only consumes it through the validation error paths.
__all__ = ["DailySession", "LabeledRows", "label_rows", "sessionize_user", "sessionize_dataset",
           "DAY_KINDS"]

#: Day-type filters: all days, Monday–Friday, or Saturday/Sunday.
DAY_KINDS = ("all", "weekday", "weekend")


@dataclass(frozen=True)
class DailySession:
    """One user-day: the item sequence its check-ins map to."""

    user_id: str
    day: date
    items: Tuple[TimedItem, ...]

    def __len__(self) -> int:
        return len(self.items)


class LabeledRows(NamedTuple):
    """Rows ``lo:hi`` in (user, local day, time) order, labeled and deduplicated.

    Position ``i``'s item code is ``items[i] = bin * len(labels) + label
    index``.  ``first`` marks the first position of each (user, day) and
    ``keep`` the positions that survive deduplication (every ``first`` one
    does): a repeat of the previous item of the same day adds no signal.
    """

    users: np.ndarray
    days: np.ndarray  # local calendar days since 1970-01-01
    items: np.ndarray
    labels: List[str]
    first: np.ndarray
    keep: np.ndarray


def label_rows(
    dataset: CheckInDataset,
    lo: int,
    hi: int,
    labeler: Labeler,
    binning: TimeBinning,
) -> LabeledRows:
    """Order, label and deduplicate rows ``lo:hi``.

    The labeler runs once per distinct (venue, category) pair of the rows.
    """
    columns = dataset.columns
    n = hi - lo
    local_us = dataset.local_times_us(lo, hi)
    days = local_us // 86_400_000_000
    bins = binning.bins_of_seconds(local_us // 1_000_000 % 86_400)
    venue_table, category_table = dataset.venue_table, dataset.category_table
    n_categories = len(category_table)
    pairs, pair_code = np.unique(
        columns.venue[lo:hi].astype(np.int64) * n_categories + columns.category[lo:hi],
        return_inverse=True,
    )
    label_ids: Dict[str, int] = {}
    pair_label = np.array([
        label_ids.setdefault(labeler(PlaceRef(venue_table[p // n_categories],
                                              *category_table[p % n_categories])), len(label_ids))
        for p in pairs.tolist()
    ], dtype=np.int64)
    labels = list(label_ids)
    users = columns.user[lo:hi]
    order = np.lexsort((days, users))  # stable: chronological within a day
    users, days = users[order], days[order]
    items = bins[order] * len(labels) + pair_label[pair_code.reshape(-1)[order]]
    first = np.ones(n, dtype=bool)
    first[1:] = (users[1:] != users[:-1]) | (days[1:] != days[:-1])
    keep = first.copy()
    keep[1:] |= items[1:] != items[:-1]
    return LabeledRows(users, days, items, labels, first, keep)


def _sessionize_rows(
    dataset: CheckInDataset,
    lo: int,
    hi: int,
    labeler: Labeler,
    binning: TimeBinning,
    min_items: int,
    day_kind: str,
) -> List[DailySession]:
    """Daily sessions of rows ``lo:hi``, grouped by (user, local day)."""
    if min_items < 1:
        raise ValueError("min_items must be >= 1")
    if day_kind not in DAY_KINDS:
        raise ValueError(f"unknown day kind {day_kind!r} (expected one of {DAY_KINDS})")
    if hi <= lo:
        return []
    users, days, items, labels, first, keep = label_rows(dataset, lo, hi, labeler, binning)
    starts = np.flatnonzero(first)
    counts = np.add.reduceat(keep.astype(np.int64), starts)
    admitted = counts >= min_items
    if day_kind != "all":
        weekend = (days[starts] + 3) % 7 >= 5  # 1970-01-01 was a Thursday
        admitted &= weekend if day_kind == "weekend" else ~weekend
    kept_codes, kept_index = np.unique(items[keep], return_inverse=True)
    item_objects = [TimedItem(code // len(labels), labels[code % len(labels)])
                    for code in kept_codes.tolist()]
    row_items = [item_objects[i] for i in kept_index.reshape(-1).tolist()]
    item_starts = np.concatenate(([0], np.cumsum(counts))).tolist()
    user_table = dataset.user_table
    sessions: List[DailySession] = []
    for s in np.flatnonzero(admitted).tolist():
        start = int(starts[s])
        sessions.append(DailySession(
            user_id=user_table[users[start]],
            day=day_date(int(days[start])),
            items=tuple(row_items[item_starts[s]:item_starts[s + 1]]),
        ))
    return sessions


def sessionize_user(
    dataset: CheckInDataset,
    user_id: str,
    labeler: Labeler,
    binning: TimeBinning = HOURLY,
    min_items: int = 1,
    day_kind: str = "all",
) -> List[DailySession]:
    """Split one user's records into daily sessions, in chronological order.

    Days are local calendar days (the dump's timezone offset is honored).
    Sessions with fewer than ``min_items`` items after deduplication are
    dropped — an empty day is not evidence about patterns.  ``day_kind``
    restricts which days count (weekday/weekend routines differ, so mining
    them separately sharpens both).
    """
    lo, hi = dataset.user_span(user_id)
    return _sessionize_rows(dataset, lo, hi, labeler, binning, min_items, day_kind)


def sessionize_dataset(
    dataset: CheckInDataset,
    labeler: Labeler,
    binning: TimeBinning = HOURLY,
    min_items: int = 1,
    day_kind: str = "all",
) -> Dict[str, List[DailySession]]:
    """Sessionize every user; map user id → daily sessions."""
    by_user: Dict[str, List[DailySession]] = {uid: [] for uid in dataset.user_ids()}
    for session in _sessionize_rows(dataset, 0, len(dataset), labeler, binning,
                                    min_items, day_kind):
        by_user[session.user_id].append(session)
    return by_user
