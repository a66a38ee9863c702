"""Dataset statistics — the sparsity analysis of the paper's Section I.1.

The paper characterizes the Foursquare NYC dump before mining: total
check-ins, user count, mean/median records per user, collection span, the
conclusion that <1 record/user/day means the data is *sparse*, and the
observation that April–June is the densest quarter.  :func:`dataset_stats`
computes all of it for any :class:`~repro.data.records.CheckInDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .records import CheckInDataset

__all__ = [
    "DatasetStats",
    "dataset_stats",
    "monthly_counts",
]


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics mirroring the paper's pre-processing narrative."""

    name: str
    n_checkins: int
    n_users: int
    n_venues: int
    n_categories: int
    first_checkin: datetime
    last_checkin: datetime
    collection_days: int
    mean_records_per_user: float
    median_records_per_user: float
    min_records_per_user: int
    max_records_per_user: int
    records_per_user_per_day: float
    monthly_checkins: Mapping[str, int] = field(default_factory=dict)

    @property
    def is_sparse(self) -> bool:
        """The paper's sparsity criterion: fewer than one record per user-day."""
        return self.records_per_user_per_day < 1.0

    def densest_months(self, k: int = 3) -> List[str]:
        """The consecutive ``k``-month window with the most check-ins."""
        months = sorted(self.monthly_checkins)
        if len(months) < k:
            return months
        best_start = 0
        best_total = -1
        for i in range(len(months) - k + 1):
            total = sum(self.monthly_checkins[m] for m in months[i:i + k])
            if total > best_total:
                best_total = total
                best_start = i
        return months[best_start:best_start + k]

    def as_rows(self) -> List[Tuple[str, str]]:
        """(label, value) rows for report tables."""
        return [
            ("dataset", self.name),
            ("check-ins", f"{self.n_checkins:,}"),
            ("users", f"{self.n_users:,}"),
            ("venues", f"{self.n_venues:,}"),
            ("categories", f"{self.n_categories:,}"),
            ("collection period", f"{self.first_checkin.date()} .. {self.last_checkin.date()}"),
            ("collection days", str(self.collection_days)),
            ("mean records/user", f"{self.mean_records_per_user:.1f}"),
            ("median records/user", f"{self.median_records_per_user:.1f}"),
            ("records/user/day", f"{self.records_per_user_per_day:.3f}"),
            ("sparse (<1/user/day)", "yes" if self.is_sparse else "no"),
            ("densest 3 months", " ".join(self.densest_months(3))),
        ]


def dataset_stats(dataset: CheckInDataset) -> DatasetStats:
    """Compute the full statistics bundle for a non-empty dataset."""
    if len(dataset) == 0:
        raise ValueError("cannot compute statistics of an empty dataset")
    per_user = np.sort(np.diff(dataset.user_offsets)).astype(float)
    first, last = dataset.time_range()
    collection_days = max(1, (last.date() - first.date()).days + 1)
    mean_per_user = float(per_user.mean())
    return DatasetStats(
        name=dataset.name,
        n_checkins=len(dataset),
        n_users=dataset.n_users,
        n_venues=len(dataset.venues),
        n_categories=len(dataset.category_names()),
        first_checkin=first,
        last_checkin=last,
        collection_days=collection_days,
        mean_records_per_user=mean_per_user,
        median_records_per_user=float(np.median(per_user)),
        min_records_per_user=int(per_user[0]),
        max_records_per_user=int(per_user[-1]),
        records_per_user_per_day=mean_per_user / collection_days,
        monthly_checkins=monthly_counts(dataset),
    )


def monthly_counts(dataset: CheckInDataset) -> Dict[str, int]:
    """Check-ins per calendar month (UTC), keyed ``"YYYY-MM"`` in calendar order."""
    months = dataset.columns.time_us.astype("datetime64[us]").astype("datetime64[M]")
    values, counts = np.unique(months.astype(np.int64), return_counts=True)
    return {f"{1970 + m // 12:04d}-{m % 12 + 1:02d}": n
            for m, n in zip(values.tolist(), counts.tolist())}
