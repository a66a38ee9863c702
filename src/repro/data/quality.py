"""Dataset quality validation for real-world ingestion.

The platform accepts arbitrary uploads ("if any audience member is willing
to share their check-in history, we can upload it").  Before a dataset
enters the pipeline, this module audits it: coordinate sanity, timestamp
ordering and range, duplicate records, venue consistency (one venue id,
one location/category), taxonomy coverage, and per-user volume — producing
a structured report with severities instead of crashing mid-pipeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, List, Optional

import numpy as np

from ..geo import BoundingBox
from ..taxonomy import CategoryTree, UnknownCategoryError
from .records import CheckInDataset, to_epoch_us

__all__ = ["Severity", "QualityIssue", "QualityReport", "audit_dataset"]


class Severity(Enum):
    INFO = "info"        # worth knowing, harmless
    WARNING = "warning"  # pipeline runs, results may degrade
    ERROR = "error"      # pipeline results would be wrong


@dataclass(frozen=True)
class QualityIssue:
    """One finding of the audit."""

    severity: Severity
    code: str
    message: str
    count: int = 1

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.code}: {self.message} (x{self.count})"


@dataclass
class QualityReport:
    """All findings plus a go/no-go verdict."""

    dataset_name: str
    n_checkins: int
    issues: List[QualityIssue] = field(default_factory=list)

    @property
    def errors(self) -> List[QualityIssue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[QualityIssue]:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing error-grade was found."""
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"quality audit of {self.dataset_name!r} "
            f"({self.n_checkins:,} check-ins): "
            f"{'OK' if self.ok else 'FAILED'} — "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings"
        ]
        lines.extend(f"  {issue}" for issue in self.issues)
        return "\n".join(lines)


def audit_dataset(
    dataset: CheckInDataset,
    taxonomy: Optional[CategoryTree] = None,
    expected_bbox: Optional[BoundingBox] = None,
    min_records_per_user: int = 2,
) -> QualityReport:
    """Audit a dataset; never raises on bad *data* (only on bad arguments)."""
    if min_records_per_user < 1:
        raise ValueError("min_records_per_user must be >= 1")
    report = QualityReport(dataset_name=dataset.name, n_checkins=len(dataset))

    def flag(severity: Severity, code: str, message: str, count) -> None:
        if count:
            report.issues.append(QualityIssue(severity, code, message, int(count)))

    if len(dataset) == 0:
        flag(Severity.ERROR, "empty", "dataset contains no check-ins", 1)
        return report
    c = dataset.columns

    # --- coordinates ---------------------------------------------------
    flag(Severity.ERROR, "null-island", "records at (0, 0) — missing GPS encoded as zeros",
         np.count_nonzero((np.abs(c.lat) < 1e-9) & (np.abs(c.lon) < 1e-9)))
    if expected_bbox is not None:
        outside = len(dataset) - np.count_nonzero(expected_bbox.contains_lat_lon(c.lat, c.lon))
        flag(Severity.ERROR if outside > len(dataset) * 0.05 else Severity.WARNING,
             "outside-study-area", "records outside the expected bounding box", outside)

    # --- timestamps ------------------------------------------------------
    flag(Severity.ERROR, "future-timestamps", "records timestamped in the future",
         np.count_nonzero(c.time_us > to_epoch_us(datetime.now(timezone.utc))))
    flag(Severity.WARNING, "pre-2000-timestamps", "records before the year 2000 (epoch bugs?)",
         np.count_nonzero(c.time_us < to_epoch_us(datetime(2000, 1, 1, tzinfo=timezone.utc))))
    flag(Severity.ERROR, "invalid-tz-offset", "timezone offsets outside ±14 h",
         np.count_nonzero(np.abs(c.tz_offset_min.astype(np.int32)) > 14 * 60))

    # --- duplicates: rows are sorted by (user, time, venue), so equal triples are adjacent
    flag(Severity.WARNING, "duplicate-records", "identical (user, venue, time) records",
         np.count_nonzero((c.user[1:] == c.user[:-1]) & (c.time_us[1:] == c.time_us[:-1])
                          & (c.venue[1:] == c.venue[:-1])))

    # --- venue consistency -------------------------------------------------
    # Python's round on each distinct (venue, lat, lon): np.round can part from it at ties.
    locations = {(v, round(lat, 4), round(lon, 4))
                 for v, lat, lon in set(zip(c.venue.tolist(), c.lat.tolist(), c.lon.tolist()))}
    flag(Severity.WARNING, "venue-location-conflict",
         "venue ids observed at more than one location", _repeated(v for v, _, _ in locations))
    table = dataset.category_table
    pairs = np.unique(c.venue.astype(np.int64) * len(table) + c.category).tolist()
    names = {(p // len(table), table[p % len(table)][1]) for p in pairs}
    flag(Severity.WARNING, "venue-category-conflict",
         "venue ids with more than one category name", _repeated(v for v, _ in names))

    # --- taxonomy coverage ---------------------------------------------
    if taxonomy is not None:
        unknown = []
        for name in dataset.category_names():
            try:
                taxonomy.resolve(name)
            except UnknownCategoryError:
                unknown.append(name)
        flag(Severity.INFO, "unknown-categories",
             f"category names missing from the taxonomy (fall back to their own label): "
             f"{', '.join(unknown[:5])}" + ("…" if len(unknown) > 5 else ""), len(unknown))

    # --- per-user volume --------------------------------------------------
    flag(Severity.INFO, "thin-users",
         f"users with fewer than {min_records_per_user} records (no pattern can be mined)",
         np.count_nonzero(np.diff(dataset.user_offsets) < min_records_per_user))
    return report


def _repeated(values: Iterable[int]) -> int:
    """How many values occur more than once."""
    return sum(1 for n in Counter(values).values() if n > 1)
