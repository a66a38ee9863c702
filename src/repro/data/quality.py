"""Dataset quality validation for real-world ingestion.

The platform accepts arbitrary uploads ("if any audience member is willing
to share their check-in history, we can upload it").  Before a dataset
enters the pipeline, this module audits it: coordinate sanity, timestamp
ordering and range, duplicate records, venue consistency (one venue id,
one location/category), taxonomy coverage, and per-user volume — producing
a structured report with severities instead of crashing mid-pipeline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Dict, List, Optional

from ..geo import BoundingBox
from ..taxonomy import CategoryTree, UnknownCategoryError
from .records import CheckInDataset

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
    if len(dataset) == 0:
        report.issues.append(QualityIssue(
            Severity.ERROR, "empty", "dataset contains no check-ins"))
        return report

    # --- coordinates ---------------------------------------------------
    at_null_island = sum(1 for c in dataset if abs(c.lat) < 1e-9 and abs(c.lon) < 1e-9)
    if at_null_island:
        report.issues.append(QualityIssue(
            Severity.ERROR, "null-island",
            "records at (0, 0) — missing GPS encoded as zeros", at_null_island))
    if expected_bbox is not None:
        outside = sum(
            1 for c in dataset if not expected_bbox.contains_lat_lon(c.lat, c.lon)
        )
        if outside:
            severity = Severity.ERROR if outside > len(dataset) * 0.05 else Severity.WARNING
            report.issues.append(QualityIssue(
                severity, "outside-study-area",
                f"records outside the expected bounding box", outside))

    # --- timestamps ------------------------------------------------------
    now = datetime.now(timezone.utc)
    future = sum(1 for c in dataset if c.timestamp > now)
    if future:
        report.issues.append(QualityIssue(
            Severity.ERROR, "future-timestamps",
            "records timestamped in the future", future))
    ancient = sum(1 for c in dataset if c.timestamp.year < 2000)
    if ancient:
        report.issues.append(QualityIssue(
            Severity.WARNING, "pre-2000-timestamps",
            "records before the year 2000 (epoch bugs?)", ancient))
    odd_tz = sum(1 for c in dataset if not (-14 * 60 <= c.tz_offset_min <= 14 * 60))
    if odd_tz:
        report.issues.append(QualityIssue(
            Severity.ERROR, "invalid-tz-offset",
            "timezone offsets outside ±14 h", odd_tz))

    # --- duplicates ------------------------------------------------------
    seen = Counter(
        (c.user_id, c.venue_id, c.timestamp) for c in dataset
    )
    duplicates = sum(count - 1 for count in seen.values() if count > 1)
    if duplicates:
        report.issues.append(QualityIssue(
            Severity.WARNING, "duplicate-records",
            "identical (user, venue, time) records", duplicates))

    # --- venue consistency -------------------------------------------------
    venue_locations: Dict[str, set] = defaultdict(set)
    venue_categories: Dict[str, set] = defaultdict(set)
    for c in dataset:
        venue_locations[c.venue_id].add((round(c.lat, 4), round(c.lon, 4)))
        venue_categories[c.venue_id].add(c.category_name)
    wandering = sum(1 for locs in venue_locations.values() if len(locs) > 1)
    if wandering:
        report.issues.append(QualityIssue(
            Severity.WARNING, "venue-location-conflict",
            "venue ids observed at more than one location", wandering))
    recategorized = sum(1 for cats in venue_categories.values() if len(cats) > 1)
    if recategorized:
        report.issues.append(QualityIssue(
            Severity.WARNING, "venue-category-conflict",
            "venue ids with more than one category name", recategorized))

    # --- taxonomy coverage ---------------------------------------------
    if taxonomy is not None:
        unknown: Counter = Counter()
        for name in dataset.category_names():
            try:
                taxonomy.resolve(name)
            except UnknownCategoryError:
                unknown[name] += 1
        if unknown:
            report.issues.append(QualityIssue(
                Severity.INFO, "unknown-categories",
                f"category names missing from the taxonomy (fall back to "
                f"their own label): {', '.join(sorted(unknown)[:5])}"
                + ("…" if len(unknown) > 5 else ""),
                len(unknown)))

    # --- per-user volume --------------------------------------------------
    thin_users = sum(
        1 for count in dataset.records_per_user().values()
        if count < min_records_per_user
    )
    if thin_users:
        report.issues.append(QualityIssue(
            Severity.INFO, "thin-users",
            f"users with fewer than {min_records_per_user} records "
            f"(no pattern can be mined)", thin_users))

    return report
