"""Tests for the dataset quality audit."""

from datetime import datetime, timezone

import pytest

from repro.data import CheckIn, CheckInDataset, Severity, audit_dataset
from repro.geo import BoundingBox

UTC = timezone.utc


def checkin(user="u1", venue="v1", cat="Thai Restaurant", lat=40.7, lon=-74.0,
            ts=None, tz=-240):
    return CheckIn(
        user_id=user, venue_id=venue, category_id="", category_name=cat,
        lat=lat, lon=lon, tz_offset_min=tz,
        timestamp=ts or datetime(2012, 4, 1, 12, 0, 0, tzinfo=UTC),
    )


def codes(report):
    return {issue.code for issue in report.issues}


class TestCleanData:
    def test_clean_dataset_passes(self, taxonomy):
        ds = CheckInDataset([
            checkin(ts=datetime(2012, 4, d, 12, 0, 0, tzinfo=UTC)) for d in range(1, 6)
        ])
        report = audit_dataset(ds, taxonomy)
        assert report.ok
        assert not report.errors

    def test_small_synthetic_is_clean(self, small_ds, taxonomy):
        report = audit_dataset(small_ds, taxonomy,
                               expected_bbox=small_ds.bounding_box())
        assert report.ok, report.summary()


class TestDetections:
    def test_empty_dataset(self):
        report = audit_dataset(CheckInDataset([]))
        assert not report.ok
        assert codes(report) == {"empty"}

    def test_null_island(self):
        ds = CheckInDataset([checkin(lat=0.0, lon=0.0)])
        report = audit_dataset(ds)
        assert "null-island" in codes(report)
        assert not report.ok

    def test_outside_study_area(self):
        box = BoundingBox(40.0, -75.0, 41.0, -74.0)
        ds = CheckInDataset([checkin(lat=35.0, lon=-74.5)])
        report = audit_dataset(ds, expected_bbox=box)
        assert "outside-study-area" in codes(report)

    def test_future_timestamps(self):
        ds = CheckInDataset([checkin(ts=datetime(2099, 1, 1, tzinfo=UTC))])
        report = audit_dataset(ds)
        assert "future-timestamps" in codes(report)
        assert not report.ok

    def test_ancient_timestamps_warn(self):
        ds = CheckInDataset([checkin(ts=datetime(1999, 1, 1, tzinfo=UTC))])
        report = audit_dataset(ds)
        assert "pre-2000-timestamps" in codes(report)
        assert report.ok  # warning only

    def test_invalid_tz(self):
        ds = CheckInDataset([checkin(tz=2000)])
        report = audit_dataset(ds)
        assert "invalid-tz-offset" in codes(report)

    def test_duplicates(self):
        record = checkin()
        ds = CheckInDataset([record, record, checkin(user="u2")])
        report = audit_dataset(ds)
        duplicate_issue = next(i for i in report.issues if i.code == "duplicate-records")
        assert duplicate_issue.count == 1

    def test_venue_conflicts(self):
        ds = CheckInDataset([
            checkin(venue="vX", lat=40.7),
            checkin(venue="vX", lat=40.9,
                    ts=datetime(2012, 4, 2, 12, 0, 0, tzinfo=UTC)),
            checkin(venue="vY", cat="Thai Restaurant"),
            checkin(venue="vY", cat="Gym",
                    ts=datetime(2012, 4, 3, 12, 0, 0, tzinfo=UTC)),
        ])
        report = audit_dataset(ds)
        assert "venue-location-conflict" in codes(report)
        assert "venue-category-conflict" in codes(report)

    def test_unknown_categories_info(self, taxonomy):
        ds = CheckInDataset([checkin(cat="Klingon Embassy")])
        report = audit_dataset(ds, taxonomy)
        issue = next(i for i in report.issues if i.code == "unknown-categories")
        assert issue.severity is Severity.INFO
        assert "Klingon Embassy" in issue.message

    def test_thin_users_info(self):
        ds = CheckInDataset([checkin(user="solo")])
        report = audit_dataset(ds, min_records_per_user=2)
        assert "thin-users" in codes(report)

    def test_invalid_argument(self, small_ds):
        with pytest.raises(ValueError):
            audit_dataset(small_ds, min_records_per_user=0)


class TestReport:
    def test_summary_text(self):
        ds = CheckInDataset([checkin(lat=0.0, lon=0.0)])
        report = audit_dataset(ds)
        text = report.summary()
        assert "FAILED" in text
        assert "null-island" in text

    def test_ok_summary(self, taxonomy):
        ds = CheckInDataset([
            checkin(ts=datetime(2012, 4, d, 12, 0, 0, tzinfo=UTC)) for d in range(1, 4)
        ])
        assert "OK" in audit_dataset(ds, taxonomy).summary()
