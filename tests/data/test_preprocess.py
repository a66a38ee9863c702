"""Tests for densest-window selection and the active-user filter."""

from datetime import datetime, timezone

import pytest

from repro.data import (
    ActiveUserFilter,
    CheckIn,
    CheckInDataset,
    densest_window,
    filter_active_users,
    preprocess,
)

UTC = timezone.utc


def checkin(user, month, day, hour, minute=0, year=2012):
    return CheckIn(
        user_id=user, venue_id="v", category_id="c", category_name="Cafe",
        lat=40.7, lon=-74.0, tz_offset_min=0,
        timestamp=datetime(year, month, day, hour, minute, 0, tzinfo=UTC),
    )


class TestDensestWindow:
    def test_picks_heaviest_consecutive_months(self):
        records = (
            [checkin("u", 1, d, 12) for d in range(1, 4)]      # Jan: 3
            + [checkin("u", 4, d, 12) for d in range(1, 11)]   # Apr: 10
            + [checkin("u", 5, d, 12) for d in range(1, 11)]   # May: 10
            + [checkin("u", 6, d, 12) for d in range(1, 6)]    # Jun: 5
        )
        ds = CheckInDataset(records)
        start, end = densest_window(ds, months=3)
        assert (start.month, end.month) == (4, 7)

    def test_window_crossing_year(self):
        records = (
            [checkin("u", 12, d, 12) for d in range(1, 20)]
            + [checkin("u", 1, d, 12, year=2013) for d in range(1, 20)]
        )
        ds = CheckInDataset(records)
        start, end = densest_window(ds, months=2)
        assert start == datetime(2012, 12, 1, tzinfo=UTC)
        assert end == datetime(2013, 2, 1, tzinfo=UTC)

    def test_fewer_months_than_window(self):
        ds = CheckInDataset([checkin("u", 4, 1, 12)])
        start, end = densest_window(ds, months=3)
        assert (start.month, end.month) == (4, 5)

    def test_invalid_months_raises(self):
        ds = CheckInDataset([checkin("u", 4, 1, 12)])
        with pytest.raises(ValueError):
            densest_window(ds, months=0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            densest_window(CheckInDataset([]), months=3)

    def test_select_restricts_records(self):
        # Two check-ins an hour apart each day, so every day qualifies and
        # the active-user filter keeps the whole window.
        records = [checkin("u", m, 1, h) for m in (1, 4, 5, 6, 9) for h in (12, 13)] + [
            checkin("u", 4, d, h) for d in range(2, 10) for h in (12, 13)
        ]
        out, report = preprocess(CheckInDataset(records), months=3,
                                 criteria=ActiveUserFilter(min_qualifying_days=0))
        assert {c.timestamp.month for c in out} == {4, 5, 6}
        assert report.window_checkins == len(out) == 22


class TestActiveUserFilter:
    def test_qualifying_day_needs_close_checkins(self):
        # Day 1: two check-ins 1 h apart (qualifies).
        # Day 2: two check-ins 5 h apart (does not qualify at 2 h).
        # Day 3: single check-in (does not qualify).
        ds = CheckInDataset([
            checkin("u", 4, 1, 9), checkin("u", 4, 1, 10),
            checkin("u", 4, 2, 9), checkin("u", 4, 2, 14),
            checkin("u", 4, 3, 9),
        ])
        # Exactly one qualifying day: more than 0, not more than 1.
        assert ActiveUserFilter(min_qualifying_days=0, max_gap_hours=2.0).passing_users(ds) == ["u"]
        assert ActiveUserFilter(min_qualifying_days=1, max_gap_hours=2.0).passing_users(ds) == []

    def test_gap_boundary_inclusive(self):
        ds = CheckInDataset([checkin("u", 4, 1, 9, 0), checkin("u", 4, 1, 11, 0)])
        criteria = ActiveUserFilter(min_qualifying_days=0, max_gap_hours=2.0)
        assert criteria.passing_users(ds) == ["u"]

    def test_threshold_is_strict_greater(self):
        ds = CheckInDataset([
            checkin("u", 4, d, 9) for d in range(1, 4)
        ] + [
            checkin("u", 4, d, 10) for d in range(1, 4)
        ])  # 3 qualifying days
        assert ActiveUserFilter(min_qualifying_days=2).passing_users(ds) == ["u"]
        assert ActiveUserFilter(min_qualifying_days=3).passing_users(ds) == []

    def test_min_checkins_one_counts_single_visit_days(self):
        ds = CheckInDataset([checkin("u", 4, 1, 9)])
        lenient = ActiveUserFilter(min_qualifying_days=0, min_checkins_per_day=1)
        assert lenient.passing_users(ds) == ["u"]
        assert ActiveUserFilter(min_qualifying_days=0).passing_users(ds) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ActiveUserFilter(min_qualifying_days=-1)
        with pytest.raises(ValueError):
            ActiveUserFilter(max_gap_hours=0)
        with pytest.raises(ValueError):
            ActiveUserFilter(min_checkins_per_day=0)

    def test_filter_active_users_keeps_only_passing(self):
        busy = [checkin("busy", 4, d, h) for d in range(1, 11) for h in (9, 10)]
        quiet = [checkin("quiet", 4, 1, 9)]
        ds = CheckInDataset(busy + quiet)
        filtered = filter_active_users(ds, ActiveUserFilter(min_qualifying_days=5))
        assert filtered.user_ids() == ["busy"]


class TestPreprocess:
    def test_report_is_consistent(self, small_ds):
        filtered, report = preprocess(
            small_ds, months=2,
            criteria=ActiveUserFilter(min_qualifying_days=25),
        )
        assert report.input_checkins == len(small_ds)
        assert report.window_checkins >= report.output_checkins
        assert report.active_users == filtered.n_users
        assert report.output_checkins == len(filtered)
        assert filtered.n_users <= small_ds.n_users

    def test_report_rows_render(self, small_ds):
        _, report = preprocess(small_ds, months=2,
                               criteria=ActiveUserFilter(min_qualifying_days=25))
        rows = dict(report.as_rows())
        assert "densest window" in rows
