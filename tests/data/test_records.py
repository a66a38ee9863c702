"""Tests for the record model and dataset container."""

from datetime import datetime, timezone

import pytest

from repro.data import CheckIn, CheckInDataset, Venue
from repro.geo import GeoPoint

UTC = timezone.utc


def make_checkin(user="u1", minute=0, venue="v1", cat="Coffee Shop",
                 lat=40.7, lon=-74.0, tz=-240, day=1):
    return CheckIn(
        user_id=user,
        venue_id=venue,
        category_id="c1",
        category_name=cat,
        lat=lat,
        lon=lon,
        tz_offset_min=tz,
        timestamp=datetime(2012, 4, day, 12, minute, 0, tzinfo=UTC),
    )


@pytest.fixture
def dataset():
    checkins = [
        make_checkin("u2", minute=5),
        make_checkin("u1", minute=30, venue="v2", cat="Thai Restaurant"),
        make_checkin("u1", minute=10),
        make_checkin("u3", minute=0, day=2, venue="v3"),
    ]
    venues = {"v1": Venue("v1", "Cafe One", "c1", "Coffee Shop", GeoPoint(40.7, -74.0))}
    return CheckInDataset(checkins, venues, name="test")


class TestCheckIn:
    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError):
            CheckIn(user_id="u", venue_id="v",
                    timestamp=datetime(2012, 4, 1, 12, 0, 0))

    def test_local_time_applies_offset(self):
        c = make_checkin(tz=-240)  # UTC-4
        assert c.local_time.hour == 8

    def test_local_date_can_shift_days(self):
        c = CheckIn(user_id="u", venue_id="v", tz_offset_min=-240,
                    timestamp=datetime(2012, 4, 2, 2, 0, 0, tzinfo=UTC))
        assert c.local_date.day == 1  # 2:00 UTC is 22:00 previous day local

    def test_ordering_user_then_time(self):
        a = make_checkin("u1", minute=30)
        b = make_checkin("u1", minute=10)
        c = make_checkin("u0", minute=59)
        assert sorted([a, b, c]) == [c, b, a]


class TestDataset:
    def test_sorted_and_indexed(self, dataset):
        assert len(dataset) == 4
        assert dataset.n_users == 3
        u1 = dataset.for_user("u1")
        assert len(u1) == 2
        assert u1[0].timestamp <= u1[1].timestamp

    def test_unknown_user_empty(self, dataset):
        assert dataset.for_user("ghost") == ()

    def test_records_per_user(self, dataset):
        assert dataset.records_per_user() == {"u1": 2, "u2": 1, "u3": 1}

    def test_time_range(self, dataset):
        lo, hi = dataset.time_range()
        assert lo.day == 1 and hi.day == 2

    def test_time_range_empty_raises(self):
        with pytest.raises(ValueError):
            CheckInDataset([]).time_range()

    def test_bounding_box(self, dataset):
        box = dataset.bounding_box()
        assert box.contains_lat_lon(40.7, -74.0)

    def test_category_names_sorted(self, dataset):
        assert dataset.category_names() == ["Coffee Shop", "Thai Restaurant"]

    def test_numpy_columns(self, dataset):
        assert dataset.lat_array().shape == (4,)
        assert dataset.lon_array().shape == (4,)

    def test_iter(self, dataset):
        assert [c.user_id for c in dataset] == ["u1", "u1", "u2", "u3"]


class TestFilters:
    def test_filter_time_half_open(self, dataset):
        start = datetime(2012, 4, 1, tzinfo=UTC)
        end = datetime(2012, 4, 2, tzinfo=UTC)
        got = dataset.filter_time(start, end)
        assert len(got) == 3
        assert all(c.timestamp < end for c in got)

    def test_filter_time_naive_raises(self, dataset):
        with pytest.raises(ValueError):
            dataset.filter_time(datetime(2012, 4, 1), datetime(2012, 4, 2, tzinfo=UTC))

    def test_filter_users(self, dataset):
        got = dataset.filter_users(["u1", "u3"])
        assert got.n_users == 2
        assert len(got) == 3

    def test_filter_users_prunes_venues(self, dataset):
        got = dataset.filter_users(["u3"])
        assert "v1" not in got.venues  # u3 never visited v1

    def test_with_name_shares_data(self, dataset):
        renamed = dataset.with_name("renamed")
        assert renamed.name == "renamed"
        assert len(renamed) == len(dataset)
        assert renamed.columns is dataset.columns
