"""Tests for dataset statistics (the paper's §I.1 analysis)."""

from datetime import datetime, timezone

import pytest

from repro.data import CheckIn, CheckInDataset, dataset_stats, monthly_counts

UTC = timezone.utc


def checkin(user, month, day, hour=12):
    return CheckIn(
        user_id=user, venue_id="v1", category_id="c", category_name="Cafe",
        lat=40.7, lon=-74.0, tz_offset_min=0,
        timestamp=datetime(2012, month, day, hour, 0, 0, tzinfo=UTC),
    )


@pytest.fixture
def crafted():
    # u1: 4 records, u2: 2, u3: 1 -> mean 7/3, median 2.
    records = [
        checkin("u1", 4, 1), checkin("u1", 4, 2), checkin("u1", 5, 1), checkin("u1", 6, 1),
        checkin("u2", 4, 3), checkin("u2", 7, 1),
        checkin("u3", 5, 10),
    ]
    return CheckInDataset(records, name="crafted")


class TestDatasetStats:
    def test_counts(self, crafted):
        stats = dataset_stats(crafted)
        assert stats.n_checkins == 7
        assert stats.n_users == 3
        assert stats.mean_records_per_user == pytest.approx(7 / 3)
        assert stats.median_records_per_user == 2.0
        assert stats.min_records_per_user == 1
        assert stats.max_records_per_user == 4

    def test_collection_days_inclusive(self, crafted):
        stats = dataset_stats(crafted)
        # Apr 1 .. Jul 1 inclusive.
        assert stats.collection_days == 92

    def test_sparsity_criterion(self, crafted):
        stats = dataset_stats(crafted)
        assert stats.records_per_user_per_day < 1.0
        assert stats.is_sparse

    def test_dense_dataset_not_sparse(self):
        records = [checkin("u1", 4, 1, hour=h) for h in range(10)]
        stats = dataset_stats(CheckInDataset(records))
        assert not stats.is_sparse

    def test_monthly_counts(self, crafted):
        assert monthly_counts(crafted) == {
            "2012-04": 3, "2012-05": 2, "2012-06": 1, "2012-07": 1,
        }
        # Across a Dec -> Jan year boundary, keys stay in calendar order.
        january = CheckIn(
            user_id="u1", venue_id="v1", category_id="c", category_name="Cafe",
            lat=40.7, lon=-74.0, tz_offset_min=0,
            timestamp=datetime(2013, 1, 2, 12, 0, 0, tzinfo=UTC),
        )
        records = [january, checkin("u1", 12, 31), checkin("u2", 9, 30), january]
        assert list(monthly_counts(CheckInDataset(records)).items()) == [
            ("2012-09", 1), ("2012-12", 1), ("2013-01", 2),
        ]

    def test_densest_months(self, crafted):
        stats = dataset_stats(crafted)
        assert stats.densest_months(3) == ["2012-04", "2012-05", "2012-06"]
        assert stats.densest_months(1) == ["2012-04"]

    def test_densest_months_fewer_than_k(self):
        stats = dataset_stats(CheckInDataset([checkin("u1", 4, 1)]))
        assert stats.densest_months(3) == ["2012-04"]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            dataset_stats(CheckInDataset([]))

    def test_as_rows_structure(self, crafted):
        rows = dict(dataset_stats(crafted).as_rows())
        assert rows["check-ins"] == "7"
        assert rows["sparse (<1/user/day)"] == "yes"


class TestSmallSynthetic:
    def test_small_dataset_is_sparse_like_paper(self, small_ds):
        stats = dataset_stats(small_ds)
        assert stats.is_sparse
        assert stats.median_records_per_user <= stats.mean_records_per_user

    def test_small_dataset_densest_is_spring(self, small_ds):
        stats = dataset_stats(small_ds)
        assert stats.densest_months(2)[0].startswith("2012-0")
