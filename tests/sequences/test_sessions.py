"""Tests for sessionization and item labeling."""

from datetime import datetime, timezone

import pytest

from repro.data import CheckIn, CheckInDataset
from repro.sequences import (
    TimedItem,
    make_labeler,
    sessionize_dataset,
    sessionize_user,
)
from repro.taxonomy import AbstractionLevel

UTC = timezone.utc


def checkin(user, day, hour, minute=0, venue="v1", cat_name="Thai Restaurant",
            cat_id=None, tz=0):
    return CheckIn(
        user_id=user, venue_id=venue,
        category_id=cat_id or "", category_name=cat_name,
        lat=40.7, lon=-74.0, tz_offset_min=tz,
        timestamp=datetime(2012, 4, day, hour, minute, 0, tzinfo=UTC),
    )


class TestLabelers:
    def test_venue_level(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.VENUE)
        assert labeler(checkin("u", 1, 9, venue="vX")) == "vX"

    def test_leaf_level(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        assert labeler(checkin("u", 1, 9)) == "Thai Restaurant"

    def test_root_level_resolves_by_name(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        assert labeler(checkin("u", 1, 9)) == "Eatery"

    def test_root_level_resolves_by_id(self, taxonomy):
        thai_id = taxonomy.get_by_name("Thai Restaurant").category_id
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        assert labeler(checkin("u", 1, 9, cat_id=thai_id, cat_name="whatever")) == "Eatery"

    def test_root_level_unknown_falls_back(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        assert labeler(checkin("u", 1, 9, cat_name="Klingon Embassy")) == "Klingon Embassy"


class TestSessionize:
    def make_dataset(self):
        return CheckInDataset([
            checkin("u", 1, 9), checkin("u", 1, 12, cat_name="Supermarket"),
            checkin("u", 2, 9), checkin("u", 2, 9, minute=20),  # same bin dupe
            checkin("u", 3, 22),
            checkin("w", 1, 10),
        ])

    def test_one_session_per_day(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        sessions = sessionize_user(self.make_dataset(), "u", labeler)
        assert [s.day.day for s in sessions] == [1, 2, 3]

    def test_items_in_time_order(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        sessions = sessionize_user(self.make_dataset(), "u", labeler)
        assert sessions[0].items == (
            TimedItem(9, "Thai Restaurant"), TimedItem(12, "Supermarket"),
        )

    def test_consecutive_duplicates_collapsed(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        sessions = sessionize_user(self.make_dataset(), "u", labeler)
        assert sessions[1].items == (TimedItem(9, "Thai Restaurant"),)

    def test_min_items_drops_thin_days(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        sessions = sessionize_user(self.make_dataset(), "u", labeler, min_items=2)
        assert [s.day.day for s in sessions] == [1]

    def test_min_items_invalid(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        with pytest.raises(ValueError):
            sessionize_user(self.make_dataset(), "u", labeler, min_items=0)

    def test_local_days_respect_timezone(self, taxonomy):
        # 02:00 UTC with a -4 h offset is 22:00 on the *previous* local day.
        ds = CheckInDataset([
            checkin("u", 1, 23, tz=-240),
            CheckIn(user_id="u", venue_id="v1", category_id="",
                    category_name="Thai Restaurant", lat=40.7, lon=-74.0,
                    tz_offset_min=-240,
                    timestamp=datetime(2012, 4, 2, 2, 0, 0, tzinfo=UTC)),
        ])
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        sessions = sessionize_user(ds, "u", labeler)
        assert len(sessions) == 1  # both land on the same local day

    def test_sessionize_dataset_covers_all_users(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        by_user = sessionize_dataset(self.make_dataset(), labeler)
        assert set(by_user) == {"u", "w"}

    def test_session_length_is_its_item_count(self, taxonomy):
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        sessions = sessionize_user(self.make_dataset(), "u", labeler)
        assert len(sessions[0]) == len(sessions[0].items) == 2


class TestDayKinds:
    def make_week(self, taxonomy):
        # 2012-04-02 is a Monday; 2012-04-07/08 the weekend.
        ds = CheckInDataset([
            checkin("u", d, 9) for d in range(2, 9)
        ])
        labeler = make_labeler(taxonomy, AbstractionLevel.LEAF)
        return ds, labeler

    def test_weekday_filter(self, taxonomy):
        ds, labeler = self.make_week(taxonomy)
        sessions = sessionize_user(ds, "u", labeler, day_kind="weekday")
        assert [s.day.day for s in sessions] == [2, 3, 4, 5, 6]

    def test_weekend_filter(self, taxonomy):
        ds, labeler = self.make_week(taxonomy)
        sessions = sessionize_user(ds, "u", labeler, day_kind="weekend")
        assert [s.day.day for s in sessions] == [7, 8]

    def test_all_is_union(self, taxonomy):
        ds, labeler = self.make_week(taxonomy)
        n_all = len(sessionize_user(ds, "u", labeler, day_kind="all"))
        n_wd = len(sessionize_user(ds, "u", labeler, day_kind="weekday"))
        n_we = len(sessionize_user(ds, "u", labeler, day_kind="weekend"))
        assert n_all == n_wd + n_we

    def test_unknown_kind_raises(self, taxonomy):
        ds, labeler = self.make_week(taxonomy)
        with pytest.raises(ValueError, match="unknown day kind"):
            sessionize_user(ds, "u", labeler, day_kind="holiday")
