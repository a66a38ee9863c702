"""Tests for crowd synchronization (visit index + placement)."""

from datetime import datetime, timezone

import pytest

from repro.crowd import VisitIndex, place_user
from repro.data import CheckIn, CheckInDataset
from repro.geo import MicrocellGrid
from repro.mining import SequentialPattern
from repro.patterns import UserPatternProfile
from repro.sequences import HOURLY, TimedItem

UTC = timezone.utc


def checkin(user, day, hour, cat, lat, lon, venue=None):
    return CheckIn(
        user_id=user, venue_id=venue or f"v-{cat}-{lat:.3f}",
        category_id="", category_name=cat,
        lat=lat, lon=lon, tz_offset_min=0,
        timestamp=datetime(2012, 4, day, hour, 0, 0, tzinfo=UTC),
    )


@pytest.fixture
def world(taxonomy):
    # A user eating Thai at (40.75, -73.99) most days at noon, working at
    # (40.71, -74.01) at 9.
    records = []
    for day in range(1, 11):
        records.append(checkin("u1", day, 9, "Corporate Office", 40.71, -74.01))
        records.append(checkin("u1", day, 12, "Thai Restaurant", 40.75, -73.99))
    # A couple of outlier lunches elsewhere.
    records.append(checkin("u1", 11, 12, "Thai Restaurant", 40.60, -74.05))
    ds = CheckInDataset(records)
    grid = MicrocellGrid(ds.bounding_box().expand(0.01), 1000.0)
    index = VisitIndex(ds, grid, taxonomy, HOURLY)
    return ds, grid, index


def profile_with(*patterns):
    return UserPatternProfile(user_id="u1", patterns=tuple(patterns), n_days=11)


def pat(bin_, label, support=0.8, count=9):
    return SequentialPattern(items=(TimedItem(bin_, label),), count=count, support=support)


class TestVisitIndex:
    def test_evidence_exact_bin_and_leaf(self, world):
        _, _, index = world
        hits = index.evidence("u1", 12, "Thai Restaurant", tolerance=0)
        assert len(hits) == 11

    def test_evidence_matches_ancestors(self, world):
        _, _, index = world
        assert len(index.evidence("u1", 12, "Eatery", tolerance=0)) == 11
        assert len(index.evidence("u1", 12, "Asian Restaurant", tolerance=0)) == 11

    def test_evidence_bin_tolerance(self, world):
        _, _, index = world
        assert index.evidence("u1", 10, "Eatery", tolerance=0) == []
        assert len(index.evidence("u1", 11, "Eatery", tolerance=1)) == 11

    def test_unknown_user_empty(self, world):
        _, _, index = world
        assert index.evidence("ghost", 12, "Eatery", tolerance=2) == []


class TestPlacement:
    def test_places_at_modal_cell(self, world):
        _, grid, index = world
        profile = profile_with(pat(12, "Eatery"))
        placement = place_user(profile, index, 12)
        assert placement is not None
        assert placement.label == "Eatery"
        # Modal cell is the frequent lunch spot, not the outlier.
        modal_cell = grid.cell_index_clamped(40.75, -73.99)
        assert placement.cell == modal_cell
        assert placement.n_evidence >= 10

    def test_no_pattern_at_bin_returns_none(self, world):
        _, _, index = world
        profile = profile_with(pat(12, "Eatery"))
        assert place_user(profile, index, 15) is None

    def test_no_evidence_returns_none(self, world):
        _, _, index = world
        profile = profile_with(pat(3, "Nightlife"))
        assert place_user(profile, index, 3) is None

    def test_strongest_pattern_wins(self, world):
        _, grid, index = world
        profile = profile_with(
            pat(9, "Work", support=0.9, count=10),
            pat(9, "Eatery", support=0.3, count=3),
        )
        placement = place_user(profile, index, 9, evidence_tolerance=3)
        assert placement.label == "Work"

    def test_min_support_filters(self, world):
        _, _, index = world
        profile = profile_with(pat(12, "Eatery", support=0.4))
        assert place_user(profile, index, 12, min_support=0.5) is None
        assert place_user(profile, index, 12, min_support=0.3) is not None

    def test_pattern_tolerance_widens(self, world):
        _, _, index = world
        profile = profile_with(pat(12, "Eatery"))
        assert place_user(profile, index, 13, pattern_tolerance=0) is None
        assert place_user(profile, index, 13, pattern_tolerance=1) is not None

    def test_place_at_bins(self, world):
        _, _, index = world
        profile = profile_with(pat(9, "Work"), pat(12, "Eatery"))
        placements = {b: place_user(profile, index, b) for b in range(24)}
        assert {b for b, p in placements.items() if p is not None} == {9, 12}
        assert placements[9].label == "Work"
        assert placements[12].label == "Eatery"
