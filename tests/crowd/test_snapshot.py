"""Tests for crowd snapshots and groups."""

import pytest

from repro.crowd import CrowdSnapshot, TimeWindow, UserPlacement
from repro.geo import BoundingBox, MicrocellGrid
from repro.sequences import HOURLY


def placement(user, cell, label, support=0.7):
    return UserPlacement(
        user_id=user, bin=9, label=label, support=support,
        cell=cell, venue_id="v1", lat=40.7, lon=-74.0, n_evidence=5,
    )


@pytest.fixture
def snapshot():
    grid = MicrocellGrid(BoundingBox(40.0, -75.0, 41.0, -74.0), 5000.0)
    placements = (
        placement("u1", (2, 3), "Eatery"),
        placement("u2", (2, 3), "Eatery"),
        placement("u3", (2, 3), "Shops"),
        placement("u4", (5, 5), "Eatery"),
    )
    return CrowdSnapshot(window=TimeWindow(9, 10, HOURLY), placements=placements,
                         grid=grid)


class TestSnapshot:
    def test_cell_counts(self, snapshot):
        assert snapshot.cell_counts() == {(2, 3): 3, (5, 5): 1}
        assert snapshot.n_users == 4

    def test_groups_by_cell_and_label(self, snapshot):
        groups = snapshot.groups()
        assert len(groups) == 3
        biggest = groups[0]
        assert biggest.size == 2
        assert biggest.label == "Eatery"
        assert biggest.user_ids == ("u1", "u2")

    def test_groups_min_size(self, snapshot):
        assert len(snapshot.groups(min_size=2)) == 1
        with pytest.raises(ValueError):
            snapshot.groups(min_size=0)

    def test_to_dict_shape(self, snapshot):
        payload = snapshot.to_dict()
        assert payload["window"] == "09:00-10:00"
        assert payload["n_users"] == 4
        assert len(payload["placements"]) == 4
        assert len(payload["groups"]) == 1  # only size >= 2 groups exported
        assert payload["groups"][0]["users"] == ["u1", "u2"]
