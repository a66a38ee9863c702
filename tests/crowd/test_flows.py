"""Tests for crowd flows."""

import pytest

from repro.crowd import (
    CrowdSnapshot,
    TimeWindow,
    UserPlacement,
    timeline_flows,
    window_flows,
)
from repro.crowd.aggregate import CrowdTimeline
from repro.geo import BoundingBox, MicrocellGrid
from repro.sequences import HOURLY


def placement(user, cell, bin_=9, label="Eatery"):
    return UserPlacement(
        user_id=user, bin=bin_, label=label, support=0.7,
        cell=cell, venue_id="v", lat=40.5, lon=-74.5, n_evidence=3,
    )


@pytest.fixture
def grid():
    return MicrocellGrid(BoundingBox(40.0, -75.0, 41.0, -74.0), 5000.0)


def snap(grid, bin_, placements):
    return CrowdSnapshot(
        window=TimeWindow(bin_, bin_ + 1, HOURLY),
        placements=tuple(placements),
        grid=grid,
    )


class TestWindowFlows:
    def test_movers_detected(self, grid):
        a = snap(grid, 9, [placement("u1", (1, 1)), placement("u2", (1, 1)),
                           placement("u3", (4, 4))])
        b = snap(grid, 10, [placement("u1", (2, 2), 10), placement("u2", (2, 2), 10),
                            placement("u3", (4, 4), 10)])
        flows = window_flows(a, b)
        assert len(flows) == 1
        flow = flows[0]
        assert flow.origin == (1, 1)
        assert flow.destination == (2, 2)
        assert flow.user_ids == ("u1", "u2")
        assert flow.size == 2
        assert flow.origin != flow.destination
        assert flow.from_window == "09:00-10:00"

    def test_stays_are_not_flows(self, grid):
        a = snap(grid, 9, [placement("u1", (1, 1))])
        b = snap(grid, 10, [placement("u1", (1, 1), 10)])
        assert window_flows(a, b) == []

    def test_users_only_in_one_window_ignored(self, grid):
        a = snap(grid, 9, [placement("u1", (1, 1))])
        b = snap(grid, 10, [placement("u2", (2, 2), 10)])
        assert window_flows(a, b) == []

    def test_sorted_by_size(self, grid):
        a = snap(grid, 9, [placement(f"u{i}", (1, 1)) for i in range(3)]
                 + [placement("w1", (3, 3))])
        b = snap(grid, 10, [placement(f"u{i}", (2, 2), 10) for i in range(3)]
                 + [placement("w1", (4, 4), 10)])
        flows = window_flows(a, b)
        assert [f.size for f in flows] == [3, 1]


class TestTimelineFlows:
    def test_pairwise_count(self, grid):
        snaps = [snap(grid, b, [placement("u1", (b % 3, 0), b)]) for b in range(4)]
        per_pair = timeline_flows(CrowdTimeline(snapshots=tuple(snaps)))
        assert len(per_pair) == 3
