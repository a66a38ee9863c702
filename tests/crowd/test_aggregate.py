"""Tests for the crowd aggregator and timeline (uses the pipeline fixture)."""

import pytest

from repro.crowd import CrowdAggregator


class TestTimeline:
    def test_one_snapshot_per_window(self, pipeline_result):
        timeline = pipeline_result.timeline
        assert len(timeline) == 24
        labels = [s.window.label for s in timeline]
        assert labels[0] == "00:00-01:00"
        assert labels[-1] == "23:00-24:00"

    def test_users_placed_at_most_once_per_window(self, pipeline_result):
        for snap in pipeline_result.timeline:
            users = [p.user_id for p in snap.placements]
            assert len(users) == len(set(users))

    def test_placed_users_have_profiles(self, pipeline_result):
        profiles = pipeline_result.profiles
        for snap in pipeline_result.timeline:
            for p in snap.placements:
                assert p.user_id in profiles

    def test_placements_inside_grid(self, pipeline_result):
        grid = pipeline_result.grid
        for snap in pipeline_result.timeline:
            for p in snap.placements:
                row, col = p.cell
                assert 0 <= row < grid.n_rows
                assert 0 <= col < grid.n_cols

    def test_daytime_busier_than_dead_of_night(self, pipeline_result):
        timeline = pipeline_result.timeline
        night = timeline.at_hour(3.5).n_users
        noon = timeline.at_hour(12.5).n_users
        assert noon >= night

    def test_at_hour_bounds(self, pipeline_result):
        with pytest.raises(ValueError):
            pipeline_result.timeline.at_hour(24.5)

    def test_occupancy_series_matches_snapshots(self, pipeline_result):
        series = pipeline_result.timeline.occupancy_series()
        assert len(series) == 24
        for (label, count), snap in zip(series, pipeline_result.timeline):
            assert label == snap.window.label
            assert count == snap.n_users


class TestAggregator:
    def test_grouped_windows(self, pipeline_result):
        aggregator = pipeline_result.aggregator
        timeline3 = aggregator.timeline(bins_per_window=3)
        assert len(timeline3) == 8

    def test_occupancy_matrix_consistent(self, pipeline_result):
        matrix = pipeline_result.timeline.cell_occupancy_matrix()
        timeline = pipeline_result.aggregator.timeline()
        assert matrix == timeline.cell_occupancy_matrix()
        assert set(matrix) == {cell for snap in timeline for cell in snap.cell_counts()}
        for cell, counts in matrix.items():
            assert len(counts) == len(timeline)
            for count, snap in zip(counts, timeline):
                assert count == snap.cell_counts().get(cell, 0)

    def test_busiest_window(self, pipeline_result):
        busiest = pipeline_result.aggregator.busiest_window()
        assert busiest.n_users == max(s.n_users for s in pipeline_result.timeline)

    def test_min_support_reduces_placements(self, pipeline_result):
        strict = CrowdAggregator(
            pipeline_result.profiles,
            pipeline_result.dataset,
            pipeline_result.grid,
            pipeline_result.taxonomy,
            min_support=0.95,
        )
        strict_total = sum(s.n_users for s in strict.timeline())
        normal_total = sum(s.n_users for s in pipeline_result.timeline)
        assert strict_total <= normal_total
