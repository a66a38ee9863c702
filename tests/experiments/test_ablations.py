"""Tests for the ablation drivers."""

import pytest

from repro.experiments import (
    abstraction_ablation,
    activity_filter_ablation,
    binning_ablation,
    cell_size_ablation,
)
from repro.mining import ModifiedPrefixSpanConfig
from repro.sequences import HOURLY
from repro.taxonomy import AbstractionLevel


@pytest.fixture(scope="module")
def cfg():
    return ModifiedPrefixSpanConfig(min_support=0.4)


class TestAbstractionAblation:
    def test_root_beats_venue(self, pipeline_result, taxonomy, cfg):
        """The paper's core claim: abstraction reveals patterns raw venues hide."""
        rows = abstraction_ablation(pipeline_result.dataset, taxonomy, HOURLY, cfg)
        by_level = {row.setting: row.metrics["mean_sequences_per_user"] for row in rows}
        assert by_level["root"] >= by_level["leaf"] >= by_level["venue"]
        assert by_level["root"] > by_level["venue"]

    def test_rows_shape(self, pipeline_result, taxonomy, cfg):
        rows = abstraction_ablation(pipeline_result.dataset, taxonomy, HOURLY, cfg,
                                    levels=(AbstractionLevel.ROOT,))
        assert len(rows) == 1
        assert rows[0].as_dict()["knob"] == "abstraction"


class TestBinningAblation:
    def test_rows_per_width(self, pipeline_result, taxonomy, cfg):
        rows = binning_ablation(pipeline_result.dataset, taxonomy,
                                widths_hours=(1.0, 4.0), config=cfg)
        assert [row.setting for row in rows] == ["1h", "4h"]
        assert all(row.metrics["mean_sequences_per_user"] >= 0 for row in rows)


class TestCellSizeAblation:
    def test_coarser_cells_fewer_occupied(self, pipeline_result, taxonomy, cfg):
        rows = cell_size_ablation(pipeline_result.dataset, taxonomy, HOURLY,
                                  cell_sizes_m=(250.0, 4000.0), config=cfg)
        fine, coarse = rows
        assert fine.metrics["occupied_cells"] >= coarse.metrics["occupied_cells"]
        # Placement count is independent of the grid resolution.
        assert fine.metrics["users_placed"] == coarse.metrics["users_placed"]

    def test_coarser_cells_bigger_groups(self, pipeline_result, taxonomy, cfg):
        rows = cell_size_ablation(pipeline_result.dataset, taxonomy, HOURLY,
                                  cell_sizes_m=(250.0, 8000.0), config=cfg)
        assert rows[1].metrics["largest_group"] >= rows[0].metrics["largest_group"]

    def test_rows_carry_no_mining_metrics(self, pipeline_result, taxonomy, cfg):
        """The crowd-only ablation measures no patterns, so it reports none."""
        (row,) = cell_size_ablation(pipeline_result.dataset, taxonomy, HOURLY,
                                    cell_sizes_m=(500.0,), config=cfg)
        as_dict = row.as_dict()
        assert "mean_sequences_per_user" not in as_dict
        assert "mean_avg_length" not in as_dict
        assert as_dict["knob"] == "cell_size_m"
        assert {"users_placed", "occupied_cells", "largest_group", "n_groups"} <= set(as_dict)


class TestActivityAblation:
    def test_stricter_threshold_fewer_users(self, small_ds, taxonomy, cfg):
        from repro.data import select_densest_window

        windowed = select_densest_window(small_ds, months=2)
        rows = activity_filter_ablation(windowed, taxonomy, HOURLY,
                                        thresholds=(10, 40), config=cfg)
        assert rows[0].metrics["users_kept"] >= rows[1].metrics["users_kept"]


class TestDayKindAblation:
    def test_three_rows(self, pipeline_result, taxonomy, cfg):
        from repro.experiments import day_kind_ablation

        rows = day_kind_ablation(pipeline_result.dataset, taxonomy, HOURLY, cfg)
        assert [row.setting for row in rows] == ["all", "weekday", "weekend"]
        # Weekday-conditioned mining should find at least as many patterns
        # as all-days mining for routine-heavy simulated workers.
        by_kind = {row.setting: row.metrics["mean_sequences_per_user"] for row in rows}
        assert by_kind["weekday"] >= by_kind["all"] * 0.5  # sane, non-degenerate
        assert all(row.metrics["mean_sequences_per_user"] >= 0 for row in rows)


class TestToleranceAblation:
    def test_wider_tolerance_never_fewer_patterns(self, pipeline_result, taxonomy):
        from repro.experiments import tolerance_ablation

        rows = tolerance_ablation(pipeline_result.dataset, taxonomy, HOURLY,
                                  tolerances=(0, 1, 2), min_support=0.5)
        counts = [row.metrics["mean_sequences_per_user"] for row in rows]
        assert counts[0] <= counts[1] <= counts[2]
        assert [row.setting for row in rows] == ["0", "1", "2"]
