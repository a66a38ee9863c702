"""Tests for crowd-forecast evaluation."""

import numpy as np
import pytest

from repro.crowd import evaluate_crowd_forecast, observed_occupancy
from repro.data import ActiveUserFilter, CheckInDataset, small_dataset
from repro.pipeline import PipelineConfig, run_pipeline
from repro.sequences import HOURLY


@pytest.fixture(scope="module")
def split_world():
    ds = small_dataset()
    lo, hi = ds.time_range()
    cut = lo + (hi - lo) * 3 // 4
    train = ds.filter_time(lo, cut)
    test = ds.filter_time(cut, hi)
    config = PipelineConfig(window_months=2,
                            activity=ActiveUserFilter(min_qualifying_days=15))
    result = run_pipeline(train, config)
    holdout = test.filter_users(result.profiles)
    return result, holdout


class TestObservedOccupancy:
    def test_mean_daily_values(self, split_world):
        result, holdout = split_world
        occupancy = observed_occupancy(holdout, result.grid, HOURLY)
        assert occupancy
        n_days = len({c.local_date for c in holdout})
        for value in occupancy.values():
            assert 0 < value <= result.n_users
            # Mean over days: multiples of 1/n_days.
            assert value * n_days == pytest.approx(round(value * n_days))

    def test_empty_dataset(self, split_world):
        result, _ = split_world
        assert observed_occupancy(CheckInDataset([]), result.grid, HOURLY) == {}


class TestEvaluation:
    def test_metrics_bounded(self, split_world):
        result, holdout = split_world
        ev = evaluate_crowd_forecast(result.aggregator, result.dataset,
                                     holdout, HOURLY)
        assert ev.mae_forecast >= 0
        assert ev.mae_baseline >= 0
        assert -1.0 <= ev.correlation <= 1.0
        assert ev.n_days > 0
        assert ev.n_cells > 0

    def test_timing_skill_positive(self, split_world):
        """The crowd view's core predictive claim: the hours it targets are
        denser than the cell's own average on held-out days."""
        result, holdout = split_world
        ev = evaluate_crowd_forecast(result.aggregator, result.dataset,
                                     holdout, HOURLY)
        assert ev.time_lift > 1.0

    def test_empty_holdout_raises(self, split_world):
        result, _ = split_world
        with pytest.raises(ValueError, match="empty"):
            evaluate_crowd_forecast(result.aggregator, result.dataset,
                                    CheckInDataset([]), HOURLY)

    def test_deterministic(self, split_world):
        result, holdout = split_world
        a = evaluate_crowd_forecast(result.aggregator, result.dataset, holdout, HOURLY)
        b = evaluate_crowd_forecast(result.aggregator, result.dataset, holdout, HOURLY)
        assert a == b


class TestSpearman:
    def test_matches_scipy_with_ties(self):
        from scipy.stats import spearmanr

        from repro.crowd.forecast import _spearman

        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.integers(0, 4, 60).astype(float)
            b = rng.integers(0, 6, 60) / 3.0
            assert _spearman(a, b) == pytest.approx(spearmanr(a, b)[0], abs=1e-12)
