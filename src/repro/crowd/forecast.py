"""Does the pattern-based crowd view *forecast* real occupancy?

The city view claims predictive meaning: users placed at a microcell for a
window should actually tend to be there on future days.  This module
scores that claim: the pattern-based placement counts per (cell, window)
are compared against the *observed* mean daily occupancy of held-out days,
with a time-blind per-cell baseline as the skill reference.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from datetime import date as date_type
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..data.records import CheckInDataset
from ..geo import CellIndex, MicrocellGrid
from ..sequences import TimeBinning
from .aggregate import CrowdAggregator

__all__ = ["ForecastEvaluation", "observed_occupancy", "evaluate_crowd_forecast"]


@dataclass(frozen=True)
class ForecastEvaluation:
    """Forecast quality over all (cell, window) pairs that ever see crowd.

    Two complementary readings:

    * ``correlation`` — Spearman rank correlation between forecast and
      observed occupancy across (cell, window) pairs: does the forecast
      order the hotspots correctly?  This is the headline metric; MAE on
      sparse occupancy rewards predicting zero everywhere.
    * ``mae_forecast`` vs ``mae_baseline`` — absolute errors against a
      time-blind per-cell baseline.
    """

    n_days: int
    n_cells: int
    mae_forecast: float
    mae_baseline: float
    correlation: float
    baseline_correlation: float
    #: Mean of actual(cell, bin) / mean_bin actual(cell, ·) over the
    #: forecast's nonzero keys.  > 1 means the pattern forecast picks
    #: above-average *hours* for the cells it targets — the timing skill a
    #: time-blind baseline cannot have by construction (its lift is 1).
    time_lift: float

    @property
    def skill(self) -> float:
        """1 − MAE_forecast / MAE_baseline; positive means the time-aware
        pattern forecast beats the time-blind per-cell average."""
        if self.mae_baseline == 0:
            return 0.0
        return 1.0 - self.mae_forecast / self.mae_baseline


def observed_occupancy(
    dataset: CheckInDataset, grid: MicrocellGrid, binning: TimeBinning
) -> Dict[Tuple[CellIndex, int], float]:
    """Mean daily distinct-user occupancy per (cell, bin).

    For each local day, each (cell, bin) counts the distinct users who
    checked in there then; values are averaged over the dataset's days.
    """
    days: Set[date_type] = set()
    per_day: Dict[Tuple[CellIndex, int, date_type], Set[str]] = defaultdict(set)
    for record in dataset:
        cell = grid.cell_index_clamped(record.lat, record.lon)
        bin_index = binning.bin_of(record.local_time)
        day = record.local_date
        days.add(day)
        per_day[(cell, bin_index, day)].add(record.user_id)
    if not days:
        return {}
    totals: Dict[Tuple[CellIndex, int], float] = defaultdict(float)
    for (cell, bin_index, _), users in per_day.items():
        totals[(cell, bin_index)] += len(users)
    n_days = len(days)
    return {key: total / n_days for key, total in totals.items()}


def evaluate_crowd_forecast(
    aggregator: CrowdAggregator,
    train: CheckInDataset,
    holdout: CheckInDataset,
    binning: TimeBinning,
) -> ForecastEvaluation:
    """Score the aggregator's placements against held-out reality.

    ``train`` is the data the profiles were mined from (the time-blind
    baseline's knowledge); ``holdout`` must contain later days — otherwise
    the score is in-sample and flattering.
    """
    grid = aggregator.grid
    actual = observed_occupancy(holdout, grid, binning)
    if not actual:
        raise ValueError("holdout dataset is empty")
    train_occupancy = observed_occupancy(train, grid, binning)

    # Pattern forecast: expected presence per (cell, bin).  A pattern with
    # support s puts the user there on a fraction s of days, so each
    # placement contributes its support — the per-day expectation — rather
    # than a full count.
    forecast: Dict[Tuple[CellIndex, int], float] = defaultdict(float)
    timeline = aggregator.timeline()
    for snap in timeline:
        for placement in snap.placements:
            forecast[(placement.cell, snap.window.start_bin)] += placement.support

    # Baseline: each cell's *training-data* day-mean occupancy spread evenly
    # over all bins (time-blind — knows where crowds went historically but
    # not when).  Built strictly from training data; no holdout leakage.
    per_cell_total: Dict[CellIndex, float] = defaultdict(float)
    for (cell, _), value in train_occupancy.items():
        per_cell_total[cell] += value
    n_bins = binning.n_bins
    baseline = {
        (cell, b): per_cell_total[cell] / n_bins
        for cell in per_cell_total
        for b in range(n_bins)
    }

    keys = sorted(set(actual) | set(forecast))
    forecast_vector = np.array([forecast.get(k, 0.0) for k in keys])
    baseline_vector = np.array([baseline.get(k, 0.0) for k in keys])
    actual_vector = np.array([actual.get(k, 0.0) for k in keys])
    errors_forecast = np.abs(forecast_vector - actual_vector)
    errors_baseline = np.abs(baseline_vector - actual_vector)
    n_days = len({c.local_date for c in holdout})

    # Timing lift: over the forecast's targeted (cell, bin) keys, how much
    # denser is the actual occupancy than that cell's own all-bin average?
    actual_cell_mean: Dict[CellIndex, float] = defaultdict(float)
    for (cell, _), value in actual.items():
        actual_cell_mean[cell] += value / n_bins
    lifts = []
    for (cell, b), value in forecast.items():
        if value <= 0:
            continue
        cell_mean = actual_cell_mean.get(cell, 0.0)
        if cell_mean > 0:
            lifts.append(actual.get((cell, b), 0.0) / cell_mean)
    time_lift = float(np.mean(lifts)) if lifts else 0.0

    return ForecastEvaluation(
        n_days=n_days,
        n_cells=len(per_cell_total),
        mae_forecast=float(errors_forecast.mean()),
        mae_baseline=float(errors_baseline.mean()),
        correlation=_spearman(forecast_vector, actual_vector),
        baseline_correlation=_spearman(baseline_vector, actual_vector),
        time_lift=time_lift,
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation, 0.0 for degenerate input.

    Pearson correlation of average ranks, as ``scipy.stats.spearmanr``
    computes it, without paying the ``scipy.stats`` import on every cold
    start.
    """
    if len(a) < 3 or np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    rho = np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1]
    return float(rho) if np.isfinite(rho) else 0.0
