"""Ablations over the design choices DESIGN.md calls out.

Each function sweeps one knob and returns comparable rows:

* abstraction level (venue / leaf / root) — the paper's core trick;
* time-bin width (1h / 2h / 4h);
* microcell size (crowd-view grid resolution);
* activity-filter threshold (qualifying days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..crowd import CrowdAggregator
from ..data import ActiveUserFilter, CheckInDataset, filter_active_users
from ..geo import MicrocellGrid
from ..mining import ModifiedPrefixSpanConfig, modified_prefixspan, user_mining_stats, aggregate_stats
from ..patterns import detect_all_patterns
from ..sequences import TimeBinning, build_all_databases
from ..taxonomy import AbstractionLevel, CategoryTree

__all__ = [
    "AblationRow",
    "abstraction_ablation",
    "binning_ablation",
    "cell_size_ablation",
    "activity_filter_ablation",
    "day_kind_ablation",
    "tolerance_ablation",
]


@dataclass(frozen=True)
class AblationRow:
    """One setting of one ablation and the metrics it measured.

    Mining ablations measure ``mean_sequences_per_user`` and
    ``mean_avg_length``; the crowd-view cell-size ablation measures
    placement and occupancy instead.  A row carries only the metrics its
    ablation measured, so no column is ever a placeholder.
    """

    knob: str
    setting: str
    metrics: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"knob": self.knob, "setting": self.setting}
        row.update({k: round(v, 3) for k, v in self.metrics.items()})
        return row


def _mine_and_aggregate(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    level: AbstractionLevel,
    binning: TimeBinning,
    config: ModifiedPrefixSpanConfig,
    day_kind: str = "all",
) -> Dict[str, float]:
    """The mining metrics of one setting: mean sequences/user and avg length."""
    dbs = build_all_databases(dataset, taxonomy, level, binning, day_kind=day_kind)
    stats = {}
    for user_id, db in dbs.items():
        patterns = modified_prefixspan(db, config, taxonomy=taxonomy, n_bins=binning.n_bins)
        stats[user_id] = user_mining_stats(user_id, patterns, len(db))
    agg = aggregate_stats(config.min_support, stats)
    return {
        "mean_sequences_per_user": agg.mean_sequences_per_user,
        "mean_avg_length": agg.mean_avg_length,
    }


def abstraction_ablation(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    binning: TimeBinning,
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
    levels: Sequence[AbstractionLevel] = (
        AbstractionLevel.VENUE, AbstractionLevel.LEAF, AbstractionLevel.ROOT,
    ),
) -> List[AblationRow]:
    """Pattern yield per abstraction level.

    The paper's motivating claim: raw venues hide routines that category
    abstraction reveals, so pattern counts should rise venue → leaf → root.
    """
    return [
        AblationRow("abstraction", level.value,
                    _mine_and_aggregate(dataset, taxonomy, level, binning, config))
        for level in levels
    ]


def binning_ablation(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    widths_hours: Sequence[float] = (1.0, 2.0, 4.0),
    level: AbstractionLevel = AbstractionLevel.ROOT,
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
) -> List[AblationRow]:
    """Pattern yield per time-bin width (wider bins absorb time jitter)."""
    return [
        AblationRow("bin_width_hours", f"{width:g}h",
                    _mine_and_aggregate(dataset, taxonomy, level, TimeBinning(width), config))
        for width in widths_hours
    ]


def cell_size_ablation(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    binning: TimeBinning,
    cell_sizes_m: Sequence[float] = (250.0, 500.0, 1000.0, 2000.0),
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
) -> List[AblationRow]:
    """Crowd-view grid resolution: occupied cells and biggest group at 9–10 am."""
    profiles = detect_all_patterns(dataset, taxonomy, binning=binning, config=config)
    rows = []
    for size in cell_sizes_m:
        grid = MicrocellGrid(dataset.bounding_box().expand(0.002), size)
        aggregator = CrowdAggregator(profiles, dataset, grid, taxonomy, binning=binning)
        snap = aggregator.timeline().at_hour(9.5)
        groups = snap.groups(min_size=2)
        rows.append(AblationRow("cell_size_m", f"{size:g}m", {
            "users_placed": float(snap.n_users),
            "occupied_cells": float(len(snap.cell_counts())),
            "largest_group": float(groups[0].size) if groups else 0.0,
            "n_groups": float(len(groups)),
        }))
    return rows


def activity_filter_ablation(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    binning: TimeBinning,
    thresholds: Sequence[int] = (20, 35, 50, 65),
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
) -> List[AblationRow]:
    """Sensitivity of the pipeline to the >N-qualifying-days user filter.

    ``dataset`` should be the densest-window (unfiltered) data.  A threshold
    that keeps nobody reports only ``users_kept``.
    """
    rows = []
    for threshold in thresholds:
        filtered = filter_active_users(
            dataset, ActiveUserFilter(min_qualifying_days=threshold)
        )
        metrics = {"users_kept": float(filtered.n_users)}
        if filtered.n_users:
            metrics.update(_mine_and_aggregate(
                filtered, taxonomy, AbstractionLevel.ROOT, binning, config
            ))
        rows.append(AblationRow("min_qualifying_days", str(threshold), metrics))
    return rows


def day_kind_ablation(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    binning: TimeBinning,
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
    level: AbstractionLevel = AbstractionLevel.ROOT,
) -> List[AblationRow]:
    """Weekday vs weekend vs all-days mining.

    Conditioning on the day type sharpens both routines: a worker's
    weekday pattern is stronger among weekdays only than diluted across
    the whole week.
    """
    return [
        AblationRow("day_kind", day_kind, _mine_and_aggregate(
            dataset, taxonomy, level, binning, config, day_kind=day_kind
        ))
        for day_kind in ("all", "weekday", "weekend")
    ]


def tolerance_ablation(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    binning: TimeBinning,
    tolerances: Sequence[int] = (0, 1, 2),
    min_support: float = 0.5,
    level: AbstractionLevel = AbstractionLevel.ROOT,
) -> List[AblationRow]:
    """Time-tolerance sweep of the modified PrefixSpan.

    Tolerance 0 is classic PrefixSpan; widening the match window absorbs
    visit-time jitter, so pattern counts must be non-decreasing in the
    tolerance (a wider matcher can only add support).
    """
    return [
        AblationRow("time_tolerance_bins", str(tolerance), _mine_and_aggregate(
            dataset, taxonomy, level, binning,
            ModifiedPrefixSpanConfig(min_support=min_support, time_tolerance_bins=tolerance),
        ))
        for tolerance in tolerances
    ]
