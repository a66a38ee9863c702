"""Figure 5–8 drivers: the min_support sweeps of Section III.

The paper's two experiments, run over the preprocessed users:

* **Fig. 5** — average number of mined sequences per user vs ``min_support``
  (monotonically decreasing; the 0.25→0.5 drop is steeper than 0.5→0.75);
* **Fig. 6** — distribution of the per-user sequence count at 0.5;
* **Fig. 7** — average pattern length per user vs ``min_support``
  (decreasing: long patterns are certified less often than short ones);
* **Fig. 8** — distribution of the per-user average length at 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..data.records import CheckInDataset
from ..mining import (
    ModifiedPrefixSpanConfig,
    UserMiningStats,
    aggregate_stats,
    modified_prefixspan,
    user_mining_stats,
    MiningAggregate,
)
from ..sequences import HOURLY, TimeBinning, build_all_databases
from ..taxonomy import AbstractionLevel, CategoryTree
from ..viz import Histogram, LineChart

__all__ = [
    "SupportSweepResult",
    "DEFAULT_SUPPORTS",
    "run_support_sweep",
    "fig5_chart",
    "fig6_chart",
    "fig7_chart",
    "fig8_chart",
]

#: The paper sweeps 0.25 → 0.75; intermediate points flesh out the curve.
DEFAULT_SUPPORTS: Tuple[float, ...] = (0.25, 0.375, 0.5, 0.625, 0.75)


@dataclass
class SupportSweepResult:
    """Everything Figs. 5–8 need, from one sweep over one dataset."""

    supports: Tuple[float, ...]
    #: support → user id → per-user stats
    per_user: Dict[float, Dict[str, UserMiningStats]]
    #: support → cross-user aggregate
    aggregates: Dict[float, MiningAggregate]

    def mean_sequences_series(self) -> Tuple[List[float], List[float]]:
        """(supports, mean sequences/user) — the Fig. 5 curve."""
        xs = list(self.supports)
        return xs, [self.aggregates[s].mean_sequences_per_user for s in xs]

    def mean_length_series(self) -> Tuple[List[float], List[float]]:
        """(supports, mean avg pattern length) — the Fig. 7 curve."""
        xs = list(self.supports)
        return xs, [self.aggregates[s].mean_avg_length for s in xs]

    def sequence_counts_at(self, support: float) -> List[int]:
        """Per-user sequence counts — the Fig. 6 sample."""
        return [s.n_sequences for s in self.per_user[support].values()]

    def avg_lengths_at(self, support: float) -> List[float]:
        """Per-user average lengths (pattern-holding users) — the Fig. 8 sample."""
        return [
            s.avg_length for s in self.per_user[support].values() if s.n_sequences > 0
        ]

    def to_rows(self) -> List[Dict[str, float]]:
        """One row per support level, for tables and EXPERIMENTS.md."""
        return [self.aggregates[s].as_row() for s in self.supports]


def run_support_sweep(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    supports: Sequence[float] = DEFAULT_SUPPORTS,
    level: AbstractionLevel = AbstractionLevel.ROOT,
    binning: TimeBinning = HOURLY,
    base_config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
) -> SupportSweepResult:
    """Mine every user at every support level (``base_config`` supplies
    every knob but ``min_support``)."""
    if not supports:
        raise ValueError("need at least one support level")
    dbs = build_all_databases(dataset, taxonomy, level, binning)
    per_user: Dict[float, Dict[str, UserMiningStats]] = {}
    aggregates: Dict[float, MiningAggregate] = {}
    for support in supports:
        config = replace(base_config, min_support=support)
        stats: Dict[str, UserMiningStats] = {}
        for user_id, db in dbs.items():
            patterns = modified_prefixspan(db, config, taxonomy=taxonomy,
                                           n_bins=binning.n_bins)
            stats[user_id] = user_mining_stats(user_id, patterns, n_days=len(db))
        per_user[support] = stats
        aggregates[support] = aggregate_stats(support, stats)
    return SupportSweepResult(
        supports=tuple(supports), per_user=per_user, aggregates=aggregates
    )


def fig5_chart(sweep: SupportSweepResult) -> str:
    """Fig. 5: average number of sequences per user vs min_support."""
    xs, ys = sweep.mean_sequences_series()
    chart = LineChart(
        "Fig. 5 — Avg number of sequences per user vs minimum support",
        x_label="minimum support threshold",
        y_label="avg sequences per user",
    )
    chart.add_series("modified PrefixSpan", xs, ys)
    return chart.render()


def fig6_chart(sweep: SupportSweepResult, support: float = 0.5) -> str:
    """Fig. 6: distribution of the number of sequences at one support."""
    counts = sweep.sequence_counts_at(support)
    hist = Histogram(
        f"Fig. 6 — Distribution of sequences per user (min_support = {support:g})",
        x_label="number of sequences",
        bins=min(20, max(5, len(set(counts)))),
    )
    hist.add_values(counts)
    return hist.render()


def fig7_chart(sweep: SupportSweepResult) -> str:
    """Fig. 7: average length of sequences per user vs min_support."""
    xs, ys = sweep.mean_length_series()
    chart = LineChart(
        "Fig. 7 — Avg length of sequences per user vs minimum support",
        x_label="minimum support threshold",
        y_label="avg pattern length",
    )
    chart.add_series("modified PrefixSpan", xs, ys)
    return chart.render()


def fig8_chart(sweep: SupportSweepResult, support: float = 0.5) -> str:
    """Fig. 8: distribution of the average length at one support."""
    lengths = sweep.avg_lengths_at(support)
    hist = Histogram(
        f"Fig. 8 — Distribution of avg pattern length (min_support = {support:g})",
        x_label="average pattern length",
        bins=12,
    )
    hist.add_values(lengths)
    return hist.render()
