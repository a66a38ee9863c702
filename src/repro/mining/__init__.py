"""Sequential-pattern mining: modified PrefixSpan plus baselines and tools."""

from .base import MiningLimits, SequentialPattern, sort_patterns, sorted_candidates
from .bruteforce import bruteforce_mine
from .filters import closed_patterns
from .index import MatchIndex, build_match_index
from .interop import ItemCodec, write_spmf_database, write_spmf_patterns
from .modified import (
    FlexibleMatcher,
    ModifiedPrefixSpanConfig,
    modified_prefixspan,
    modified_prefixspan_reference,
)
from .prefixspan import prefixspan
from .stats import MiningAggregate, UserMiningStats, aggregate_stats, user_mining_stats

__all__ = [
    "FlexibleMatcher",
    "ItemCodec",
    "MatchIndex",
    "MiningAggregate",
    "MiningLimits",
    "ModifiedPrefixSpanConfig",
    "SequentialPattern",
    "UserMiningStats",
    "aggregate_stats",
    "bruteforce_mine",
    "build_match_index",
    "closed_patterns",
    "modified_prefixspan",
    "modified_prefixspan_reference",
    "prefixspan",
    "sort_patterns",
    "sorted_candidates",
    "user_mining_stats",
    "write_spmf_database",
    "write_spmf_patterns",
]
