"""Per-user mobility-pattern profiles — phase 2 of the framework.

A :class:`UserPatternProfile` bundles everything the platform knows about
one user: their daily-sequence database, the flexible patterns mined from
it, and the binning that gives pattern items their clock meaning.  This is
the unit the crowd layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from ..data.records import CheckInDataset
from ..exec import ExecConfig, ordered_map
from ..mining import (
    ModifiedPrefixSpanConfig,
    SequentialPattern,
    closed_patterns,
    modified_prefixspan,
)
from ..obs import get_observer
from ..sequences import (
    SequenceDatabase,
    TimeBinning,
    TimedItem,
    build_all_databases,
    build_user_database,
    HOURLY,
)
from ..taxonomy import AbstractionLevel, CategoryTree

__all__ = ["UserPatternProfile", "detect_user_patterns", "detect_all_patterns"]


@dataclass
class UserPatternProfile:
    """One user's detected mobility patterns."""

    user_id: str
    patterns: Tuple[SequentialPattern[TimedItem], ...]
    n_days: int
    binning: TimeBinning = field(default_factory=lambda: HOURLY)
    level: AbstractionLevel = AbstractionLevel.ROOT

    def __post_init__(self) -> None:
        self.patterns = tuple(self.patterns)

    @property
    def n_patterns(self) -> int:
        return len(self.patterns)

    def top(self, k: int = 10) -> List[SequentialPattern[TimedItem]]:
        """The ``k`` strongest patterns (input order is already canonical)."""
        return list(self.patterns[:k])

    def labels(self) -> List[str]:
        """All place labels appearing in any pattern, sorted."""
        return sorted({item.label for p in self.patterns for item in p.items})

    def items_at_bin(self, bin_index: int, tolerance: int = 0) -> List[Tuple[TimedItem, SequentialPattern]]:
        """Pattern items active at a time bin (within ``tolerance`` bins).

        This is the crowd layer's core query: "where does this user's
        routine put them at 9 am?".
        """
        n_bins = self.binning.n_bins
        hits = []
        for pattern in self.patterns:
            for item in pattern.items:
                d = abs(item.bin - bin_index)
                if min(d, n_bins - d) <= tolerance:
                    hits.append((item, pattern))
        return hits

    def to_dict(self) -> Dict:
        """JSON-ready representation (used by the web API)."""
        return {
            "user_id": self.user_id,
            "n_days": self.n_days,
            "level": self.level.value,
            "bin_width_hours": self.binning.width_hours,
            "patterns": [
                {
                    "items": [
                        {"bin": item.bin, "time": self.binning.label(item.bin), "label": item.label}
                        for item in p.items
                    ],
                    "support": round(p.support, 4),
                    "count": p.count,
                }
                for p in self.patterns
            ],
        }


def detect_user_patterns(
    dataset: CheckInDataset,
    user_id: str,
    taxonomy: CategoryTree,
    level: AbstractionLevel = AbstractionLevel.ROOT,
    binning: TimeBinning = HOURLY,
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
    closed_only: bool = True,
    day_kind: str = "all",
) -> UserPatternProfile:
    """Detect one user's mobility patterns (the paper's phase 2).

    Builds the user's daily-sequence database at the chosen abstraction
    level, runs the modified PrefixSpan, and (by default) reduces the output
    to closed patterns.  ``day_kind`` ("all"/"weekday"/"weekend") mines a
    day-type-conditioned routine.
    """
    db = build_user_database(dataset, user_id, taxonomy, level, binning,
                             day_kind=day_kind)
    return _profile_from_db(
        (user_id, db),
        taxonomy=taxonomy,
        level=level,
        binning=binning,
        config=config,
        closed_only=closed_only,
    )


def _profile_from_db(
    task: Tuple[str, SequenceDatabase[TimedItem]],
    taxonomy: CategoryTree,
    level: AbstractionLevel,
    binning: TimeBinning,
    config: ModifiedPrefixSpanConfig,
    closed_only: bool,
) -> UserPatternProfile:
    """Mine one prebuilt user database into a profile.

    Module-level (and fed a single ``(user_id, db)`` item) so the process
    backend can pickle it as a ``functools.partial`` carrying the shared
    read-only context once per chunk.
    """
    user_id, db = task
    patterns = modified_prefixspan(db, config, taxonomy=taxonomy, n_bins=binning.n_bins)
    if closed_only:
        patterns = closed_patterns(patterns)
    return UserPatternProfile(
        user_id=user_id,
        patterns=tuple(patterns),
        n_days=len(db),
        binning=binning,
        level=level,
    )


def _profile_from_encoded(
    task: Tuple[str, str, Tuple],
    vocab,
    taxonomy: CategoryTree,
    level: AbstractionLevel,
    binning: TimeBinning,
    config: ModifiedPrefixSpanConfig,
    closed_only: bool,
) -> UserPatternProfile:
    """Mine one user's *interned* database shipped as raw id arrays.

    The process backend pickles the worker ``partial`` — including the
    dataset-wide :class:`~repro.sequences.ItemVocab` — once per worker;
    each task then carries only ``(user_id, db_name, packed id storage)``,
    and the database is re-adopted here without copying or re-encoding.
    """
    user_id, name, (flat, offsets) = task
    db = SequenceDatabase.from_storage(flat, offsets, vocab, name=name)
    return _profile_from_db(
        (user_id, db),
        taxonomy=taxonomy,
        level=level,
        binning=binning,
        config=config,
        closed_only=closed_only,
    )


def detect_all_patterns(
    dataset: CheckInDataset,
    taxonomy: CategoryTree,
    level: AbstractionLevel = AbstractionLevel.ROOT,
    binning: TimeBinning = HOURLY,
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
    closed_only: bool = True,
    day_kind: str = "all",
    exec_config: ExecConfig = ExecConfig(),
) -> Dict[str, UserPatternProfile]:
    """Detect every user's patterns; map user id → profile.

    The per-dataset work (labeler construction, sessionization) happens
    once up front; each user's mining then runs over ``exec_config`` —
    serially by default, or fanned out across worker processes with a
    deterministic ordered merge (output is identical either way).  All
    per-user databases share one dataset-wide vocabulary, which travels in
    the worker closure (shipped once per worker process); the per-task
    payload is just the user's packed id arrays.
    """
    with get_observer().span("patterns.detect_all") as span:
        databases = build_all_databases(dataset, taxonomy, level, binning,
                                        day_kind=day_kind)
        user_ids = list(databases)
        if not user_ids:
            span.set("n_users", 0)
            span.set("n_patterns", 0)
            return {}
        worker = partial(
            _profile_from_encoded,
            vocab=databases[user_ids[0]].vocab,
            taxonomy=taxonomy,
            level=level,
            binning=binning,
            config=config,
            closed_only=closed_only,
        )
        tasks = [
            (uid, databases[uid].name, databases[uid].storage) for uid in user_ids
        ]
        profiles = ordered_map(worker, tasks, exec_config, label="mine_user")
        span.set("n_users", len(user_ids))
        span.set("n_patterns", sum(p.n_patterns for p in profiles))
    return {profile.user_id: profile for profile in profiles}
