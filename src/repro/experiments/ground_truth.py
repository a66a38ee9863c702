"""Ground-truth validation: do mined patterns recover the real routines?

The real Foursquare dump has no ground truth — nobody knows what the users'
actual routines were.  The synthetic substrate does: every agent carries
the exact routine that generated their check-ins.  This experiment measures
how faithfully phase 2 recovers it:

* **recall** — of the agent's high-probability routine stops, how many
  appear as a mined pattern item (right label at roughly the right hour)?
* **precision** — of the mined pattern items, how many correspond to a real
  routine stop?

This is the evaluation the paper could not run, and the strongest evidence
that the modified PrefixSpan detects *actual* behaviour rather than noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..data.synth import AgentProfile, GenerationResult, RoutineStop
from ..patterns import UserPatternProfile
from ..sequences import TimeBinning
from ..taxonomy import CategoryTree, UnknownCategoryError

__all__ = ["UserValidation", "ValidationSummary", "validate_against_ground_truth"]


@dataclass(frozen=True)
class UserValidation:
    """Pattern-vs-routine agreement for one user."""

    user_id: str
    n_truth_stops: int
    n_pattern_items: int
    matched_truth: int
    matched_items: int

    @property
    def recall(self) -> float:
        return self.matched_truth / self.n_truth_stops if self.n_truth_stops else 1.0

    @property
    def precision(self) -> float:
        return self.matched_items / self.n_pattern_items if self.n_pattern_items else 1.0


@dataclass(frozen=True)
class ValidationSummary:
    """Across-user aggregate."""

    per_user: Tuple[UserValidation, ...]

    @property
    def mean_recall(self) -> float:
        if not self.per_user:
            return 0.0
        return sum(v.recall for v in self.per_user) / len(self.per_user)

    @property
    def mean_precision(self) -> float:
        if not self.per_user:
            return 0.0
        return sum(v.precision for v in self.per_user) / len(self.per_user)

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {
                "user_id": v.user_id,
                "truth_stops": v.n_truth_stops,
                "pattern_items": v.n_pattern_items,
                "recall": round(v.recall, 3),
                "precision": round(v.precision, 3),
            }
            for v in self.per_user
        ]


def _truth_labels(
    stop: RoutineStop, agent: AgentProfile, generation: GenerationResult,
    taxonomy: CategoryTree,
) -> Set[str]:
    """Every label (venue id / leaf / ancestors) that would count as
    detecting this routine stop."""
    labels: Set[str] = set()
    if stop.pool_kind == "fixed":
        venue = generation.city.venues_by_id.get(stop.target)
        if venue is None:
            return labels
        labels.add(venue.venue_id)
        leaf = venue.category_name
    else:
        leaf = stop.target
    labels.add(leaf)
    try:
        node = taxonomy.resolve(leaf)
        labels.update(a.name for a in taxonomy.ancestors(node.category_id))
    except UnknownCategoryError:
        pass
    return labels


def validate_against_ground_truth(
    generation: GenerationResult,
    profiles: Mapping[str, UserPatternProfile],
    taxonomy: CategoryTree,
    binning: TimeBinning,
    min_stop_prob: float = 0.55,
    bin_tolerance: int = 2,
    weekday_only: bool = True,
) -> ValidationSummary:
    """Score every profiled user against their generating routine.

    A *truth stop* is a weekday routine stop whose occurrence probability is
    at least ``min_stop_prob`` (stops the agent actually performs most
    days — low-probability stops are not recoverable at min_support 0.5 by
    construction).  A truth stop is **recalled** when some mined pattern
    item has a matching label (the stop's venue, its leaf category, or any
    ancestor) within ``bin_tolerance`` bins of the stop's hour.  A pattern
    item is **precise** when it matches some routine stop of *any*
    probability (weekday or weekend) the same way.
    """
    if not (0.0 <= min_stop_prob <= 1.0):
        raise ValueError("min_stop_prob must be a probability")
    if bin_tolerance < 0:
        raise ValueError("bin_tolerance must be non-negative")

    results: List[UserValidation] = []
    n_bins = binning.n_bins
    for user_id in sorted(profiles):
        agent = generation.agents_by_id.get(user_id)
        if agent is None:
            continue
        profile = profiles[user_id]

        def stop_bin(stop: RoutineStop) -> int:
            return binning.bin_of_hour(min(23.999, max(0.0, stop.hour)))

        truth_stops = [
            stop for stop in agent.weekday_routine if stop.prob >= min_stop_prob
        ]
        if not weekday_only:
            truth_stops += [
                stop for stop in agent.weekend_routine if stop.prob >= min_stop_prob
            ]
        all_stops = list(agent.weekday_routine) + list(agent.weekend_routine)

        pattern_items = {item for p in profile.patterns for item in p.items}

        def bins_close(a: int, b: int) -> bool:
            d = abs(a - b)
            return min(d, n_bins - d) <= bin_tolerance

        def matches(item, stop: RoutineStop) -> bool:
            return (item.label in _truth_labels(stop, agent, generation, taxonomy)
                    and bins_close(item.bin, stop_bin(stop)))

        matched_truth = sum(
            any(matches(item, stop) for item in pattern_items) for stop in truth_stops
        )
        matched_items = sum(
            any(matches(item, stop) for stop in all_stops) for item in pattern_items
        )

        results.append(
            UserValidation(
                user_id=user_id,
                n_truth_stops=len(truth_stops),
                n_pattern_items=len(pattern_items),
                matched_truth=matched_truth,
                matched_items=matched_items,
            )
        )
    return ValidationSummary(per_user=tuple(results))
