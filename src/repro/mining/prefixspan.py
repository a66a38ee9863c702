"""Classic PrefixSpan (Pei et al., TKDE 2004) with pseudo-projection.

This is the textbook algorithm over sequences of atomic items (check-in
streams are totally ordered, so elements are single items, not itemsets).
It serves as the exact-matching baseline the paper's *modified* PrefixSpan
(:mod:`repro.mining.modified`) extends.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple, TypeVar

from ..sequences.database import SequenceDatabase
from .base import MiningLimits, SequentialPattern, sort_patterns, sorted_candidates

__all__ = ["prefixspan"]

Item = TypeVar("Item", bound=Hashable)

#: (sequence index, resume position) — the pseudo-projection unit.
_Projection = Tuple[int, int]


def prefixspan(  # crowdlint: disable=CW604 -- classic PrefixSpan, the modified miner's oracle
    db: SequenceDatabase[Item],
    min_support: float,
    limits: MiningLimits = MiningLimits(),
) -> List[SequentialPattern[Item]]:
    """Mine all frequent sequential patterns of ``db``.

    Parameters
    ----------
    db:
        The sequence database (one sequence per user-day in CrowdWeb).
    min_support:
        Relative support threshold in (0, 1]; a pattern is frequent when it
        occurs in at least ``ceil(min_support * |db|)`` sequences.
    limits:
        Length bounds on emitted patterns.

    Returns
    -------
    Patterns in canonical order (support desc, then length desc).
    """
    n = len(db)
    if n == 0:
        return []
    min_count = db.min_count(min_support)
    sequences = db.sequences
    results: List[SequentialPattern[Item]] = []

    def grow(prefix: Tuple[Item, ...], projections: Sequence[_Projection]) -> None:
        # Count, per candidate extension item, the sequences whose projected
        # postfix contains it — and remember the first match for projection.
        first_match: Dict[Item, Dict[int, int]] = {}
        for seq_index, pos in projections:
            seq = sequences[seq_index]
            for k in range(pos, len(seq)):
                per_seq = first_match.setdefault(seq[k], {})
                if seq_index not in per_seq:
                    per_seq[seq_index] = k + 1
        for item in sorted_candidates(list(first_match)):
            supporters = first_match[item]
            count = len(supporters)
            if count < min_count:
                continue
            pattern_items = prefix + (item,)
            if len(pattern_items) >= limits.min_length:
                results.append(
                    SequentialPattern(items=pattern_items, count=count, support=count / n)
                )
            if limits.admits_longer_than(len(pattern_items)):
                grow(pattern_items, sorted(supporters.items()))

    grow((), [(i, 0) for i in range(n)])
    return sort_patterns(results)
