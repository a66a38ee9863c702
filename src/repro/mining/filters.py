"""Post-mining pattern filter: closed pattern reduction.

Frequent-pattern output is heavily redundant — every prefix of a frequent
pattern is frequent.  The UI and the crowd aggregator work on *closed*
patterns (no super-pattern with the same support).
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

from .base import SequentialPattern, sort_patterns

__all__ = ["closed_patterns"]

P = TypeVar("P", bound=SequentialPattern)


def closed_patterns(patterns: Sequence[P]) -> List[P]:
    """Keep patterns with no super-pattern of equal count.

    Quadratic in the number of patterns, which is fine at per-user scale
    (tens to hundreds of patterns).
    """
    kept: List[P] = []
    for p in patterns:
        absorbed = any(
            q is not p
            and len(q.items) > len(p.items)
            and q.count == p.count
            and p.is_subpattern_of(q)
            for q in patterns
        )
        if not absorbed:
            kept.append(p)
    return sort_patterns(kept)
