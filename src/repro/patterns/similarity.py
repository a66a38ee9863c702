"""Similarity between users' mobility behaviour.

Used by the crowd layer's extension features: grouping users with alike
routines, and by the community view (which generalizes the paper's
"categorized together as a group" from exact co-location to behavioural
similarity).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

import numpy as np

from ..sequences import TimedItem
from .model import UserPatternProfile

__all__ = [
    "jaccard_similarity",
    "pattern_set_similarity",
    "profile_similarity_matrix",
]


def jaccard_similarity(a: Set, b: Set) -> float:
    """|a ∩ b| / |a ∪ b|, with the convention that two empty sets match (1.0)."""
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def pattern_set_similarity(p1: UserPatternProfile, p2: UserPatternProfile) -> float:
    """Jaccard similarity of the two users' pattern-item sets.

    Items are (bin, label) pairs, so "both at an Eatery around noon" counts
    as overlap even when the full patterns differ.
    """
    items1 = {item for p in p1.patterns for item in p.items}
    items2 = {item for p in p2.patterns for item in p.items}
    return jaccard_similarity(items1, items2)


def profile_similarity_matrix(
    profiles: Mapping[str, UserPatternProfile]
) -> Tuple[List[str], np.ndarray]:
    """Symmetric pairwise pattern-set similarity over all users.

    Returns the sorted user-id list and the matching (n, n) matrix, equal
    entry for entry to :func:`pattern_set_similarity`.  Each distinct item
    set is one 0/1 row of a sets × items matrix ``A``: intersections are
    ``A @ A.T``, unions ``|a| + |b| − |a ∩ b|``, and two empty sets give
    1.0.  Users then pick their set's row and column; many users share a
    set (every user without patterns has the empty one).
    """
    user_ids = sorted(profiles)
    distinct: Dict[FrozenSet[TimedItem], int] = {}
    rows = [
        distinct.setdefault(
            frozenset(item for p in profiles[user_id].patterns for item in p.items),
            len(distinct),
        )
        for user_id in user_ids
    ]
    columns = {item: c for c, item in enumerate(sorted(set().union(*distinct)))}
    members = np.zeros((len(distinct), len(columns)))
    for row, items in enumerate(distinct):
        members[row, [columns[item] for item in items]] = 1.0
    # Small integer counts, so the float products and sums are exact and
    # each quotient rounds exactly as ``len(a & b) / len(a | b)`` does.
    intersection = members @ members.T
    sizes = members.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - intersection
    with np.errstate(invalid="ignore"):
        similarity = np.where(union > 0, intersection / union, 1.0)
    return user_ids, similarity[np.ix_(rows, rows)]
