"""Behavioural communities via label propagation (the authors' ref [7]).

The crowd view groups users by *exact* co-location; this module generalizes
to *behavioural* communities: a user-similarity graph (pattern-set Jaccard,
link strength = similarity) partitioned with a link-strength-weighted label
propagation algorithm — the approach of Lakhdari et al. (2016), which the
CrowdWeb authors cite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..patterns import UserPatternProfile, profile_similarity_matrix

__all__ = ["Community", "similarity_links", "detect_communities"]


@dataclass(frozen=True)
class Community:
    """One behavioural community of users."""

    community_id: int
    user_ids: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.user_ids)


def similarity_links(
    profiles: Mapping[str, UserPatternProfile], min_similarity: float
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """The weighted user-similarity graph as arrays.

    Sorted user ids, their pattern-set Jaccard matrix (the link strength),
    and the mask of pairs that link: similarity at least
    ``min_similarity``, never a user with itself.
    """
    if not (0.0 <= min_similarity <= 1.0):
        raise ValueError("min_similarity must be a probability")
    user_ids, similarity = profile_similarity_matrix(profiles)
    links = similarity >= min_similarity
    np.fill_diagonal(links, False)
    return user_ids, similarity, links


def _propagate(
    neighbors: List[np.ndarray],
    weights: List[np.ndarray],
    max_iterations: int,
    seed: int,
) -> List[int]:
    """Label propagation over node ``i``'s ``neighbors[i]`` and ``weights[i]``.

    Labels start as node indices.  A node's label strengths are
    ``np.bincount`` sums, which add the weights one by one in neighbour
    order; the best label is the strongest one present among its
    neighbours, and ``argmax`` breaks ties to the smallest label.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    n = len(neighbors)
    rng = np.random.default_rng(seed)
    labels = np.arange(n)
    for _ in range(max_iterations):
        changed = False
        for node in rng.permutation(n).tolist():
            if not len(neighbors[node]):
                continue
            present = labels[neighbors[node]]
            strength = np.full(n, -np.inf)
            strength[present] = np.bincount(present, weights[node], minlength=n)[present]
            best = strength.argmax()
            if best != labels[node]:
                labels[node] = best
                changed = True
        if not changed:
            break
    return labels.tolist()


def detect_communities(
    profiles: Mapping[str, UserPatternProfile],
    min_similarity: float = 0.1,
    min_size: int = 1,
    seed: int = 0,
) -> List[Community]:
    """Full pipeline: similarity links → label propagation → communities.

    Returned largest-first with contiguous ids from 0.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    user_ids, similarity, links = similarity_links(profiles, min_similarity)
    labels = _propagate(
        [np.flatnonzero(row) for row in links],
        [similarity[i, row] for i, row in enumerate(links)],
        max_iterations=100,
        seed=seed,
    )
    by_label: Dict[int, List[str]] = {}
    for user_id, label in zip(user_ids, labels):
        by_label.setdefault(label, []).append(user_id)
    groups = sorted(
        (sorted(members) for members in by_label.values() if len(members) >= min_size),
        key=lambda members: (-len(members), members[0]),
    )
    return [
        Community(community_id=i, user_ids=tuple(members))
        for i, members in enumerate(groups)
    ]
