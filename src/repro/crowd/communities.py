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

import networkx as nx
import numpy as np

from ..patterns import UserPatternProfile, profile_similarity_matrix

__all__ = ["Community", "build_similarity_graph", "label_propagation", "detect_communities"]


@dataclass(frozen=True)
class Community:
    """One behavioural community of users."""

    community_id: int
    user_ids: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.user_ids)


def _similarity_links(
    profiles: Mapping[str, UserPatternProfile], min_similarity: float
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """Sorted user ids, the similarity matrix, and its qualifying-link mask."""
    if not (0.0 <= min_similarity <= 1.0):
        raise ValueError("min_similarity must be a probability")
    user_ids, similarity = profile_similarity_matrix(profiles)
    links = similarity >= min_similarity
    np.fill_diagonal(links, False)
    return user_ids, similarity, links


def build_similarity_graph(
    profiles: Mapping[str, UserPatternProfile], min_similarity: float = 0.1
) -> nx.Graph:
    """Weighted user-similarity graph.

    Nodes are users; an edge exists when pattern-set Jaccard similarity
    reaches ``min_similarity``, weighted by that similarity (the "link
    strength").  Users with no qualifying link stay as isolated nodes.
    """
    user_ids, similarity, links = _similarity_links(profiles, min_similarity)
    graph = nx.Graph()
    graph.add_nodes_from(user_ids)
    for i, j in zip(*np.nonzero(np.triu(links))):
        graph.add_edge(user_ids[i], user_ids[j], weight=float(similarity[i, j]))
    return graph


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


def label_propagation(graph: nx.Graph, max_iterations: int = 100, seed: int = 0) -> Dict[str, int]:
    """Link-strength-weighted label propagation.

    Each node starts with its own label (its rank in sorted order); on
    every sweep (random order, seeded) a node adopts the label with the
    highest total incident edge weight (``weight``, default 1.0), ties
    broken by the smallest label for determinism.  Converges when a full
    sweep changes nothing.
    """
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    neighbors = [np.array([index[nb] for nb in graph[node]], dtype=np.intp) for node in nodes]
    weights = [
        np.array([attrs.get("weight", 1.0) for attrs in graph[node].values()], dtype=float)
        for node in nodes
    ]
    labels = _propagate(neighbors, weights, max_iterations, seed)
    return dict(zip(nodes, labels))


def detect_communities(
    profiles: Mapping[str, UserPatternProfile],
    min_similarity: float = 0.1,
    min_size: int = 1,
    seed: int = 0,
) -> List[Community]:
    """Full pipeline: similarity graph → label propagation → communities.

    Returned largest-first with contiguous ids from 0.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    user_ids, similarity, links = _similarity_links(profiles, min_similarity)
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
