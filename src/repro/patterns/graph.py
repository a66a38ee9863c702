"""Place graphs: "a graph of visited places based on historical records".

The individual view of the platform shows each user a directed graph whose
nodes are the places (labels) they visit and whose edges are observed
same-day transitions, weighted by frequency.  It is counted with array
operations over the user's rows, ordered and deduplicated exactly as the
sessionizer orders and deduplicates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..data.records import CheckInDataset
from ..sequences import HOURLY, Labeler, TimeBinning
from ..sequences.sessions import label_rows

__all__ = ["PlaceGraph", "build_place_graph"]


@dataclass(frozen=True)
class PlaceGraph:
    """A user's observed-transition graph.

    ``nodes`` are ``(label, visits)`` in the order the labels are first
    seen; ``edges`` are ``(src, dst, weight, days)`` grouped by source in
    node order, then in the order each pair first occurs.
    """

    user_id: str
    nodes: Tuple[Tuple[str, int], ...]
    edges: Tuple[Tuple[str, str, int, int], ...]


def build_place_graph(
    dataset: CheckInDataset,
    user_id: str,
    labeler: Labeler,
    binning: TimeBinning = HOURLY,
) -> PlaceGraph:
    """The user's place graph over their daily sessions.

    ``visits`` counts the session items with that label; an edge's
    ``weight`` counts consecutive same-day items with different labels, and
    ``days`` the distinct days it occurs on.
    """
    lo, hi = dataset.user_span(user_id)
    if hi <= lo:
        return PlaceGraph(user_id, (), ())
    rows = label_rows(dataset, lo, hi, labeler, binning)
    labels = rows.labels
    n_labels = len(labels)
    label = rows.items[rows.keep] % n_labels
    day = rows.days[rows.keep]
    codes, first_at, visits = np.unique(label, return_index=True, return_counts=True)
    seen = np.argsort(first_at)
    rank = np.empty(n_labels, dtype=np.int64)
    rank[codes[seen]] = np.arange(len(seen))
    nodes = tuple((labels[c], v) for c, v in zip(codes[seen].tolist(), visits[seen].tolist()))

    step = ~rows.first[rows.keep][1:] & (label[1:] != label[:-1])
    pair = label[:-1][step] * n_labels + label[1:][step]
    pairs, pair_first, pair_index, weight = np.unique(
        pair, return_index=True, return_inverse=True, return_counts=True)
    day_values, day_index = np.unique(day[1:][step], return_inverse=True)
    pair_days = np.unique(pair_index.reshape(-1) * len(day_values) + day_index.reshape(-1))
    days = np.bincount(pair_days // max(len(day_values), 1), minlength=len(pairs))
    edge_order = np.lexsort((pair_first, rank[pairs // n_labels]))
    edges = tuple(
        (labels[p // n_labels], labels[p % n_labels], w, d)
        for p, w, d in zip(pairs[edge_order].tolist(), weight[edge_order].tolist(),
                           days[edge_order].tolist())
    )
    return PlaceGraph(user_id, nodes, edges)
