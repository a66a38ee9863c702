"""Tests for behavioural community detection (label propagation)."""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd import Community, detect_communities, similarity_links
from repro.crowd.communities import _propagate
from repro.mining import SequentialPattern
from repro.patterns import UserPatternProfile, pattern_set_similarity
from repro.sequences import TimedItem
from repro.web import CrowdWebApp


def profile(user_id, items):
    patterns = tuple(
        SequentialPattern(items=(TimedItem(b, l),), count=5, support=0.5)
        for b, l in items
    )
    return UserPatternProfile(user_id=user_id, patterns=patterns, n_days=10)


@pytest.fixture
def two_cliques():
    """Two behavioural groups: office workers vs night owls."""
    office = [(9, "Work"), (12, "Eatery")]
    night = [(21, "Nightlife"), (23, "Residence")]
    return {
        "w1": profile("w1", office),
        "w2": profile("w2", office),
        "w3": profile("w3", office + [(17, "Shops")]),
        "n1": profile("n1", night),
        "n2": profile("n2", night),
    }


def similarity_graph(profiles, min_similarity):
    """``similarity_links`` as a networkx graph, to compare with the oracle's."""
    user_ids, similarity, links = similarity_links(profiles, min_similarity)
    graph = nx.Graph()
    graph.add_nodes_from(user_ids)
    for i, j in zip(*np.nonzero(np.triu(links))):
        graph.add_edge(user_ids[i], user_ids[j], weight=float(similarity[i, j]))
    return graph


def label_propagation(graph, max_iterations=100, seed=0):
    """``detect_communities``' propagation run on a networkx graph's adjacency.

    Nodes are ranked in sorted order; a missing ``weight`` counts 1.0.
    """
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    neighbors = [np.array([index[nb] for nb in graph[node]], dtype=np.intp) for node in nodes]
    weights = [
        np.array([attrs.get("weight", 1.0) for attrs in graph[node].values()], dtype=float)
        for node in nodes
    ]
    return dict(zip(nodes, _propagate(neighbors, weights, max_iterations, seed)))


class TestSimilarityGraph:
    def test_structure(self, two_cliques):
        user_ids, similarity, links = similarity_links(two_cliques, min_similarity=0.3)
        assert user_ids == sorted(two_cliques)
        at = {uid: i for i, uid in enumerate(user_ids)}
        assert links[at["w1"], at["w2"]] and links[at["w2"], at["w1"]]
        assert links[at["n1"], at["n2"]]
        assert not links[at["w1"], at["n1"]]
        assert not links.diagonal().any()
        assert similarity[at["w1"], at["w2"]] == 1.0

    def test_threshold(self, two_cliques):
        _, _, loose = similarity_links(two_cliques, min_similarity=0.0)
        _, _, tight = similarity_links(two_cliques, min_similarity=0.9)
        assert loose.sum() >= tight.sum()
        assert (loose | ~tight).all()

    def test_invalid_threshold(self, two_cliques):
        with pytest.raises(ValueError):
            similarity_links(two_cliques, min_similarity=1.5)


class TestLabelPropagation:
    def test_two_components_two_labels(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=1.0)
        graph.add_edge("b", "c", weight=1.0)
        graph.add_edge("x", "y", weight=1.0)
        labels = label_propagation(graph)
        assert labels["a"] == labels["b"] == labels["c"]
        assert labels["x"] == labels["y"]
        assert labels["a"] != labels["x"]

    def test_isolated_node_keeps_own_label(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=1.0)
        graph.add_node("loner")
        labels = label_propagation(graph)
        assert labels["loner"] not in (labels["a"],)

    def test_deterministic(self):
        graph = nx.karate_club_graph()
        assert label_propagation(graph, seed=3) == label_propagation(graph, seed=3)

    def test_weight_dominates(self):
        # b is pulled toward the heavy edge.
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=5.0)
        graph.add_edge("b", "c", weight=0.1)
        graph.add_edge("c", "d", weight=0.1)
        labels = label_propagation(graph)
        assert labels["a"] == labels["b"]

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            label_propagation(nx.Graph(), max_iterations=0)


class TestDetectCommunities:
    def test_recovers_behavioural_groups(self, two_cliques):
        communities = detect_communities(two_cliques, min_similarity=0.3)
        by_user = {}
        for community in communities:
            for uid in community.user_ids:
                by_user[uid] = community.community_id
        assert by_user["w1"] == by_user["w2"]
        assert by_user["n1"] == by_user["n2"]
        assert by_user["w1"] != by_user["n1"]

    def test_largest_first_and_contiguous_ids(self, two_cliques):
        communities = detect_communities(two_cliques, min_similarity=0.3)
        sizes = [c.size for c in communities]
        assert sizes == sorted(sizes, reverse=True)
        assert [c.community_id for c in communities] == list(range(len(communities)))

    def test_min_size_filters(self, two_cliques):
        communities = detect_communities(two_cliques, min_similarity=0.3, min_size=3)
        assert all(c.size >= 3 for c in communities)

    def test_invalid_min_size(self, two_cliques):
        with pytest.raises(ValueError):
            detect_communities(two_cliques, min_size=0)

    def test_on_pipeline_profiles(self, pipeline_result):
        communities = detect_communities(pipeline_result.profiles, min_similarity=0.05)
        covered = [uid for c in communities for uid in c.user_ids]
        assert sorted(covered) == sorted(pipeline_result.profiles)

    def test_users_without_patterns_form_one_community(self):
        # jaccard(∅, ∅) = 1.0, so every user without a mined pattern links
        # to every other one at weight 1.0 and they end up together.
        profiles = {f"e{i}": profile(f"e{i}", []) for i in range(4)}
        profiles["w1"] = profile("w1", [(9, "Work")])
        profiles["w2"] = profile("w2", [(9, "Work"), (12, "Eatery")])
        communities = detect_communities(profiles, min_similarity=0.05)
        assert communities[0].user_ids == ("e0", "e1", "e2", "e3")
        assert communities[1].user_ids == ("w1", "w2")
        assert communities == oracle_detect_communities(profiles, 0.05)


# ------------------------------------------------------------------ oracle
#
# The pairwise dict/networkx implementation the array path replaced: one
# ``pattern_set_similarity`` per pair, and a label loop over networkx
# adjacency dicts.  The array path must reproduce it exactly.


def oracle_similarity_graph(profiles, min_similarity):
    if not (0.0 <= min_similarity <= 1.0):
        raise ValueError("min_similarity must be a probability")
    graph = nx.Graph()
    user_ids = sorted(profiles)
    graph.add_nodes_from(user_ids)
    for i, a in enumerate(user_ids):
        for b in user_ids[i + 1:]:
            s = pattern_set_similarity(profiles[a], profiles[b])
            if s >= min_similarity:
                graph.add_edge(a, b, weight=s)
    return graph


def oracle_label_propagation(graph, max_iterations=100, seed=0):
    rng = np.random.default_rng(seed)
    nodes = sorted(graph.nodes)
    labels = {node: i for i, node in enumerate(nodes)}
    for _ in range(max_iterations):
        changed = False
        for idx in list(rng.permutation(len(nodes))):
            node = nodes[int(idx)]
            neighbors = graph[node]
            if not neighbors:
                continue
            strength = {}
            for neighbor, attrs in neighbors.items():
                label = labels[neighbor]
                strength[label] = strength.get(label, 0.0) + attrs.get("weight", 1.0)
            best = min(strength, key=lambda label: (-strength[label], label))
            if best != labels[node]:
                labels[node] = best
                changed = True
        if not changed:
            break
    return labels


def oracle_detect_communities(profiles, min_similarity=0.1, min_size=1, seed=0):
    labels = oracle_label_propagation(oracle_similarity_graph(profiles, min_similarity),
                                      seed=seed)
    by_label = {}
    for user_id, label in labels.items():
        by_label.setdefault(label, []).append(user_id)
    groups = sorted(
        (sorted(members) for members in by_label.values() if len(members) >= min_size),
        key=lambda members: (-len(members), members[0]),
    )
    return [Community(community_id=i, user_ids=tuple(members))
            for i, members in enumerate(groups)]


#: Few distinct items, so profiles overlap, repeat and tie often.
_ITEMS = [(b, label) for b in (9, 12, 18) for label in ("Work", "Eatery", "Shops")]

profile_sets = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=2),
    values=st.lists(st.sampled_from(_ITEMS), max_size=4),  # [] is a user without patterns
    max_size=14,
).map(lambda d: {uid: profile(uid, items) for uid, items in d.items()})

thresholds = st.one_of(
    st.sampled_from([0.0, 0.05, 1 / 3, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _edges(graph):
    """Edges with weights, in each node's adjacency order."""
    return {node: list(graph[node].items()) for node in graph.nodes}


class TestOracleParity:
    """The array path equals the pairwise dict/networkx implementation."""

    @given(profiles=profile_sets, min_similarity=thresholds,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=150, deadline=None)
    def test_detect_communities_equals_oracle(self, profiles, min_similarity, seed):
        assert detect_communities(profiles, min_similarity, seed=seed) == \
            oracle_detect_communities(profiles, min_similarity, seed=seed)

    @given(profiles=profile_sets, min_similarity=thresholds)
    @settings(max_examples=100, deadline=None)
    def test_similarity_graph_equals_oracle(self, profiles, min_similarity):
        graph = similarity_graph(profiles, min_similarity)
        oracle = oracle_similarity_graph(profiles, min_similarity)
        assert list(graph.nodes) == list(oracle.nodes)
        assert _edges(graph) == _edges(oracle)

    @given(
        n_nodes=st.integers(min_value=0, max_value=12),
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11),
                      st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 1.0, 1.0, -1.0, None])),
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_label_propagation_equals_oracle(self, n_nodes, edges, seed):
        # Repeated weights make ties common, and 0.1/0.2/0.3/0.6 sums that
        # depend on their order; zero and negative weights make a present
        # label's strength <= 0; nodes past the edges stay isolated; None
        # leaves the weight to its default.
        graph = nx.Graph()
        graph.add_nodes_from(f"n{i:02d}" for i in range(n_nodes))
        for a, b, weight in edges:
            attrs = {} if weight is None else {"weight": weight}
            graph.add_edge(f"n{a:02d}", f"n{b:02d}", **attrs)
        assert label_propagation(graph, seed=seed) == oracle_label_propagation(graph, seed=seed)

    def test_strengths_sum_in_adjacency_order(self):
        # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floats: on this graph,
        # summing a node's strengths in reverse adjacency order gives a
        # different partition.
        graph = nx.Graph()
        for a, b, weight in [(0, 1, 0.1), (0, 2, 0.3), (0, 3, 0.2), (0, 4, 0.6),
                             (1, 2, 0.6), (2, 3, 0.6), (2, 4, 0.1)]:
            graph.add_edge(f"n{a}", f"n{b}", weight=weight)
        labels = label_propagation(graph)
        assert labels == oracle_label_propagation(graph)
        assert labels == {"n0": 1, "n1": 1, "n2": 1, "n3": 1, "n4": 1}

    def test_zero_weight_links_at_threshold_zero(self, two_cliques):
        # At min_similarity=0 disjoint users link with weight 0.0.
        graph = similarity_graph(two_cliques, min_similarity=0.0)
        assert graph["w1"]["n1"]["weight"] == 0.0
        assert detect_communities(two_cliques, 0.0) == \
            oracle_detect_communities(two_cliques, 0.0)

class TestServedBodies:
    """``/api/communities`` serves the oracle's bytes."""

    THRESHOLDS = ("0", "0.05", "0.3", "1")

    def test_bodies_equal_the_oracle_render(self, pipeline_result, monkeypatch):
        paths = [f"/api/communities?min_similarity={t}" for t in self.THRESHOLDS]
        served = [CrowdWebApp(pipeline_result).handle("GET", p)[2] for p in paths]
        monkeypatch.setattr("repro.web.api.detect_communities", oracle_detect_communities)
        oracle_app = CrowdWebApp(pipeline_result)
        assert served == [oracle_app.handle("GET", p)[2] for p in paths]

    @pytest.mark.parametrize("value", ["-0.1", "1.5", "nan", "inf"])
    def test_out_of_range_threshold_is_a_400(self, pipeline_result, value):
        status, _, body = CrowdWebApp(pipeline_result).handle(
            "GET", f"/api/communities?min_similarity={value}")
        assert status == 400
        assert json.loads(body) == {"error": "min_similarity must be a probability"}

    def test_unparsable_threshold_is_a_400(self, pipeline_result):
        status, _, body = CrowdWebApp(pipeline_result).handle(
            "GET", "/api/communities?min_similarity=x")
        assert status == 400
        assert json.loads(body) == {"error": "could not convert string to float: 'x'"}

    def test_each_refresh_renders_once_more(self, pipeline_result):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        with observed() as o:
            for expected in (1, 2, 3):
                app.handle("GET", "/api/communities")
                app.handle("GET", "/api/communities")
                assert o.registry.counter("repro_web_renders_total") == expected
                app.handle("POST", "/api/refresh")
