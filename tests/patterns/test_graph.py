"""Tests for place graphs."""

from datetime import datetime, timedelta, timezone

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CheckIn, CheckInDataset
from repro.patterns import PlaceGraph, build_place_graph
from repro.sequences import HOURLY, TimeBinning, make_labeler, sessionize_user
from repro.taxonomy import AbstractionLevel

UTC = timezone.utc


def checkin(user, day, hour, cat, tz=0, venue=None):
    return CheckIn(
        user_id=user, venue_id=venue or f"v-{cat}", category_id="", category_name=cat,
        lat=40.7, lon=-74.0, tz_offset_min=tz,
        timestamp=datetime(2012, 4, day, hour, 0, 0, tzinfo=UTC),
    )


@pytest.fixture
def crafted_graph(taxonomy):
    # Two days Home->Work->Eatery, one day Home->Eatery.
    ds = CheckInDataset([
        checkin("u", 1, 8, "Home (private)"), checkin("u", 1, 9, "Corporate Office"),
        checkin("u", 1, 12, "Thai Restaurant"),
        checkin("u", 2, 8, "Home (private)"), checkin("u", 2, 9, "Corporate Office"),
        checkin("u", 2, 12, "Thai Restaurant"),
        checkin("u", 3, 8, "Home (private)"), checkin("u", 3, 12, "Thai Restaurant"),
    ])
    labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
    return build_place_graph(ds, "u", labeler)


class TestPlaceGraph:
    def test_nodes_and_visits(self, crafted_graph):
        assert crafted_graph.nodes == (("Residence", 3), ("Work", 2), ("Eatery", 3))

    def test_edge_weights_and_days(self, crafted_graph):
        assert crafted_graph.edges == (
            ("Residence", "Work", 2, 2),
            ("Residence", "Eatery", 1, 1),
            ("Work", "Eatery", 2, 2),
        )

    def test_self_loops_excluded(self, taxonomy):
        ds = CheckInDataset([
            checkin("u", 1, 8, "Thai Restaurant"),
            checkin("u", 1, 12, "Chinese Restaurant"),  # same ROOT label
        ])
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        graph = build_place_graph(ds, "u", labeler)
        assert graph.nodes == (("Eatery", 2),)
        assert graph.edges == ()

    def test_empty_user(self, taxonomy):
        ds = CheckInDataset([checkin("u", 1, 8, "Thai Restaurant")])
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        assert build_place_graph(ds, "ghost", labeler) == PlaceGraph("ghost", (), ())


# ------------------------------------------------------------------ oracle
#
# The networkx builder the array path replaced: one DiGraph per user over
# its daily sessions.  The array path must give the same nodes and edges in
# the order networkx iterates them.


def oracle_place_graph(dataset, user_id, labeler, binning=HOURLY):
    graph = nx.DiGraph(user_id=user_id)
    for session in sessionize_user(dataset, user_id, labeler, binning):
        labels = [item.label for item in session.items]
        for label in labels:
            if graph.has_node(label):
                graph.nodes[label]["visits"] += 1
            else:
                graph.add_node(label, visits=1)
        for src, dst in zip(labels, labels[1:]):
            if src == dst:
                continue
            if graph.has_edge(src, dst):
                graph[src][dst]["weight"] += 1
                graph[src][dst]["day_set"].add(session.day)
            else:
                graph.add_edge(src, dst, weight=1, day_set={session.day})
    return PlaceGraph(
        user_id,
        tuple((node, attrs["visits"]) for node, attrs in graph.nodes(data=True)),
        tuple((u, v, attrs["weight"], len(attrs["day_set"]))
              for u, v, attrs in graph.edges(data=True)),
    )


#: Few categories over several levels, so labels repeat, merge and tie.
_CATEGORIES = ["Home (private)", "Corporate Office", "Thai Restaurant", "Chinese Restaurant",
               "Gym", "Coffee Shop", "Bar"]

random_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),  # user
        st.integers(min_value=0, max_value=3 * 24 * 60),  # minutes from the first midnight
        st.sampled_from(_CATEGORIES),
        st.sampled_from([0, -300, 330]),  # tz offset: local days differ from UTC days
        st.integers(min_value=0, max_value=2),  # venue variant of the category
    ),
    max_size=40,
)


class TestOracleParity:
    """``build_place_graph`` equals the networkx builder, order included."""

    @pytest.mark.parametrize("level", list(AbstractionLevel))
    def test_every_user_of_the_small_city(self, small_ds, taxonomy, level):
        labeler = make_labeler(taxonomy, level)
        for user_id in small_ds.user_ids():
            assert build_place_graph(small_ds, user_id, labeler) == \
                oracle_place_graph(small_ds, user_id, labeler)

    @given(rows=random_rows,
           level=st.sampled_from(list(AbstractionLevel)),
           binning=st.sampled_from([HOURLY, TimeBinning(2.0)]))
    @settings(max_examples=150, deadline=None)
    def test_random_rows(self, taxonomy, rows, level, binning):
        start = datetime(2012, 4, 1, tzinfo=UTC)
        ds = CheckInDataset([
            CheckIn(user_id=user, venue_id=f"v-{cat}-{variant}", category_id="",
                    category_name=cat, lat=40.7, lon=-74.0, tz_offset_min=tz,
                    timestamp=start + timedelta(minutes=minute))
            for user, minute, cat, tz, variant in rows
        ])
        labeler = make_labeler(taxonomy, level)
        for user_id in ("a", "b"):
            assert build_place_graph(ds, user_id, labeler, binning) == \
                oracle_place_graph(ds, user_id, labeler, binning)
