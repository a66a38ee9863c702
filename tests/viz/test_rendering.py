"""Tests for the city map, place-graph renderer, and HTML report."""

import xml.dom.minidom

import pytest

from repro.patterns import PlaceGraph, build_place_graph
from repro.sequences import make_labeler
from repro.taxonomy import AbstractionLevel
from repro.viz import (
    HtmlReport,
    label_color_order,
    render_place_graph,
    render_snapshot,
)


def parse(svg):
    return xml.dom.minidom.parseString(svg)


class TestSnapshotRendering:
    def test_valid_svg_with_dots(self, pipeline_result):
        snap = pipeline_result.aggregator.busiest_window()
        svg = render_snapshot(snap)
        doc = parse(svg)
        circles = doc.getElementsByTagName("circle")
        # Crowd dots + legend chips.
        assert len(circles) >= snap.n_users

    def test_title_includes_window(self, pipeline_result):
        snap = pipeline_result.timeline.at_hour(9.5)
        assert snap.window.label in render_snapshot(snap)

    def test_label_order_stabilizes_colors(self, pipeline_result):
        timeline = list(pipeline_result.timeline)
        order = label_color_order(timeline)
        assert order == label_color_order(timeline)  # deterministic
        snap = pipeline_result.aggregator.busiest_window()
        svg1 = render_snapshot(snap, label_order=order)
        svg2 = render_snapshot(snap, label_order=order)
        assert svg1 == svg2

    def test_empty_snapshot_renders(self, pipeline_result):
        empty = pipeline_result.timeline.at_hour(4.2)
        parse(render_snapshot(empty))


class TestPlaceGraphRendering:
    def test_renders_user_graph(self, pipeline_result, taxonomy):
        uid = sorted(pipeline_result.profiles)[0]
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        graph = build_place_graph(pipeline_result.dataset, uid, labeler)
        svg = render_place_graph(graph)
        doc = parse(svg)
        assert len(doc.getElementsByTagName("circle")) == len(graph.nodes)

    def test_empty_graph_placeholder(self):
        svg = render_place_graph(PlaceGraph("ghost", (), ()))
        assert "no places visited" in svg
        assert "user ghost" in svg

    def test_deterministic_layout(self, pipeline_result, taxonomy):
        uid = sorted(pipeline_result.profiles)[0]
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        graph = build_place_graph(pipeline_result.dataset, uid, labeler)
        assert render_place_graph(graph) == render_place_graph(graph)
        # Positions follow the sorted labels, not the graph's node order.
        shuffled = PlaceGraph(graph.user_id, graph.nodes[::-1], graph.edges)
        assert shuffled.nodes != graph.nodes

        def circles(svg):
            return sorted(
                (c.getElementsByTagName("title")[0].firstChild.data,
                 c.getAttribute("cx"), c.getAttribute("cy"))
                for c in parse(svg).getElementsByTagName("circle")
            )

        assert circles(render_place_graph(shuffled)) == circles(render_place_graph(graph))


class TestHtmlReport:
    def test_full_document(self, tmp_path):
        report = (
            HtmlReport("Title", "sub")
            .add_heading("Section")
            .add_table(["a", "b"], [[1, 2], [3, 4]], caption="Some <text> & stuff")
            .add_preformatted("raw < pre >")
            .add_svg('<svg xmlns="http://www.w3.org/2000/svg"/>', caption="fig")
        )
        html = report.to_html()
        assert "<h1>Title</h1>" in html
        assert "Some &lt;text&gt; &amp; stuff" in html
        assert "<td>3</td>" in html
        assert "raw &lt; pre &gt;" in html
        out = report.save(tmp_path / "r.html")
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_table_dimensions(self):
        html = HtmlReport("T").add_table(["x"], [["v1"], ["v2"], ["v3"]]).to_html()
        assert html.count("<tr>") == 4  # header + 3 rows


class TestTraceRendering:
    def test_renders_trace_with_stays(self, small_gen):
        from datetime import date, timedelta

        from repro.data.synth import simulate_traces
        from repro.prediction import DBSCANRNNConfig, DBSCANRNNPipeline
        from repro.sequences import detect_stay_points
        from repro.viz import render_trace

        agent = max(small_gen.agents, key=lambda a: a.checkin_prob)
        days = [date(2012, 4, 2) + timedelta(days=i) for i in range(12)]
        traces = simulate_traces([agent], small_gen.city, days,
                                 small_gen.config, seed=6)[agent.user_id]
        day = max(traces, key=lambda d: len(traces[d]))
        stays = detect_stay_points(traces[day], 150.0, 15 * 60.0)
        pipe = DBSCANRNNPipeline(DBSCANRNNConfig(rnn_epochs=3, seed=1)).fit(traces)
        svg = render_trace(traces[day], stays, pipe.cluster_centers,
                           title=f"{agent.user_id} on {day}")
        doc = parse(svg)
        # Stay dots + cluster rings + start/end markers, all circles.
        assert len(doc.getElementsByTagName("circle")) >= len(stays) + 2
        assert doc.getElementsByTagName("polyline")

    def test_empty_trace_raises(self):
        from repro.viz import render_trace

        with pytest.raises(ValueError):
            render_trace([])
