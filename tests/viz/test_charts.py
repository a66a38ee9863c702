"""Tests for the chart kit."""

import xml.dom.minidom

import pytest

from repro.viz import (
    CATEGORICAL,
    Heatmap,
    Histogram,
    LineChart,
    OTHER,
    categorical_for,
    nice_ticks,
    sequential_color,
)


def parse(svg):
    return xml.dom.minidom.parseString(svg)


class TestNiceTicks:
    def test_covers_range(self):
        ticks = nice_ticks(0.13, 9.7)
        assert ticks[0] <= 0.13
        assert ticks[-1] >= 9.7

    def test_steps_are_125(self):
        ticks = nice_ticks(0, 100)
        step = ticks[1] - ticks[0]
        mantissa = step / (10 ** len(str(int(step))) if step >= 1 else 1)
        assert step in (20, 25, 50, 10)

    def test_degenerate_range(self):
        ticks = nice_ticks(5.0, 5.0)
        assert len(ticks) >= 2
        assert ticks[0] <= 5.0 <= ticks[-1]

    def test_inverted_input_handled(self):
        ticks = nice_ticks(10, 0)
        assert ticks[0] <= 0 and ticks[-1] >= 10

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            nice_ticks(0, 1, target=1)


class TestPalette:
    def test_fixed_slot_assignment(self):
        colors = categorical_for(["x", "y", "z"])
        assert colors["x"] == CATEGORICAL[0]
        assert colors["y"] == CATEGORICAL[1]

    def test_overflow_folds_to_other(self):
        names = [f"n{i}" for i in range(12)]
        colors = categorical_for(names)
        assert colors["n8"] == OTHER
        assert colors["n11"] == OTHER

    def test_sequential_monotone_extremes(self):
        low = sequential_color(0, 0, 10)
        high = sequential_color(10, 0, 10)
        assert low != high
        assert sequential_color(20, 0, 10) == high  # clamped

    def test_sequential_degenerate_range(self):
        assert sequential_color(5, 5, 5)  # no crash, some mid color


class TestLineChart:
    def test_render_valid_svg(self):
        chart = LineChart("T", "x", "y").add_series("s", [1, 2, 3], [4, 5, 6])
        doc = parse(chart.render())
        assert doc.getElementsByTagName("polyline")
        assert len(doc.getElementsByTagName("circle")) == 3

    def test_no_series_raises(self):
        with pytest.raises(ValueError):
            LineChart("T").render()

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            LineChart("T").add_series("s", [1], [1, 2])

    def test_legend_only_for_multiseries(self):
        single = LineChart("T").add_series("only", [1, 2], [1, 2]).render()
        multi = (LineChart("T")
                 .add_series("a", [1, 2], [1, 2])
                 .add_series("b", [1, 2], [2, 1])
                 .render())
        assert ">only</text>" not in single  # no legend text for one series
        assert ">a</text>" in multi and ">b</text>" in multi

    def test_tooltips_on_markers(self):
        svg = LineChart("T").add_series("s", [1], [2]).render()
        assert "<title>s: (1, 2)</title>" in svg


class TestHistogram:
    def test_binning_exact(self):
        hist = Histogram("T", bins=4).add_values([0, 1, 2, 3, 4, 4, 4])
        edges, counts = hist.histogram()
        assert len(edges) == 5
        assert sum(counts) == 7
        assert counts[-1] == 4  # the three 4s plus the boundary value 3

    def test_constant_values(self):
        hist = Histogram("T", bins=5).add_values([2.0] * 10)
        edges, counts = hist.histogram()
        assert sum(counts) == 10

    def test_no_values_raises(self):
        with pytest.raises(ValueError):
            Histogram("T").render()

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            Histogram("T", bins=0)

    def test_renders_with_count_label(self):
        svg = Histogram("T", bins=3).add_values([1, 2, 3]).render()
        parse(svg)
        assert "n=3" in svg


class TestHeatmap:
    def test_valid_grid(self):
        heatmap = Heatmap("T", ["r1", "r2"], ["c1", "c2", "c3"],
                          [[1, 2, 3], [4, 5, 6]])
        doc = parse(heatmap.render())
        cells = [r for r in doc.getElementsByTagName("rect")
                 if r.getElementsByTagName("title")]
        assert len(cells) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Heatmap("T", ["r1"], ["c1"], [[1, 2]])
        with pytest.raises(ValueError):
            Heatmap("T", ["r1", "r2"], ["c1"], [[1]])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Heatmap("T", [], [], []).render()

