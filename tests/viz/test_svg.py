"""Tests for the SVG builder."""

import xml.dom.minidom

import pytest

from xml.sax.saxutils import quoteattr

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import SvgCanvas
from repro.viz.svg import _fmt, _sanitize


def parse(svg: str):
    return xml.dom.minidom.parseString(svg)


class TestCanvas:
    def test_empty_document_valid(self):
        doc = parse(SvgCanvas(100, 50).to_string())
        root = doc.documentElement
        assert root.tagName == "svg"
        assert root.getAttribute("width") == "100"

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SvgCanvas(0, 10)

    def test_background_rect(self):
        svg = SvgCanvas(10, 10, background="#fff").to_string()
        assert '<rect' in svg and '#fff' in svg

    def test_shapes_render(self):
        canvas = SvgCanvas(200, 100)
        canvas.line(0, 0, 10, 10, stroke="#000")
        canvas.rect(5, 5, 20, 10, fill="#123456", rx=2)
        canvas.circle(50, 50, 5, fill="#abc")
        canvas.polyline([(0, 0), (5, 5), (10, 0)], stroke="#000")
        canvas.path("M 0 0 L 10 10", stroke="#000")
        canvas.text(10, 20, "hello", fill="#000")
        doc = parse(canvas.to_string())
        for tag in ("line", "rect", "circle", "polyline", "path", "text"):
            assert doc.getElementsByTagName(tag), tag

    def test_tooltip_becomes_title_child(self):
        canvas = SvgCanvas(100, 100)
        canvas.circle(10, 10, 3, fill="#000", tooltip="dot & detail <1>")
        doc = parse(canvas.to_string())
        titles = doc.getElementsByTagName("title")
        assert titles[0].firstChild.data == "dot & detail <1>"

    def test_text_escaped(self):
        canvas = SvgCanvas(100, 100)
        canvas.text(0, 0, "<script>&", fill="#000")
        svg = canvas.to_string()
        assert "<script>" not in svg
        assert "&lt;script&gt;&amp;" in svg

    def test_attribute_quoting(self):
        canvas = SvgCanvas(100, 100)
        canvas.rect(0, 0, 10, 10, fill='va"lue')
        parse(canvas.to_string())  # must not blow up

    def test_groups_must_balance(self):
        canvas = SvgCanvas(100, 100)
        canvas.group()
        with pytest.raises(ValueError, match="unclosed"):
            canvas.to_string()
        canvas.endgroup()
        parse(canvas.to_string())

    def test_endgroup_without_group(self):
        with pytest.raises(ValueError):
            SvgCanvas(10, 10).endgroup()

    def test_rotated_text_has_transform(self):
        canvas = SvgCanvas(100, 100)
        canvas.text(10, 10, "tilt", fill="#000", rotate=-90)
        assert "rotate(-90 10 10)" in canvas.to_string()

    def test_negative_rect_clamped(self):
        canvas = SvgCanvas(100, 100)
        canvas.rect(0, 0, -5, -5, fill="#000")
        doc = parse(canvas.to_string())
        rect = doc.getElementsByTagName("rect")[0]
        assert rect.getAttribute("width") == "0"


class TestEscapingFuzz:
    """Arbitrary text anywhere in the document must keep it well-formed."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    nasty = st.text(max_size=60)

    @given(text=nasty, tooltip=nasty)
    @settings(max_examples=60, deadline=None)
    def test_any_text_yields_valid_xml(self, text, tooltip):
        canvas = SvgCanvas(100, 100)
        canvas.text(5, 5, text, fill="#000")
        canvas.circle(10, 10, 2, fill="#000", tooltip=tooltip)
        canvas.rect(0, 0, 5, 5, fill=f"c{text[:8]}")  # attribute position too
        parse(canvas.to_string())


def per_character_sanitize(text):
    """The character-by-character filter the regex replaced, kept as the spec."""
    c0_invalid = {c for c in range(0x20) if c not in (0x09, 0x0A, 0x0D)}
    return "".join(
        ch for ch in text
        if ord(ch) not in c0_invalid
        and not (0xD800 <= ord(ch) <= 0xDFFF)
        and ord(ch) not in (0xFFFE, 0xFFFF)
    )


class TestSanitize:
    # All of C0, both surrogate bounds and their neighbours, U+FFFD to
    # U+FFFF, and astral characters.
    EDGES = [chr(c) for c in range(0x20)] + [
        " ", "\ud7ff", "\ud800", "\udbff", "\udc00", "\udfff", "\ue000",
        "\ufffd", "\ufffe", "\uffff", "\U00010000", "\U0001f600", "\U0010ffff",
    ]

    @pytest.mark.parametrize("ch", EDGES, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_each_edge_character_matches_the_spec(self, ch):
        assert _sanitize(ch) == per_character_sanitize(ch)
        assert _sanitize(f"a{ch}b") == per_character_sanitize(f"a{ch}b")

    def test_mixed_text_matches_the_spec(self):
        text = "".join(self.EDGES) * 3 + "Café → Park"
        assert _sanitize(text) == per_character_sanitize(text)


def quoteattr_attrs(attrs):
    """Every string attribute through ``quoteattr``: the writer's reference."""
    chunks = []
    for key, value in attrs.items():
        if value is None:
            continue
        name = key.rstrip("_").replace("_", "-")
        if isinstance(value, (int, float)):
            chunks.append(f'{name}="{_fmt(value)}"')
        else:
            chunks.append(f"{name}={quoteattr(_sanitize(str(value)))}")
    return " ".join(chunks)


class TestAttributes:
    """A value with nothing to escape or strip is written as it is, the rest as before."""

    VALUES = ["#2a78d6", "system-ui, sans-serif", "rotate(-90 12 30)", "", "Café → Park",
              "a&b", "a<b", "a>b", 'say "hi"', "it's", "both \" and '", "tab\there",
              "new\nline", "cr\rhere", "nul\x00", "\ud800", "\ufffe", "\uffff", "\U0001f600",
              0, 1, -3, 2.5, 0.125, 1e-9, True, None]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_each_value_equals_quoteattr(self, value):
        attrs = {"fill": value, "stroke_width": value, "class_": value}
        assert SvgCanvas(1, 1)._attrs(attrs) == quoteattr_attrs(attrs)

    @given(st.dictionaries(st.sampled_from(["x", "fill", "font_family", "text_anchor", "d"]),
                           st.one_of(st.text(max_size=12), st.integers(), st.floats(),
                                     st.none())))
    @settings(max_examples=200, deadline=None)
    def test_random_attributes_equal_quoteattr(self, attrs):
        assert SvgCanvas(1, 1)._attrs(attrs) == quoteattr_attrs(attrs)
