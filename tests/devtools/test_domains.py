"""The coordinate-axis classifier and the module summaries."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.devtools.domains import axis_of, extract_summary


def summarize(source: str, module: str = "repro.mod"):
    tree = ast.parse(textwrap.dedent(source))
    return extract_summary(tree, module, f"{module.replace('.', '/')}.py", False)


class TestSeedClassifiers:
    @pytest.mark.parametrize(
        "name, axis",
        [
            ("lat", "lat"),
            ("min_lon", "lon"),
            ("start_latitude", "lat"),
            ("lng", "lon"),
            ("lat1", "lat"),
            ("velocity", None),
            ("lat_lon_pair", None),  # mentions both axes: refuse to guess
        ],
    )
    def test_axis_of(self, name, axis):
        assert axis_of(name) == axis


class TestSummaryExtraction:
    def test_method_and_constructor_syms(self):
        summary = summarize(
            """
            class Agg:
                def add(self, item_id):
                    self.flush(item_id)

            def use():
                agg = Agg()
                agg.add(7)
            """
        )
        calls = summary["threads"]["functions"]
        assert [c["sym"] for c in calls["Agg.add"]["calls"]] == [["self", "flush"]]
        assert ["attr", "agg", "add"] in [c["sym"] for c in calls["use"]["calls"]]
        assert summary["functions"]["use"]["ctors"]["agg"] == ["name", "Agg"]

    def test_rebound_locals_are_never_chased(self):
        summary = summarize(
            """
            def f():
                g = first
                g = second
                made = g()
            """
        )
        assert summary["functions"]["f"]["ctors"]["made"] == ["name", "g"]

    def test_exports_and_imports(self):
        summary = summarize(
            """
            from repro.geo import haversine_m as hav
            import repro.mining

            __all__ = ["lookup"]

            def lookup():
                return hav()
            """
        )
        assert summary["exports"] == ["lookup"]
        assert summary["imports"]["hav"] == ["symbol", "repro.geo", "haversine_m"]
        assert summary["imports"]["repro"] == ["module", "repro"]
