"""Value-domain seeding, module summaries, and interprocedural propagation."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.devtools.domains import (
    CONFLICT,
    DomainEnv,
    axis_of,
    dt_domain_of,
    extract_summary,
    id_domain_of,
    seed_domains,
    unit_of,
)


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

    @pytest.mark.parametrize(
        "name, unit",
        [
            ("dist_m", "meters"),
            ("EARTH_RADIUS_M", "meters"),
            ("bearing_deg", "degrees"),
            ("dt_s", "seconds"),
            ("window_ms", "milliseconds"),
            ("radius_km", "kilometers"),
            ("distance", None),
            ("m", None),  # bare suffix with no stem says nothing
        ],
    )
    def test_unit_of(self, name, unit):
        assert unit_of(name) == unit

    @pytest.mark.parametrize(
        "name, domain",
        [
            ("user_id", "user_id"),
            ("owner_user_id", "user_id"),
            ("user_ids", "user_id"),
            ("uid", "user_id"),
            ("microcell_id", "microcell_id"),
            ("cell_id", "microcell_id"),
            ("item_id", "item_id"),
            ("id", None),  # bare id: unknown owner
            ("thread_id", None),  # unknown owner stays unknown
        ],
    )
    def test_id_domain_of(self, name, domain):
        assert id_domain_of(name) == domain

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("ts_utc", "aware"),
            ("created_aware", "aware"),
            ("stamp_naive", "naive"),
            ("timestamp", None),
        ],
    )
    def test_dt_domain_of(self, name, kind):
        assert dt_domain_of(name) == kind

    def test_seed_domains_collects_every_family(self):
        assert seed_domains("user_id") == {"id": "user_id"}
        assert seed_domains("lat") == {"axis": "lat"}
        assert seed_domains("velocity") == {}


class TestSummaryExtraction:
    def test_functions_params_and_returns(self):
        summary = summarize(
            """
            def lookup(user_id, radius_m):
                return user_id
            """
        )
        info = summary["functions"]["lookup"]
        assert info["positional"] == ["user_id", "radius_m"]
        assert info["params"]["user_id"] == {"id": "user_id"}
        assert info["params"]["radius_m"] == {"unit": "meters"}
        assert info["returns"] == [["param", "user_id"]]

    def test_call_records_carry_arg_hints(self):
        summary = summarize(
            """
            def outer(user_id, venue):
                inner(user_id, venue.lat, 3)
            """
        )
        (call,) = summary["calls"]
        assert call["caller"] == "outer"
        assert call["callee"] == ["name", "inner"]
        assert call["args"] == [["param", "user_id"], ["name", "lat"], ["const"]]

    def test_partial_calls_unwrap_with_offset(self):
        summary = summarize(
            """
            from functools import partial

            def run(items):
                task = partial(store, 1, 2)
                task(items)
            """
        )
        (call,) = [c for c in summary["calls"] if c["caller"] == "run"]
        assert call["callee"] == ["name", "store"]
        assert call["offset"] == 2

    def test_method_and_constructor_syms(self):
        summary = summarize(
            """
            class Agg:
                def add(self, item_id):
                    self.flush(item_id)

            def use():
                agg = Agg()
                agg.add(7)
                Agg().add(8)
            """
        )
        callees = {tuple(map(str, c["callee"])) for c in summary["calls"]}
        assert ("self", "flush") in callees
        assert ("attr", "agg", "add") in callees
        assert any(c[0] == "new" for c in (call["callee"] for call in summary["calls"]))
        assert summary["functions"]["use"]["ctors"]["agg"] == ["name", "Agg"]

    def test_rebound_locals_are_never_chased(self):
        summary = summarize(
            """
            def f():
                g = first
                g = second
                g()
            """
        )
        (call,) = summary["calls"]
        assert call["callee"] == ["name", "g"]

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


def solve_pair(caller_src: str, callee_src: str):
    summaries = {
        "repro.a": summarize(caller_src, "repro.a"),
        "repro.b": summarize(callee_src, "repro.b"),
    }

    def resolver(module_key, caller, sym):
        if sym[0] != "name":
            return None
        for key in ("repro.a", "repro.b"):
            if sym[1] in summaries[key]["functions"]:
                return ((key, sym[1]), False)
        return None

    env = DomainEnv()
    env.solve(summaries, resolver)
    return env


class TestDomainPropagation:
    def test_pass_through_param_inherits_expectation(self):
        env = solve_pair(
            """
            def relay(value):
                return store(value)
            """,
            """
            def store(microcell_id):
                return microcell_id
            """,
        )
        assert env.expected_domains(("repro.a", "relay"), "value") == {
            "id": "microcell_id"
        }

    def test_disagreeing_callees_poison_the_slot(self):
        env = solve_pair(
            """
            def relay(value):
                store(value)
                keep(value)
            """,
            """
            def store(microcell_id):
                pass

            def keep(user_id):
                pass
            """,
        )
        ref = ("repro.a", "relay")
        assert env.expected.get(ref, {}).get("value", {}).get("id") == CONFLICT
        assert env.expected_domains(ref, "value") == {}  # conflicts never surface

    def test_seeded_param_is_authoritative(self):
        env = solve_pair(
            """
            def relay(user_id):
                store(user_id)
            """,
            """
            def store(microcell_id):
                pass
            """,
        )
        # The seed survives; the call-site check (not propagation) reports.
        assert env.expected_domains(("repro.a", "relay"), "user_id") == {
            "id": "user_id"
        }

    def test_return_domains_flow_forward(self):
        env = solve_pair(
            """
            def fetch():
                return make()
            """,
            """
            def make():
                return user_id
            """,
        )
        assert env.return_domains(("repro.b", "make")) == {"id": "user_id"}
        assert env.return_domains(("repro.a", "fetch")) == {"id": "user_id"}

    def test_mixed_return_paths_keep_only_agreement(self):
        env = solve_pair(
            """
            def fetch(flag):
                if flag:
                    return user_id
                return item_id
            """,
            """
            def unused():
                pass
            """,
        )
        assert env.return_domains(("repro.a", "fetch")) == {}
