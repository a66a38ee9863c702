"""CW6xx — interprocedural id-domain/units rules: oracle and parity tests.

The seeded-bug fixtures are the acceptance oracle for the whole-program
layer: a cross-module id-domain bug routed through one pass-through
intermediary and a cross-call lat/lon swap must both be detected, and their
clean twins — identical shape, correct domains — must produce zero findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine
from repro.devtools.cache import LintCache
from repro.devtools.engine import LintStats


def write_tree(root: Path, modules: Dict[str, str]) -> None:
    for dotted, source in modules.items():
        parts = dotted.split(".")
        directory = root
        for part in parts[:-1]:
            directory = directory / part
            directory.mkdir(exist_ok=True)
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
        (directory / f"{parts[-1]}.py").write_text(textwrap.dedent(source))


def lint_tree(root: Path, modules: Dict[str, str], **kwargs) -> List[Finding]:
    write_tree(root, modules)
    return LintEngine(**kwargs).lint_paths([root])


SEEDED_ID_BUG = {
    "repro.mining.lookup": """
        from repro.mining.relay import relay


        def lookup(user_id):
            return relay(user_id)
        """,
    "repro.mining.relay": """
        from repro.mining.store import store


        def relay(value):
            return store(value)
        """,
    "repro.mining.store": """
        def store(microcell_id):
            return microcell_id
        """,
}

#: Identical call shape, but the value really is a microcell id.
CLEAN_ID_TWIN = {
    key: source.replace("user_id", "microcell_id")
    for key, source in SEEDED_ID_BUG.items()
}

SEEDED_LATLON_SWAP = {
    "repro.mining.geo": """
        def project(lat, lon):
            return lat + lon
        """,
    "repro.mining.plot": """
        from repro.mining.geo import project


        def place(venue):
            return project(venue.lon, venue.lat)
        """,
}

CLEAN_LATLON_TWIN = {
    "repro.mining.geo": SEEDED_LATLON_SWAP["repro.mining.geo"],
    "repro.mining.plot": """
        from repro.mining.geo import project


        def place(venue):
            return project(venue.lat, venue.lon)
        """,
}


class TestOracle:
    def test_seeded_cross_module_id_bug_is_detected(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_ID_BUG)
        assert [f.rule_id for f in findings] == ["CW601"]
        (finding,) = findings
        assert "user id" in finding.message
        assert "microcell id" in finding.message
        assert finding.path.endswith("lookup.py")
        assert finding.severity == "error"

    def test_clean_id_twin_has_zero_findings(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_ID_TWIN) == []

    def test_cross_call_latlon_swap_is_detected(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_LATLON_SWAP)
        assert {f.rule_id for f in findings} == {"CW602"}
        assert len(findings) == 2  # both arguments land on the wrong axis
        assert all(f.path.endswith("plot.py") for f in findings)

    def test_clean_latlon_twin_has_zero_findings(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_LATLON_TWIN) == []


class TestDeepPassThrough:
    def test_thirty_hop_relay_flags_both_entries(self, tmp_path):
        # c00(x) -> ... -> c29(user_id): a sweep in call order learns one hop
        # per pass, so only a solver without a pass bound reaches c00.
        hops = "".join(
            f"def c{i:02d}(x):\n    return c{i + 1:02d}(x)\n\n\n" for i in range(29)
        )
        source = (
            hops
            + "def c29(user_id):\n    return user_id\n\n\n"
            "def entry(cell_id):\n    return c00(cell_id)\n\n\n"
            "def near(cell_id):\n    return c20(cell_id)\n"
        )
        findings = lint_tree(tmp_path, {"repro.mining.chain": source}, select=["CW601"])
        assert [f.rule_id for f in findings] == ["CW601", "CW601"]
        assert ["c00" in findings[0].message, "c20" in findings[1].message] == [True, True]


class TestUnitMismatch:
    def test_degrees_into_meters_parameter(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.dist": """
                    def widen(radius_m):
                        return radius_m * 2
                    """,
                "repro.mining.use": """
                    from repro.mining.dist import widen


                    def run(bearing_deg):
                        return widen(bearing_deg)
                    """,
            },
            select=["CW603"],
        )
        assert [f.rule_id for f in findings] == ["CW603"]
        assert "degrees" in findings[0].message

    def test_naive_datetime_into_aware_parameter(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.window": """
                    def clamp(start_utc):
                        return start_utc
                    """,
                "repro.mining.use": """
                    from repro.mining.window import clamp


                    def run(stamp_naive):
                        return clamp(stamp_naive)
                    """,
            },
            select=["CW603"],
        )
        assert [f.rule_id for f in findings] == ["CW603"]

    def test_matching_units_are_silent(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.dist": """
                    def widen(radius_m):
                        return radius_m * 2
                    """,
                "repro.mining.use": """
                    from repro.mining.dist import widen


                    def run(spacing_m):
                        return widen(spacing_m)
                    """,
            },
            select=["CW603"],
        )
        assert findings == []


class TestDeadExports:
    def test_unreferenced_export_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.api": """
                    __all__ = ["used", "orphan"]


                    def used():
                        return 1


                    def orphan():
                        return 2
                    """,
                "repro.mining.client": """
                    from repro.mining.api import used


                    def go():
                        return used()
                    """,
            },
            select=["CW604"],
        )
        assert [f.rule_id for f in findings] == ["CW604"]
        assert "orphan" in findings[0].message

    def test_pragma_suppresses_intentional_surface(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.api": """
                    # crowdlint: disable-file=CW604 -- public surface for notebooks
                    __all__ = ["orphan"]


                    def orphan():
                        return 2
                    """,
            },
            select=["CW604"],
        )
        assert findings == []


class TestMixedContainerKeys:
    def test_mixed_id_domains_in_one_map(self, lint):
        findings = lint(
            """
            def fuse(counts, user_id, cell_id):
                counts[user_id] = 1
                counts[cell_id] = 2
            """,
            rule="CW605",
        )
        assert [f.rule_id for f in findings] == ["CW605"]

    def test_consistent_keys_are_silent(self, lint):
        findings = lint(
            """
            def tally(counts, user_id, other_user_id):
                counts[user_id] = 1
                counts[other_user_id] = 2
            """,
            rule="CW605",
        )
        assert findings == []

    def test_separate_functions_do_not_mix(self, lint):
        findings = lint(
            """
            def by_user(counts, user_id):
                counts[user_id] = 1

            def by_cell(counts, cell_id):
                counts[cell_id] = 2
            """,
            rule="CW605",
        )
        assert findings == []


class TestProjectRulesWithoutProject:
    def test_cross_call_rules_noop_on_lint_source(self, lint):
        # lint_source has no project; CW601-604 must stay silent, not crash.
        findings = lint(
            """
            def lookup(user_id):
                return user_id
            """,
            rule="CW601",
        )
        assert findings == []


class TestWarmRatchet:
    """The dep-key acceptance criterion: a warm run re-analyzes exactly the
    files whose content or call-graph dependencies changed."""

    MODULES = {
        "repro.mining.caller": """
            from repro.mining.middle import relay


            def go(token):
                return relay(token)
            """,
        "repro.mining.middle": """
            from repro.mining.leaf import store


            def relay(value):
                return store(value)
            """,
        "repro.mining.leaf": """
            def store(slot):
                return slot
            """,
        "repro.mining.bystander": """
            def quiet():
                return 0
            """,
    }

    def test_dependents_reanalyze_when_a_callee_signature_changes(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        write_tree(root, self.MODULES)
        cache = LintCache(root=tmp_path / "cache")

        engine = LintEngine()
        assert engine.lint_paths([root], cache=cache) == []
        cold = engine.last_stats
        assert isinstance(cold, LintStats)
        assert cold.cache_hits == 0
        assert cold.analyzed == cold.files

        engine = LintEngine()
        assert engine.lint_paths([root], cache=cache) == []
        warm = engine.last_stats
        assert warm.analyzed == 0
        assert warm.cache_hits == warm.files
        assert warm.summaries_cached == warm.files

        # Rename leaf's parameter: its signature changes, so middle and
        # caller (whose dep-keys embed it) must re-analyze — bystander and
        # the package __init__ files must not.
        write_tree(
            root,
            {
                "repro.mining.leaf": """
                    def store(microcell_id):
                        return microcell_id
                    """
            },
        )
        engine = LintEngine()
        findings = engine.lint_paths([root], cache=cache)
        ratchet = engine.last_stats
        assert ratchet.analyzed == 3  # leaf + middle + caller
        assert ratchet.cache_hits == ratchet.files - 3
        # And the cross-module check now sees through both hops: nothing is
        # flagged because `token`/`value` carry no conflicting seed...
        assert findings == []

        # ...but a caller that passes a *seeded* wrong id does get caught.
        write_tree(
            root,
            {
                "repro.mining.caller": """
                    from repro.mining.middle import relay


                    def go(user_id):
                        return relay(user_id)
                    """
            },
        )
        engine = LintEngine()
        findings = engine.lint_paths([root], cache=cache)
        assert [f.rule_id for f in findings] == ["CW601"]
