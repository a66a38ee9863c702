"""CW604 — dead exports (whole-program).

The records behind CW604 come from the project analysis, so these tests also
pin the two things every whole-program rule relies on: the rule is silent
(not crashing) on a per-file run with no project, and a warm cached run
re-analyzes exactly the files whose content or project records changed.
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


class TestProductReach:
    """CW604 counts a use only from a linted file outside ``tests/``."""

    API = {
        "repro.mining.api": """
            __all__ = ["helper"]


            def helper():
                return 1
            """,
    }

    def lint_with(self, root: Path, extra: Dict[str, str]) -> List[Finding]:
        write_tree(root, self.API)
        for relative, source in extra.items():
            target = root / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        return LintEngine(select=["CW604"]).lint_paths([root])

    def test_function_used_only_from_tests_is_reported(self, tmp_path):
        findings = self.lint_with(
            tmp_path,
            {
                "tests/test_api.py": """
                    from repro.mining.api import helper


                    def test_helper():
                        assert helper() == 1
                    """
            },
        )
        assert [(f.rule_id, f.line) for f in findings] == [("CW604", 5)]
        assert "'helper'" in findings[0].message

    def test_function_used_from_examples_is_reached(self, tmp_path):
        findings = self.lint_with(
            tmp_path,
            {
                "examples/demo.py": """
                    from repro.mining.api import helper

                    print(helper())
                    """
            },
        )
        assert findings == []

    def test_a_cached_summary_is_judged_where_the_file_is(self, tmp_path):
        # Loose files outside any package share a summary cache entry when
        # their content is equal; the copy under tools/ is product code.
        use = """
            from repro.mining.api import helper

            print(helper())
            """
        (tmp_path / "tree").mkdir()
        write_tree(tmp_path / "tree", self.API)
        for directory in ("tests", "tools"):
            (tmp_path / "tree" / directory).mkdir()
            (tmp_path / "tree" / directory / "use.py").write_text(textwrap.dedent(use))
        engine = LintEngine(select=["CW604"])
        cache = LintCache(root=tmp_path / "cache")
        assert engine.lint_paths([tmp_path / "tree"], cache=cache) == []
        assert engine.last_stats.summaries_cached == 1

    def test_method_used_only_from_tests_is_reported(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.store": """
                    class Store:
                        def put(self, item):
                            self.item = item

                        def peek(self):
                            return self.item


                    def fill(item):
                        Store().put(item)
                    """,
                "tests.test_store": """
                    from repro.mining.store import Store


                    def test_peek():
                        store = Store()
                        store.put(1)
                        assert store.peek() == 1
                    """,
            },
            select=["CW604"],
        )
        assert [(f.path.endswith("store.py"), f.line) for f in findings] == [(True, 6)]
        assert "'Store.peek'" in findings[0].message

    def test_visitor_methods_and_pragma_keepers_are_not_reported(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.walker": """
                    class Walker:
                        def visit_Call(self, node):
                            return node

                        def snapshot(self):  # crowdlint: disable=CW604 -- read by tests
                            return None


                    def walk(node):
                        return Walker(), node
                    """,
            },
            select=["CW604"],
        )
        assert findings == []


class TestProjectRulesWithoutProject:
    def test_cross_call_rules_noop_on_lint_source(self, lint):
        # lint_source has no project; CW604 must stay silent, not crash.
        findings = lint(
            """
            __all__ = ["orphan"]


            def orphan():
                return 2
            """,
            rule="CW604",
        )
        assert findings == []


class TestWarmRatchet:
    """The dep-key acceptance criterion: a warm run re-analyzes exactly the
    files whose content or project records changed."""

    MODULES = {
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
        "repro.mining.bystander": """
            def quiet():
                return 0
            """,
    }

    def test_dependents_reanalyze_when_their_records_change(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        write_tree(root, self.MODULES)
        cache = LintCache(root=tmp_path / "cache")

        engine = LintEngine(select=["CW604"])
        cold_findings = engine.lint_paths([root], cache=cache)
        assert [f.rule_id for f in cold_findings] == ["CW604"]
        cold = engine.last_stats
        assert isinstance(cold, LintStats)
        assert cold.cache_hits == 0
        assert cold.analyzed == cold.files

        engine = LintEngine(select=["CW604"])
        assert engine.lint_paths([root], cache=cache) == cold_findings
        warm = engine.last_stats
        assert warm.analyzed == 0
        assert warm.cache_hits == warm.files
        assert warm.summaries_cached == warm.files

        # The client starts importing `orphan`: its content changes, and
        # api's records lose the CW604 record although api's source is
        # unchanged — so both re-analyze, and bystander and the package
        # __init__ files must not.
        write_tree(
            root,
            {
                "repro.mining.client": """
                    from repro.mining.api import orphan, used


                    def go():
                        return used() + orphan()
                    """
            },
        )
        engine = LintEngine(select=["CW604"])
        findings = engine.lint_paths([root], cache=cache)
        ratchet = engine.last_stats
        assert ratchet.analyzed == 2  # client + api
        assert ratchet.cache_hits == ratchet.files - 2
        assert findings == []
