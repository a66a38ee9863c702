"""Cross-module call resolution and project-level feeds."""

from __future__ import annotations

import ast
import random
import textwrap
from typing import Dict, List

from repro.devtools.callgraph import ProjectAnalysis
from repro.devtools.domains import extract_summary


def project_of(modules: Dict[str, str]) -> ProjectAnalysis:
    files = [
        (f"/x/{key.replace('.', '/')}.py", textwrap.dedent(source), key, False)
        for key, source in modules.items()
    ]
    return ProjectAnalysis.build(files)


def records_of(project: ProjectAnalysis, module_key: str, rule: str) -> List[Dict[str, object]]:
    return [r for r in project.records(module_key) if r["rule"] == rule]


class TestResolution:
    def test_direct_import(self):
        project = project_of(
            {
                "repro.a": "from repro.b import store\ndef f():\n    store()\n",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["name", "store"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_import_alias_and_reexport_chain(self):
        project = project_of(
            {
                "repro.a": "from repro.hub import store as put\ndef f():\n    put()\n",
                "repro.hub": "from repro.b import store\n",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["name", "put"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_module_attribute_call(self):
        project = project_of(
            {
                "repro.a": "from repro import b\ndef f():\n    b.store()\n",
                "repro": "",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["attr", "b", "store"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_dotted_absolute_call(self):
        project = project_of(
            {
                "repro.a": "import repro.b\ndef f():\n    repro.b.store()\n",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["dotted", "repro.b.store"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_constructor_resolves_to_init_bound(self):
        project = project_of(
            {
                "repro.a": (
                    "from repro.b import Point\ndef f():\n    Point(1, 2)\n"
                ),
                "repro.b": (
                    "class Point:\n    def __init__(self, lat, lon):\n"
                    "        self.lat = lat\n"
                ),
            }
        )
        assert project.resolve("repro.a", "f", ["name", "Point"]) == (
            ("repro.b", "Point.__init__"),
            True,
        )

    def test_method_on_local_instance(self):
        project = project_of(
            {
                "repro.a": textwrap.dedent(
                    """
                    from repro.b import Agg

                    def f():
                        agg = Agg()
                        agg.add(1)
                    """
                ),
                "repro.b": textwrap.dedent(
                    """
                    class Agg:
                        def __init__(self):
                            pass

                        def add(self, item_id):
                            pass
                    """
                ),
            }
        )
        assert project.resolve("repro.a", "f", ["attr", "agg", "add"]) == (
            ("repro.b", "Agg.add"),
            True,
        )

    def test_self_dispatch_and_inherited_method(self):
        project = project_of(
            {
                "repro.b": textwrap.dedent(
                    """
                    class Base:
                        def flush(self):
                            pass

                    class Agg(Base):
                        def add(self):
                            self.flush()
                    """
                ),
            }
        )
        assert project.resolve("repro.b", "Agg.add", ["self", "flush"]) == (
            ("repro.b", "Base.flush"),
            True,
        )

    def test_unknown_callee_stays_unresolved(self):
        project = project_of({"repro.a": "def f():\n    mystery()\n"})
        assert project.resolve("repro.a", "f", ["name", "mystery"]) is None


class TestDeadExports:
    def test_unreferenced_export_is_dead(self):
        project = project_of(
            {
                "repro.a": (
                    "__all__ = [\"used\", \"unused\"]\n\n"
                    "def used():\n    pass\n\n\ndef unused():\n    pass\n"
                ),
                "repro.b": "from repro.a import used\ndef f():\n    used()\n",
            }
        )
        (dead,) = records_of(project, "repro.a", "CW604")
        assert dead["name"] == "unused"

    def test_attribute_reference_keeps_export_alive(self):
        project = project_of(
            {
                "repro.a": "__all__ = [\"used\"]\n\ndef used():\n    pass\n",
                "repro.b": "from repro import a\ndef f():\n    a.used()\n",
            }
        )
        assert records_of(project, "repro.a", "CW604") == []


class TestDepKeys:
    MODULES = {
        "repro.a": "from repro.b import store\ndef f(value):\n    store(value)\n",
        "repro.b": (
            "__all__ = [\"load\", \"store\"]\n\n"
            "def load():\n    pass\n\n\ndef store(value):\n    pass\n"
        ),
        "repro.c": "def unrelated():\n    pass\n",
    }

    def test_stable_across_identical_builds(self):
        first = project_of(self.MODULES)
        second = project_of(dict(self.MODULES))
        for key in self.MODULES:
            assert first.dep_key(key) == second.dep_key(key)

    def test_new_use_invalidates_the_used_module_only(self):
        before = project_of(self.MODULES)
        changed = dict(self.MODULES)
        changed["repro.a"] = (
            "from repro.b import load, store\ndef f(value):\n    store(load())\n"
        )
        after = project_of(changed)
        assert [r["name"] for r in records_of(before, "repro.b", "CW604")] == ["load"]
        assert records_of(after, "repro.b", "CW604") == []
        assert before.dep_key("repro.b") != after.dep_key("repro.b")
        assert before.dep_key("repro.c") == after.dep_key("repro.c")


class TestOrderIndependence:
    MODULES = {
        "repro.a": """
            from repro.b import start
            from repro.c import via_c

            __all__ = ["fan_out", "orphan"]


            def fan_out():
                start()
                via_c()


            def orphan():
                return None
            """,
        "repro.b": """
            import threading

            from repro.c import note

            LOCK = threading.Lock()
            CACHE = {}


            def write(key):
                CACHE[key] = 1
                note(key)


            def worker(key):
                with LOCK:
                    write(key)
                write(key)


            def start():
                threading.Thread(target=worker, args=(1,)).start()
            """,
        "repro.c": """
            from repro.d import deep

            SEEN = []


            def note(key):
                SEEN.append(key)
                deep()


            def via_c():
                deep()
            """,
        "repro.d": """
            class Sink:
                def drain(self):
                    return None


            def deep():
                return None
            """,
    }

    @staticmethod
    def observed(project: ProjectAnalysis):
        threads = project.threads()
        records = {key: project.records(key) for key in sorted(project.summaries)}
        domains = {node: sorted(marks) for node, marks in sorted(threads.domains.items())}
        return records, domains

    def test_shuffled_input_gives_identical_records_and_domains(self):
        expected = self.observed(project_of(dict(sorted(self.MODULES.items()))))
        rules = {r["rule"] for records in expected[0].values() for r in records}
        assert {"CW604", "CW701"} <= rules
        assert expected[1][("repro.d", "deep")] == ["thread"]
        for seed in range(8):
            items = list(self.MODULES.items())
            random.Random(seed).shuffle(items)
            assert self.observed(project_of(dict(items))) == expected


class TestSummaryCache:
    def test_build_uses_cached_summaries(self):
        class FakeCache:
            def __init__(self):
                self.store = {}
                self.gets = 0

            def get_summary(self, source, module, is_init):
                self.gets += 1
                return self.store.get((source, module, is_init))

            def put_summary(self, source, module, is_init, summary):
                self.store[(source, module, is_init)] = summary

        cache = FakeCache()
        files = [("/x/a.py", "def f():\n    pass\n", "repro.a", False)]
        first = ProjectAnalysis.build(files, cache=cache)
        assert (first.summaries_built, first.summaries_cached) == (1, 0)
        second = ProjectAnalysis.build(files, cache=cache)
        assert (second.summaries_built, second.summaries_cached) == (0, 1)
        assert second.summaries["repro.a"]["functions"].keys() == {"<module>", "f"}


def test_extract_summary_matches_build_keying():
    source = "def f():\n    pass\n"
    summary = extract_summary(ast.parse(source), "repro.a", "/x/a.py", False)
    project = ProjectAnalysis({"repro.a": summary})
    assert project.resolve("repro.a", "<module>", ["name", "f"]) == (
        ("repro.a", "f"),
        False,
    )
