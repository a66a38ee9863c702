"""Unit tests for the v4 thread analysis: facts, roots, domains, locksets.

The extraction level is tested straight off ``ast.parse``; the whole-program
level through :class:`ProjectAnalysis` over small on-disk trees, exactly the
way the engine builds it.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.devtools.callgraph import ProjectAnalysis
from repro.devtools.domains import extract_summary
from repro.devtools.engine import iter_python_files, module_name_for
from repro.devtools.threads import ThreadAnalysis
from tests.devtools.test_threadsafety_rules import leaf_first_lock_chain


def facts_of(source: str) -> Dict[str, object]:
    tree = ast.parse(textwrap.dedent(source))
    return extract_summary(tree, None, "<test>", False)["threads"]


def write_tree(root: Path, modules: Dict[str, str]) -> None:
    root.mkdir(parents=True, exist_ok=True)
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


def build_project(root: Path, modules: Dict[str, str]) -> ProjectAnalysis:
    write_tree(root, modules)
    files = []
    for file_path in iter_python_files([root]):
        files.append(
            (str(file_path), file_path.read_text(), module_name_for(file_path),
             file_path.name == "__init__.py")
        )
    return ProjectAnalysis.build(files)


def analyze(root: Path, modules: Dict[str, str]) -> ThreadAnalysis:
    return build_project(root, modules).threads()


def thread_records(project: ProjectAnalysis, module_key: str) -> List[Dict[str, object]]:
    """The CW7xx records of one module in the project's records table."""
    return [r for r in project.records(module_key) if r["rule"].startswith("CW7")]


class TestExtraction:
    def test_module_inventory(self):
        facts = facts_of(
            """
            import threading

            CACHE = {}
            COUNTS = dict()
            NAME = "x"
            LOCK = threading.Lock()
            """
        )
        assert set(facts["mutable_globals"]) == {"CACHE", "COUNTS"}
        assert facts["locks"] == ["LOCK"]

    def test_with_lock_regions_and_writes(self):
        facts = facts_of(
            """
            import threading

            LOCK = threading.Lock()
            CACHE = {}


            def guarded(key):
                with LOCK:
                    CACHE[key] = 1
                CACHE[key] = 2
            """
        )
        writes = facts["functions"]["guarded"]["writes"]
        assert [(w["sym"], w["held"]) for w in writes] == [
            ("g:CACHE", ["g:LOCK"]),
            ("g:CACHE", []),
        ]

    def test_acquire_release_toggle(self):
        facts = facts_of(
            """
            import threading

            LOCK = threading.Lock()
            CACHE = {}


            def manual(key):
                LOCK.acquire()
                CACHE[key] = 1
                LOCK.release()
                CACHE[key] = 2
            """
        )
        writes = facts["functions"]["manual"]["writes"]
        assert [w["held"] for w in writes] == [["g:LOCK"], []]

    def test_instance_locks_chase_bases(self):
        facts = facts_of(
            """
            import threading


            class Base:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}


            class Derived(Base):
                def put(self, key):
                    with self._lock:
                        self._items[key] = 1
            """
        )
        writes = facts["functions"]["Derived.put"]["writes"]
        assert writes == [
            {"sym": "a:Base:_items", "line": 14, "col": 12, "held": ["a:Base:_lock"]}
        ]

    def test_global_rebind_and_mutating_methods(self):
        facts = facts_of(
            """
            ITEMS = []
            CURRENT = None


            def swap(value):
                global CURRENT
                CURRENT = value
                ITEMS.append(value)
                local = []
                local.append(value)
            """
        )
        syms = [w["sym"] for w in facts["functions"]["swap"]["writes"]]
        assert syms == ["g:CURRENT", "g:ITEMS"]

    def test_spawn_records(self):
        facts = facts_of(
            """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            from repro.exec import ordered_map


            def work(x):
                return x


            def fan_out(items):
                threading.Thread(target=work, daemon=True).start()
                with ThreadPoolExecutor(max_workers=2) as pool:
                    pool.submit(work, 1)
                    pool.map(work, items)
                return ordered_map(work, items)
            """
        )
        spawns = facts["functions"]["fan_out"]["spawns"]
        assert [(s["domain"], s["target"]) for s in spawns] == [
            ("thread", ["name", "work"]),
            ("thread", ["name", "work"]),
            ("thread", ["name", "work"]),
            ("pool", ["name", "work"]),
        ]

    def test_check_then_act_setdefault_shape(self):
        facts = facts_of(
            """
            CACHE = {}


            def fill(key):
                if key not in CACHE:
                    CACHE[key] = []


            def bump(key):
                if key in CACHE:
                    CACHE[key] += 1
            """
        )
        fill_cta, = facts["functions"]["fill"]["cta"]
        assert fill_cta["sym"] == "g:CACHE"
        assert fill_cta["setdefault"] is True
        bump_cta, = facts["functions"]["bump"]["cta"]
        assert bump_cta["setdefault"] is False

    def test_cta_setdefault_refused_for_effectful_values(self):
        facts = facts_of(
            """
            CACHE = {}


            def fill(key):
                if key not in CACHE:
                    CACHE[key] = expensive(key)
            """
        )
        cta, = facts["functions"]["fill"]["cta"]
        assert cta["setdefault"] is False  # eager evaluation would change behaviour

    def test_call_records_carry_held_locks(self):
        facts = facts_of(
            """
            import threading

            LOCK = threading.Lock()


            def slow():
                with LOCK:
                    helper(0.1)
                helper(0.2)
            """
        )
        calls = facts["functions"]["slow"]["calls"]
        assert [(c["sym"], c["held"]) for c in calls] == [
            (["name", "helper"], ["g:LOCK"]),
            (["name", "helper"], []),
        ]


THREAD_TREE = {
    "repro.webapp.serve": """
        import threading

        HITS = {}


        def serve(paths):
            for path in paths:
                threading.Thread(target=handle, args=(path,)).start()


        def handle(path):
            record(path)


        def record(path):
            HITS[path] = HITS.get(path, 0) + 1
        """
}


class TestAnalysis:
    def test_thread_roots_and_domains(self, tmp_path):
        analysis = analyze(tmp_path, THREAD_TREE)
        roots = {(node[1], domain) for node, domain, _via in analysis.roots}
        assert roots == {("handle", "thread")}
        record_node = ("repro.webapp.serve", "record")
        assert analysis.domains[record_node] == {"thread"}

    def test_shared_symbol_and_missing_guard(self, tmp_path):
        project = build_project(tmp_path, THREAD_TREE)
        analysis = project.threads()
        info = analysis.shared["repro.webapp.serve::g:HITS"]
        assert info["guard"] is None
        rules = [r["rule"] for r in thread_records(project, "repro.webapp.serve")]
        assert rules == ["CW701"]

    def test_entry_lock_fixpoint_reaches_callees(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro.webapp.locked": """
                    import threading

                    LOCK = threading.Lock()
                    CACHE = {}


                    def store(key):
                        CACHE[key] = 1


                    def worker(key):
                        with LOCK:
                            store(key)


                    def start():
                        threading.Thread(target=worker, args=(1,)).start()
                    """
            },
        )
        analysis = project.threads()
        store_node = ("repro.webapp.locked", "store")
        assert analysis.entry_locks[store_node] == frozenset({"g:LOCK"})
        # Every write is effectively guarded: nothing to report.
        assert thread_records(project, "repro.webapp.locked") == []
        assert analysis.shared["repro.webapp.locked::g:CACHE"]["guard"] == "g:LOCK"

    def test_entry_locks_converge_past_any_pass_count(self, tmp_path):
        project = build_project(tmp_path, {"repro.webapp.deep": leaf_first_lock_chain(30)})
        entry_locks = project.threads().entry_locks
        for i in range(30):
            assert entry_locks[("repro.webapp.deep", f"c{i:02d}")] == frozenset({"g:LOCK"})
        assert thread_records(project, "repro.webapp.deep") == []

    def test_pool_domain_never_races(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro.webapp.pooled": """
                    from repro.exec import ordered_map

                    TOTALS = {}


                    def work(item):
                        TOTALS[item] = item
                        return item


                    def run(items):
                        return ordered_map(work, items)
                    """
            },
        )
        # Process workers have their own address space — not shared state.
        assert project.threads().shared == {}
        assert thread_records(project, "repro.webapp.pooled") == []

    def test_constructor_writes_exempt(self, tmp_path):
        analysis = analyze(
            tmp_path,
            {
                "repro.webapp.ctor": """
                    import threading


                    class Store:
                        def __init__(self):
                            self.items = {}

                        def start(self):
                            threading.Thread(target=self.run).start()

                        def run(self):
                            self.items["k"] = 1
                    """
            },
        )
        shared = analysis.shared.get("repro.webapp.ctor::a:Store:items")
        assert shared is not None
        functions = [w["node"][1] for w in shared["writes"]]
        assert functions == ["Store.run"]  # __init__ happens-before the escape

    def test_dep_digest_tracks_findings(self, tmp_path):
        clean = dict(THREAD_TREE)
        clean["repro.webapp.serve"] = clean["repro.webapp.serve"].replace(
            "HITS[path] = HITS.get(path, 0) + 1", "return HITS.get(path, 0)"
        )
        buggy = build_project(tmp_path / "a", THREAD_TREE)
        fixed = build_project(tmp_path / "b", clean)
        assert buggy.dep_key("repro.webapp.serve") != fixed.dep_key(
            "repro.webapp.serve"
        )

    @staticmethod
    def _owner_tree(lock: bool) -> Dict[str, str]:
        """``serve(owner: "Server")`` runs in a thread and writes ``owner.hits``."""
        guard = "with {}._lock:" if lock else "if True:"
        return {"repro.webapp.owner": f"""
            import threading


            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = {{}}

                def start(self):
                    threading.Thread(target=serve, args=(self,)).start()

                def reset(self):
                    {guard.format("self")}
                        self.hits.clear()


            def serve(owner: "Server"):
                {guard.format("owner")}
                    owner.hits["/"] = 1
            """}

    def test_writes_through_an_annotated_owner_are_shared_state(self, tmp_path):
        project = build_project(tmp_path, self._owner_tree(lock=False))
        info = project.threads().shared["repro.webapp.owner::a:Server:hits"]
        assert [w["node"][1] for w in info["writes"]] == ["Server.reset", "serve"]
        records = thread_records(project, "repro.webapp.owner")
        assert [(r["rule"], r["function"]) for r in records] == [
            ("CW701", "Server.reset"), ("CW701", "serve")]

    def test_a_lock_taken_through_an_annotated_owner_guards(self, tmp_path):
        project = build_project(tmp_path, self._owner_tree(lock=True))
        info = project.threads().shared["repro.webapp.owner::a:Server:hits"]
        assert info["guard"] == "a:Server:_lock"
        assert thread_records(project, "repro.webapp.owner") == []

    def test_a_rebound_parameter_is_no_owner(self):
        facts = facts_of(
            """
            class Server:
                def __init__(self):
                    self.hits = {}


            def serve(owner: "Server", other: Server, plain):
                other.hits["/"] = 1
                plain.hits["/"] = 1
                owner = plain
                owner.hits["/"] = 1
            """
        )
        writes = facts["functions"]["serve"]["writes"]
        assert [(w["sym"], w["line"]) for w in writes] == [("a:Server:hits", 8)]

    def test_render_lists_roots_and_shared_state(self, tmp_path):
        rendered = analyze(tmp_path, THREAD_TREE).render()
        assert "thread roots (" in rendered
        assert "[thread] repro.webapp.serve:handle" in rendered
        assert "repro.webapp.serve.HITS" in rendered
        assert "guarded_by=<none>" in rendered


class TestRealTree:
    @pytest.fixture(scope="class")
    def analysis(self):
        repo_src = Path(__file__).resolve().parents[2] / "src"
        files = [
            (str(path), path.read_text(encoding="utf-8"), module_name_for(path),
             path.name == "__init__.py")
            for path in iter_python_files([repo_src])
        ]
        return ProjectAnalysis.build(files).threads()

    @pytest.fixture(scope="class")
    def domains(self, analysis):
        return analysis.domains

    def test_request_path_is_in_the_thread_domain(self, domains):
        """No handler-class root: the app's request path is reached from a spawn."""
        for qualname in ("CrowdWebApp.handle", "CrowdWebApp._refresh"):
            assert "thread" in domains[("repro.web.server", qualname)], qualname

    def test_connection_loop_is_in_the_thread_domain(self, domains):
        """The per-connection thread calls the loop directly, not via socketserver."""
        for qualname in ("_ConnectionServer._serve_connection", "_serve"):
            assert domains[("repro.web.server", qualname)] == {"thread"}, qualname

    def test_calls_through_an_annotated_parameter_are_followed(self, domains):
        """``_serve(sock, owner: "CrowdWebServer")`` calls ``owner._unready_response()``."""
        assert domains[("repro.web.server", "CrowdWebServer._unready_response")] == {"thread"}

    def test_the_connection_loop_reads_the_app_its_owner_publishes(self, analysis):
        """``_serve`` reads ``owner._app``, which the build thread writes under ``_app_lock``."""
        info = analysis.shared["repro.web.server::a:CrowdWebServer:_app"]
        assert info["guard"] == "a:CrowdWebServer:_app_lock"
        assert ("repro.web.server", "_serve") in {read["node"] for read in info["reads"]}
