"""CW7xx — thread-safety rules: seeded oracles and clean twins.

The seeded-bug fixtures are the acceptance oracle for the race detector: an
unguarded shared-dict write reachable from a spawned thread and a
check-then-act on a shared dict must both be detected, and their clean twins
— identical shape, correct locking — must produce zero findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine

CW7XX = ["CW701", "CW703"]


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


def lint_tree(root: Path, modules: Dict[str, str], select=None) -> List[Finding]:
    write_tree(root, modules)
    return LintEngine(select=select or CW7XX).lint_paths([root])


SEEDED_THREAD_BUG = {
    "repro.web.serve": """
        import threading

        HITS = {}


        def serve(paths):
            for path in paths:
                threading.Thread(target=record, args=(path,)).start()


        def record(path):
            HITS[path] = HITS.get(path, 0) + 1
        """
}

#: Identical shape, but every access takes the module lock.
CLEAN_THREAD_TWIN = {
    "repro.web.serve": """
        import threading

        HITS = {}
        _LOCK = threading.Lock()


        def serve(paths):
            for path in paths:
                threading.Thread(target=record, args=(path,)).start()


        def record(path):
            with _LOCK:
                HITS[path] = HITS.get(path, 0) + 1
        """
}


class TestSeededOracles:
    def test_thread_bug_detected(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_THREAD_BUG)
        assert [(f.rule_id, f.line) for f in findings] == [("CW701", 13)]
        assert findings[0].message == (
            "unguarded write to repro.web.serve.HITS in record() — the symbol "
            "is reached from concurrency domains [thread] and no write "
            "ever holds a lock; guard every access with one lock"
        )

    def test_thread_clean_twin_is_silent(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_THREAD_TWIN) == []


class TestCheckThenAct:
    SOURCE = {
        "repro.webapp.cta": """
            import threading

            SESSIONS = {}


            def touch(key):
                if key not in SESSIONS:
                    SESSIONS[key] = []


            def start():
                threading.Thread(target=touch, args=("k",)).start()
            """
    }

    def test_detected_with_setdefault_hint(self, tmp_path):
        findings = lint_tree(tmp_path, self.SOURCE, select=["CW703"])
        assert [(f.rule_id, f.line) for f in findings] == [("CW703", 8)]
        assert findings[0].message == (
            "check-then-act on shared container repro.webapp.cta.SESSIONS in "
            "touch() is not atomic without a lock — apply the setdefault rewrite"
        )

    def test_silent_under_lock(self, tmp_path):
        guarded = {
            "repro.webapp.cta": """
                import threading

                SESSIONS = {}
                LOCK = threading.Lock()


                def touch(key):
                    with LOCK:
                        if key not in SESSIONS:
                            SESSIONS[key] = []


                def start():
                    threading.Thread(target=touch, args=("k",)).start()
                """
        }
        assert lint_tree(tmp_path, guarded, select=["CW703"]) == []


def leaf_first_lock_chain(depth: int) -> str:
    """``c00`` → … → ``c<depth-1>``, defined leaf first; the leaf writes a
    shared dict and every path into ``c00`` holds ``LOCK``."""
    leaf = depth - 1
    hops = "".join(
        f"def c{i:02d}(key):\n    c{i + 1:02d}(key)\n\n\n" for i in range(leaf - 1, -1, -1)
    )
    return (
        "import threading\n\n"
        "LOCK = threading.Lock()\n"
        "STATE = {}\n\n\n"
        f"def c{leaf:02d}(key):\n    STATE[key] = 1\n\n\n"
        + hops
        + "def worker(key):\n    with LOCK:\n        c00(key)\n\n\n"
        "def start():\n"
        "    with LOCK:\n"
        "        c00(0)\n"
        "    threading.Thread(target=worker, args=(1,)).start()\n"
    )


class TestEntryLockConvergence:
    def test_thirty_deep_guarded_chain_is_silent(self, tmp_path):
        # Listed leaf first, each callee is judged before its caller learns
        # its lock: only a solver without a pass bound sees LOCK reach c29.
        modules = {"repro.webapp.deep": leaf_first_lock_chain(30)}
        assert lint_tree(tmp_path, modules) == []


class TestSuppression:
    def test_pragma_suppresses_with_justification(self, tmp_path):
        modules = {
            "repro.webapp.serve": SEEDED_THREAD_BUG["repro.web.serve"].replace(
                "HITS[path] = HITS.get(path, 0) + 1",
                "HITS[path] = HITS.get(path, 0) + 1  "
                "# crowdlint: disable=CW701 -- benign last-write-wins counter",
            )
        }
        assert lint_tree(tmp_path, modules) == []


class TestRealTreeStaysClean:
    def test_repo_src_has_no_cw7xx_findings(self):
        findings = LintEngine(select=CW7XX).lint_paths([Path("src")])
        assert findings == []
