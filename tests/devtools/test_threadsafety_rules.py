"""CW7xx — thread-safety rules: seeded oracles, clean twins, autofix.

The seeded-bug fixtures are the acceptance oracle for the race detector: an
unguarded shared-dict write reachable from a handler thread and a
check-then-act on a shared dict must both be detected, and their clean twins
— identical shape, correct locking — must produce zero findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine
from repro.devtools.cli import main

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


SEEDED_HANDLER_BUG = {
    "repro.web.serve": """
        from http.server import BaseHTTPRequestHandler

        HITS = {}


        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                record(self.path)


        def record(path):
            HITS[path] = HITS.get(path, 0) + 1
        """
}

#: Identical shape, but every access takes the module lock.
CLEAN_HANDLER_TWIN = {
    "repro.web.serve": """
        import threading

        from http.server import BaseHTTPRequestHandler

        HITS = {}
        _LOCK = threading.Lock()


        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                record(self.path)


        def record(path):
            with _LOCK:
                HITS[path] = HITS.get(path, 0) + 1
        """
}

class TestSeededOracles:
    def test_handler_bug_detected(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_HANDLER_BUG)
        assert [f.rule_id for f in findings] == ["CW701"]
        finding = findings[0]
        assert "HITS" in finding.message
        assert "handler" in finding.message
        assert finding.severity == "error"  # web layer

    def test_handler_clean_twin_is_silent(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_HANDLER_TWIN) == []


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

    def test_detected_with_setdefault_fix(self, tmp_path):
        findings = lint_tree(tmp_path, self.SOURCE, select=["CW703"])
        assert [f.rule_id for f in findings] == ["CW703"]
        fix = findings[0].fix
        assert fix is not None
        path = tmp_path / "repro" / "webapp" / "cta.py"
        source = path.read_text()
        edit, = fix.edits
        patched = source[: edit.start] + edit.replacement + source[edit.end :]
        assert "SESSIONS.setdefault(key, [])" in patched
        assert "if key not in SESSIONS" not in patched
        compile(patched, str(path), "exec")  # the rewrite stays valid Python

    def test_cli_fix_applies_the_rewrite(self, tmp_path, capsys):
        # CW703 is a project rule: the per-file re-lint inside --fix cannot
        # see it, so the CLI must seed the fixer from a whole-program run.
        write_tree(tmp_path, self.SOURCE)
        assert main(["--select", "CW703", "--fix", str(tmp_path)]) == 0
        assert "fixed 1 finding(s)" in capsys.readouterr().err
        patched = (tmp_path / "repro" / "webapp" / "cta.py").read_text()
        assert "SESSIONS.setdefault(key, [])" in patched
        assert "if key not in SESSIONS" not in patched
        # idempotent: a second run has nothing left to do
        assert main(["--select", "CW703", "--fix", str(tmp_path)]) == 0
        assert "fixed 0 finding(s)" in capsys.readouterr().err

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


class TestSeverityAndSuppression:
    def test_warning_outside_concurrent_layers(self, tmp_path):
        modules = {
            "repro.mining.serve": SEEDED_HANDLER_BUG["repro.web.serve"]
        }
        findings = lint_tree(tmp_path, modules)
        assert [f.rule_id for f in findings] == ["CW701"]
        assert findings[0].severity == "warning"

    def test_pragma_suppresses_with_justification(self, tmp_path):
        modules = {
            "repro.webapp.serve": SEEDED_HANDLER_BUG["repro.web.serve"].replace(
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
