"""CW801 — resource lifetimes judged with the may-raise fixpoint.

The seeded fixtures are the acceptance oracle for the v5 analysis: a
leak-on-exception file handle and a never-closed one must both be detected
— and their clean twins (identical shape, correct lifecycle) must produce
zero findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine
from repro.devtools.cache import LintCache
from repro.devtools.engine import LintStats

CW8XX = ["CW801"]


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
    return LintEngine(select=select or CW8XX).lint_paths([root])


#: A raising callee, a leak-on-exception handle, and a never-closed handle.
SEEDED_LEAKS = {
    "repro.webapp.leaky": """
        def risky():
            raise ValueError("boom")


        def leak_file(path):
            handle = open(path)
            data = handle.read()
            risky()
            handle.close()
            return data


        def never_closed(path):
            handle = open(path)
            return len(handle.read().split())
        """
}

#: Identical shapes with correct lifecycles: ``with`` for one handle,
#: ``finally`` for the other.
CLEAN_LEAK_TWIN = {
    "repro.webapp.leaky": """
        def risky():
            raise ValueError("boom")


        def leak_file(path):
            with open(path) as handle:
                data = handle.read()
                risky()
            return data


        def closed_in_finally(path):
            handle = open(path)
            try:
                return len(handle.read().split())
            finally:
                handle.close()
        """
}


class TestSeededOracles:
    def test_leak_pack_fires_exactly_once_per_seed(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_LEAKS)
        by_rule = sorted((f.rule_id, f.line) for f in findings)
        assert [rule for rule, _ in by_rule] == [
            "CW801",  # leak_file: handle lost if risky() raises
            "CW801",  # never_closed: handle never released at all
        ]
        assert "ValueError" in findings[0].message
        assert "never released" in findings[1].message

    def test_leak_clean_twin_is_silent(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_LEAK_TWIN) == []


class TestLifetimeJudgment:
    def test_escaped_handle_is_the_callers_problem(self, tmp_path):
        modules = {
            "repro.webapp.give": """
                def provide(path):
                    handle = open(path)
                    return handle
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW801"]) == []

    def test_release_after_non_raising_calls_is_fine(self, tmp_path):
        modules = {
            "repro.webapp.calm": """
                def count(path):
                    handle = open(path)
                    data = handle.read()
                    handle.close()
                    return len(data)
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW801"]) == []

    def test_early_return_between_acquire_and_release(self, tmp_path):
        modules = {
            "repro.webapp.early": """
                def peek(path, skip):
                    handle = open(path)
                    if skip:
                        return None
                    data = handle.read()
                    handle.close()
                    return data
                """
        }
        findings = lint_tree(tmp_path, modules, select=["CW801"])
        assert [f.rule_id for f in findings] == ["CW801"]
        assert "return" in findings[0].message


class TestSuppression:
    def test_pragma_suppresses_with_justification(self, tmp_path):
        modules = {
            "repro.webapp.leaky": SEEDED_LEAKS["repro.webapp.leaky"].replace(
                "handle = open(path)\n            return len",
                "handle = open(path)  "
                "# crowdlint: disable=CW801 -- handed to the GC on purpose\n"
                "            return len",
            )
        }
        findings = lint_tree(tmp_path, modules, select=["CW801"])
        # only the un-pragma'd leak_file acquisition remains
        assert len(findings) == 1


class TestWarmCacheDependents:
    MODULES = {
        "repro.webapp.io": """
            def fetch(path):
                with open(path) as handle:
                    return handle.read()
            """,
        "repro.webapp.use": """
            from repro.webapp.io import fetch


            def load(path):
                handle = open(path)
                data = fetch(handle.read())
                handle.close()
                return data
            """,
        "repro.webapp.bystander": """
            def quiet():
                return 0
            """,
    }

    def test_leaf_raise_reanalyzes_only_dependents(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        write_tree(root, self.MODULES)
        cache = LintCache(root=tmp_path / "cache")

        engine = LintEngine(select=CW8XX)
        assert engine.lint_paths([root], cache=cache) == []
        cold = engine.last_stats
        assert isinstance(cold, LintStats)
        assert cold.cache_hits == 0

        engine = LintEngine(select=CW8XX)
        assert engine.lint_paths([root], cache=cache) == []
        warm = engine.last_stats
        assert warm.analyzed == 0
        assert warm.cache_hits == warm.files

        # The leaf gains a raise: its may-raise summary changes, so the
        # caller (whose dep-key embeds it) must re-analyze and now leaks —
        # the bystander and package __init__ files must stay cache hits.
        write_tree(
            root,
            {
                "repro.webapp.io": """
                    def fetch(path):
                        raise OSError(path)
                    """
            },
        )
        engine = LintEngine(select=CW8XX)
        findings = engine.lint_paths([root], cache=cache)
        ratchet = engine.last_stats
        assert ratchet.analyzed == 2  # io + use
        assert ratchet.cache_hits == ratchet.files - 2
        assert [f.rule_id for f in findings] == ["CW801"]
        assert findings[0].path.endswith("use.py")


class TestRealTreeStaysClean:
    def test_repo_src_has_no_cw8xx_findings(self):
        findings = LintEngine(select=CW8XX).lint_paths([Path("src")])
        assert findings == []
