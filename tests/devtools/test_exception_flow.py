"""Unit tests for the v5 exception-propagation analysis.

Fact extraction is tested straight off ``ast.parse``; the may-raise
fixpoint through :class:`ProjectAnalysis` over small on-disk trees, the
way the engine builds it.  The fixpoint cases the issue calls out —
recursion cycle, re-raise, ``finally`` — each get their own oracle.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict

from repro.devtools.callgraph import ProjectAnalysis
from repro.devtools.domains import extract_summary
from repro.devtools.engine import iter_python_files, module_name_for
from repro.devtools.exceptions import ExceptionAnalysis


def facts_of(source: str) -> Dict[str, object]:
    tree = ast.parse(textwrap.dedent(source))
    return extract_summary(tree, None, "<test>", False)["exceptions"]


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


def analyze(root: Path, modules: Dict[str, str]) -> ExceptionAnalysis:
    write_tree(root, modules)
    files = []
    for file_path in iter_python_files([root]):
        files.append(
            (str(file_path), file_path.read_text(), module_name_for(file_path),
             file_path.name == "__init__.py")
        )
    return ProjectAnalysis.build(files).exceptions()


class TestExtraction:
    def test_raise_and_handler_facts(self):
        facts = facts_of(
            """
            def f(x):
                try:
                    if x:
                        raise ValueError("bad")
                except KeyError:
                    pass
                except Exception as exc:
                    log(exc)
            """
        )
        record = facts["functions"]["f"]
        (raised,) = record["raises"]
        assert raised["type"] == "ValueError"
        assert raised["guards"] == [[0, 1]]  # both handlers guard the body
        assert record["handlers"] == [["KeyError"], ["Exception"]]

    def test_project_class_hierarchy_collected(self):
        facts = facts_of(
            """
            class BoundaryError(ValueError):
                pass
            """
        )
        assert facts["classes"]["BoundaryError"] == ["ValueError"]

    def test_bare_raise_marks_reraise(self):
        facts = facts_of(
            """
            def f():
                try:
                    g()
                except Exception:
                    raise
            """
        )
        (raised,) = facts["functions"]["f"]["raises"]
        assert raised["type"] is None
        assert raised["handler"] == 0  # re-raises what handler 0 received


class TestFixpoint:
    def test_propagation_across_modules(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.mining.deep": """
                    def fail():
                        raise ValueError("boom")
                    """,
                "repro.mining.top": """
                    from repro.mining.deep import fail


                    def call():
                        return fail()
                    """,
            },
        )
        assert analysis.may_raise("repro.mining.top", "call") == {"ValueError"}

    def test_recursion_cycle_converges(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.mining.loop": """
                    def ping(n):
                        if n < 0:
                            raise IndexError(n)
                        return pong(n - 1)


                    def pong(n):
                        return ping(n)
                    """
            },
        )
        assert analysis.may_raise("repro.mining.loop", "ping") == {"IndexError"}
        assert analysis.may_raise("repro.mining.loop", "pong") == {"IndexError"}

    def test_forty_deep_chain_reaches_the_handler(self, tmp_path):
        # Callers sort before their callees, so a sorted sweep learns one hop
        # per pass: only a solver without a pass bound reaches the bottom.
        hops = "".join(
            f"def c{i:02d}():\n    return c{i + 1:02d}()\n\n\n" for i in range(39)
        )
        source = (
            "class StaleCellError(ValueError):\n    pass\n\n\n"
            + hops
            + "def c39():\n    raise StaleCellError('stale')\n\n\n"
            "def entry():\n"
            "    try:\n"
            "        return c00()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        root = tmp_path / "tree"
        analysis = analyze(root, {"repro.mining.deep": source})
        assert analysis.may_raise("repro.mining.deep", "c00") == {"StaleCellError"}
        assert analysis.incoming[(("repro.mining.deep", "entry"), 0)] == {"StaleCellError"}
        assert analysis.may_raise("repro.mining.deep", "entry") == frozenset()

    def test_handler_subsumption_stops_subclasses(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.mining.io": """
                    def read():
                        raise FileNotFoundError("gone")


                    def guarded():
                        try:
                            return read()
                        except OSError:
                            return None


                    def mismatched():
                        try:
                            return read()
                        except KeyError:
                            return None
                    """
            },
        )
        assert analysis.may_raise("repro.mining.io", "guarded") == set()
        assert analysis.may_raise("repro.mining.io", "mismatched") == {
            "FileNotFoundError"
        }

    def test_project_exception_subsumed_via_base(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.taxonomy.errors": """
                    class UnknownTagError(KeyError):
                        pass


                    def lookup(tag):
                        raise UnknownTagError(tag)
                    """,
                "repro.taxonomy.use": """
                    from repro.taxonomy.errors import lookup


                    def safe(tag):
                        try:
                            return lookup(tag)
                        except KeyError:
                            return None
                    """,
            },
        )
        assert analysis.may_raise("repro.taxonomy.errors", "lookup") == {
            "UnknownTagError"
        }
        assert analysis.may_raise("repro.taxonomy.use", "safe") == set()

    def test_reraise_propagates_received_types(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.mining.relay": """
                    def fail():
                        raise ValueError("boom")


                    def log_and_reraise():
                        try:
                            return fail()
                        except Exception:
                            note()
                            raise


                    def note():
                        pass
                    """
            },
        )
        assert analysis.may_raise("repro.mining.relay", "log_and_reraise") == {
            "ValueError"
        }

    def test_finally_releases_but_does_not_swallow(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.mining.fin": """
                    def fail():
                        raise RuntimeError("boom")


                    def cleanup():
                        try:
                            return fail()
                        finally:
                            note()


                    def note():
                        pass
                    """
            },
        )
        assert analysis.may_raise("repro.mining.fin", "cleanup") == {"RuntimeError"}

    def test_else_block_is_not_protected_by_its_try(self, tmp_path):
        analysis = analyze(
            tmp_path / "tree",
            {
                "repro.mining.orelse": """
                    def fail():
                        raise ValueError("boom")


                    def f():
                        try:
                            x = 1
                        except ValueError:
                            return None
                        else:
                            return fail()
                    """
            },
        )
        assert analysis.may_raise("repro.mining.orelse", "f") == {"ValueError"}
