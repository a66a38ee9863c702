"""The autofix engine: golden rewrites, idempotency, safety."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.engine import Edit, Finding, Fix, LintEngine
from repro.devtools.fix import FixResult, apply_fixes, fix_source, unified_diff


def fix(source: str, rule=None, module="repro.web.demo", path="src/repro/web/demo.py"):
    engine = LintEngine(select=[rule] if rule else None)
    result = fix_source(engine, textwrap.dedent(source), path, module)
    assert isinstance(result, FixResult)
    return result


#: (rule, before, after) — one golden pair per fixable rule.
GOLDENS = [
    (
        "CW203",
        """
        def labels(items):
            found = {i.label for i in items}
            return list(found)
        """,
        """
        def labels(items):
            found = {i.label for i in items}
            return list(sorted(found))
        """,
    ),
    (
        "CW203",
        """
        def csv(tags):
            uniq = set(tags)
            return ",".join(uniq)
        """,
        """
        def csv(tags):
            uniq = set(tags)
            return ",".join(sorted(uniq))
        """,
    ),
    (
        "CW401",
        """
        def f(obs):
            obs.inc("repro_web_hits_count", 1)
        """,
        """
        def f(obs):
            obs.inc("repro_web_hits_total", 1)
        """,
    ),
    (
        "CW401",
        """
        def f(obs, elapsed):
            obs.observe("repro_web_render_latency_seconds", elapsed)
        """,
        """
        def f(obs, elapsed):
            obs.observe("repro_web_render_latency_s", elapsed)
        """,
    ),
]


@pytest.mark.parametrize(
    "rule,before,after",
    GOLDENS,
    ids=[f"{rule}-{index}" for index, (rule, _, _) in enumerate(GOLDENS)],
)
def test_golden_rewrite(rule, before, after):
    result = fix(before, rule=rule)
    assert result.source == textwrap.dedent(after)
    assert result.changed


@pytest.mark.parametrize(
    "rule,before,after",
    GOLDENS,
    ids=[f"{rule}-{index}" for index, (rule, _, _) in enumerate(GOLDENS)],
)
def test_fix_is_idempotent(rule, before, after):
    once = fix(before, rule=rule)
    twice = fix(once.source, rule=rule)
    assert twice.source == once.source
    assert twice.applied == 0


def test_clean_source_round_trips_byte_identically():
    source = '"""Module."""\n\n\ndef f(x):\n    return x + 1\n'
    result = fix(source)
    assert result.source == source
    assert not result.changed


def test_all_fixable_rules_fix_in_one_run():
    result = fix(
        """
        import time

        def stamp(obs, items):
            obs.inc("repro_web_stamps_count", 1)
            found = {i.label for i in items}
            return list(found), time.time()
        """
    )
    assert result.applied == 2
    # Both rewrites land, but the wall-clock value in the return path is
    # the unfixable CW202 finding, which correctly survives.
    assert [f.rule_id for f in result.remaining] == ["CW202"]


def test_overlapping_fixes_are_not_combined_in_one_pass():
    source = "abcdef"
    findings = [
        Finding("x.py", 1, 1, "T1", "a", fix=Fix(edits=(Edit(0, 4, "AAAA"),))),
        Finding("x.py", 1, 1, "T2", "b", fix=Fix(edits=(Edit(2, 6, "BBBB"),))),
    ]
    patched, applied = apply_fixes(source, findings)
    assert applied == 1
    assert patched == "AAAAef"


def test_out_of_range_edits_are_dropped():
    findings = [
        Finding("x.py", 1, 1, "T1", "a", fix=Fix(edits=(Edit(0, 99, "Z"),))),
    ]
    patched, applied = apply_fixes("short", findings)
    assert applied == 0
    assert patched == "short"


def test_broken_rewrite_never_escapes():
    class Saboteur:
        """Mimics the engine but attaches a syntax-breaking fix."""

        def lint_source(self, source, path, module):
            if "(" not in source:
                return []
            return [
                Finding(
                    path, 1, 1, "T1", "bad",
                    fix=Fix(edits=(Edit(source.index("("), source.index("(") + 1, "((",),)),
                )
            ]

    result = fix_source(Saboteur(), "x = f(1)\n", "x.py", "")
    assert result.source == "x = f(1)\n"
    assert result.applied == 0


def test_unified_diff_renders_and_is_empty_when_clean():
    assert unified_diff("same\n", "same\n", "x.py") == ""
    diff = unified_diff("a\n", "b\n", "x.py")
    assert "--- a/x.py" in diff and "+++ b/x.py" in diff
    assert "-a" in diff and "+b" in diff
