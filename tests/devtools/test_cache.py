"""The per-file result cache: correctness, invalidation, and work avoided.

Every assertion here is structural — files analyzed, cache hits — never
wall-clock, so the suite cannot flake on a loaded 1-CPU runner.  The warm
"5x less work" ratio is over the analyzed counts of a generated many-file
tree (and is in fact infinite: a warm run re-analyzes nothing).
"""

from __future__ import annotations

import pytest

from repro.devtools.cache import LintCache, ruleset_fingerprint
from repro.devtools.engine import LintEngine

FILE_TEMPLATE = '''\
"""Generated fixture module {index}."""


def shared_{index}(seen=[]):
    return seen


def busy_{index}(values):
    out = []
    for value in values:
        for other in values:
            if value < other:
                out.append((value, other))
    return out
'''


@pytest.fixture
def tree(tmp_path):
    """A generated multi-file tree with one finding per file."""
    package = tmp_path / "pkg"
    package.mkdir()
    for index in range(40):
        (package / f"mod_{index:02d}.py").write_text(
            FILE_TEMPLATE.format(index=index), encoding="utf-8"
        )
    return package


def test_warm_run_analyzes_nothing_and_matches_cold(tree, tmp_path):
    cache = LintCache(root=tmp_path / "cache")
    engine = LintEngine()

    cold = engine.lint_paths([tree], cache=cache)
    cold_stats = engine.last_stats
    assert cold_stats.analyzed == cold_stats.files == 40
    assert len(cold) == 40  # one CW104 per generated file

    warm = engine.lint_paths([tree], cache=cache)
    warm_stats = engine.last_stats
    assert warm_stats.analyzed == 0
    assert warm_stats.cache_hits == 40
    assert [f.as_dict() for f in warm] == [f.as_dict() for f in cold]


def test_warm_relint_does_at_least_5x_less_work(tree, tmp_path):
    # Work is measured structurally (files analyzed), never by wall-clock:
    # a loaded CI runner can stall either run arbitrarily, so a timing
    # ratio would flake while proving nothing the analyzed counts don't.
    cache = LintCache(root=tmp_path / "cache")
    engine = LintEngine()

    engine.lint_paths([tree], cache=cache)
    cold_analyzed = engine.last_stats.analyzed
    assert cold_analyzed == 40

    engine.lint_paths([tree], cache=cache)
    warm_analyzed = engine.last_stats.analyzed

    ratio = cold_analyzed / max(warm_analyzed, 1)
    assert ratio >= 5.0, f"warm relint did only {ratio:.1f}x less analysis"
    assert warm_analyzed == 0  # and in fact the warm run re-analyzes nothing


def test_editing_a_file_invalidates_only_that_file(tree, tmp_path):
    cache = LintCache(root=tmp_path / "cache")
    engine = LintEngine()
    engine.lint_paths([tree], cache=cache)

    target = tree / "mod_00.py"
    target.write_text(target.read_text() + "\n\nEXTRA = 1\n", encoding="utf-8")

    engine.lint_paths([tree], cache=cache)
    assert engine.last_stats.analyzed == 1
    assert engine.last_stats.cache_hits == 39


def test_cache_key_includes_module_identity_and_rule_selection():
    cache_key = LintCache.key_for
    source = "x = 1\n"
    assert cache_key(source, "repro.web.a", False) != cache_key(source, "repro.obs.a", False)
    assert cache_key(source, "repro.web.a", False) != cache_key(source, "repro.web.a", True)
    # an --ignore/--select run must not share entries with a full-rule run
    all_rules_key = cache_key(source, "repro.web.a", False, ["CW104", "CW105"])
    assert all_rules_key != cache_key(source, "repro.web.a", False, ["CW104"])
    # ...but rule order must not matter
    assert all_rules_key == cache_key(source, "repro.web.a", False, ["CW105", "CW104"])


def test_fingerprint_change_misses_cleanly(tree, tmp_path):
    root = tmp_path / "cache"
    engine = LintEngine()
    engine.lint_paths([tree], cache=LintCache(root=root, fingerprint="aaaa"))
    engine.lint_paths([tree], cache=LintCache(root=root, fingerprint="bbbb"))
    assert engine.last_stats.analyzed == 40  # nothing served across fingerprints


def test_ruleset_fingerprint_is_stable_within_a_process():
    assert ruleset_fingerprint() == ruleset_fingerprint()


def test_findings_rebind_to_the_current_path(tmp_path):
    cache = LintCache(root=tmp_path / "cache")
    engine = LintEngine()
    # Same file name in two directories: identical content AND identical
    # inferred module name, so the second lint is a hit at a new path.
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    a = tmp_path / "one" / "mod.py"
    b = tmp_path / "two" / "mod.py"
    source = "def shared(seen=[]):\n    return seen\n"
    a.write_text(source, encoding="utf-8")
    b.write_text(source, encoding="utf-8")

    first = engine.lint_paths([a], cache=cache)
    second = engine.lint_paths([b], cache=cache)
    assert engine.last_stats.cache_hits == 1
    assert first[0].path.endswith("one/mod.py")
    assert second[0].path.endswith("two/mod.py")


def test_corrupt_cache_entry_degrades_to_a_miss(tree, tmp_path):
    cache = LintCache(root=tmp_path / "cache")
    engine = LintEngine()
    engine.lint_paths([tree], cache=cache)
    for entry in cache.dir.rglob("*.json"):
        entry.write_text("{not json", encoding="utf-8")
    findings = engine.lint_paths([tree], cache=cache)
    assert engine.last_stats.analyzed == 40
    assert len(findings) == 40
