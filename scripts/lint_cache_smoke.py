#!/usr/bin/env python
"""CI smoke: the crowdlint result cache must actually work.

Runs the engine twice over the real tree with a fresh cache directory and
asserts, at the engine level (no interpreter startup noise):

1. the cold run analyzes every file and the warm run analyzes **zero** —
   which also makes the structural work ratio (files analyzed cold vs.
   warm) at least ``MIN_WORK_RATIO``x;
2. the warm run rebuilds no module summaries (the whole-program pass is
   served from the summary cache too);
3. both runs produce identical findings;
4. the whole-program facts ride the cached summaries: a project rebuilt
   warm from the same cache extracts zero summaries and still discovers
   the tree's thread roots from the cached payloads, and fills its records
   table from them.

Work done is counted structurally (files re-analyzed, summaries rebuilt),
never by wall-clock: a loaded CI runner can stall either run arbitrarily,
so timings are printed for humans but carry no assertion.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.devtools.cache import LintCache
from repro.devtools.callgraph import ProjectAnalysis
from repro.devtools.engine import LintEngine, iter_python_files, module_name_for

MIN_WORK_RATIO = 5.0
PATHS = [Path(name) for name in ("src", "tests", "perfbench", "examples", "scripts")]


def _warm_facts_probe(cache: LintCache):
    """Rebuild the whole-program view from the warm cache only.

    Returns ``(summaries_built, missing_facts, thread_roots)`` — the thread
    facts live inside the module summaries, so a warm rebuild must extract
    nothing and still see every spawn site.
    """
    files = []
    for file_path in iter_python_files(PATHS):
        files.append(
            (str(file_path), file_path.read_text(encoding="utf-8"),
             module_name_for(file_path), file_path.name == "__init__.py")
        )
    project = ProjectAnalysis.build(files, cache=cache)
    missing = [
        key
        for key, summary in project.summaries.items()
        if not isinstance(summary.get("threads"), dict)
    ]
    for module_key in project.summaries:
        project.records(module_key)  # every analysis must also run clean off the cache
    return project.summaries_built, missing, len(project.threads().roots)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="crowdlint-smoke-") as tmp:
        cache = LintCache(root=Path(tmp))

        engine = LintEngine()
        t0 = time.perf_counter()
        cold = engine.lint_paths(PATHS, cache=cache)
        cold_s = time.perf_counter() - t0
        cold_stats = engine.last_stats

        t0 = time.perf_counter()
        warm = engine.lint_paths(PATHS, cache=cache)
        warm_s = time.perf_counter() - t0
        warm_stats = engine.last_stats

        facts_rebuilds, facts_missing, thread_roots = _warm_facts_probe(cache)

    ratio = (
        cold_stats.analyzed / warm_stats.analyzed
        if warm_stats.analyzed
        else float("inf")
    )
    print(
        f"cold: {cold_stats.files} files, {cold_stats.analyzed} analyzed, "
        f"{cold_stats.summaries_built} summaries built, {cold_s * 1000:.0f} ms"
    )
    print(
        f"warm: {warm_stats.files} files, {warm_stats.analyzed} analyzed, "
        f"{warm_stats.cache_hits} cache hits, "
        f"{warm_stats.summaries_cached} summaries cached, {warm_s * 1000:.0f} ms"
    )
    print(f"work ratio: {ratio:.1f}x analyzed (timing is informational only)")
    print(
        f"facts: {thread_roots} thread roots from cached facts, "
        f"{facts_rebuilds} summaries rebuilt"
    )

    problems = []
    if facts_rebuilds != 0:
        problems.append(
            f"warm facts probe rebuilt {facts_rebuilds} module summaries"
        )
    if facts_missing:
        problems.append(
            f"{len(facts_missing)} cached summaries lack thread facts "
            f"(e.g. {facts_missing[0]})"
        )
    if thread_roots == 0:
        problems.append("thread analysis found no roots on the real tree")
    if cold_stats.analyzed != cold_stats.files:
        problems.append("cold run did not analyze every file")
    if warm_stats.analyzed != 0:
        problems.append(f"warm run re-analyzed {warm_stats.analyzed} file(s)")
    if warm_stats.cache_hits != warm_stats.files:
        problems.append("warm run was not served entirely from the cache")
    if warm_stats.summaries_built != 0:
        problems.append(
            f"warm run rebuilt {warm_stats.summaries_built} module summaries"
        )
    if [f.as_dict() for f in cold] != [f.as_dict() for f in warm]:
        problems.append("cached findings differ from analyzed findings")
    if ratio < MIN_WORK_RATIO:
        problems.append(
            f"warm relint did {ratio:.1f}x less analysis (need {MIN_WORK_RATIO}x)"
        )
    for problem in problems:
        print(f"lint-cache-smoke: FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("lint-cache-smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
