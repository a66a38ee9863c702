"""The real tree must be lint-clean, and seeded domain bugs must be caught.

These two tests are the subsystem's acceptance criteria: the first keeps the
repo honest (CI runs the same command), the second keeps the *linter* honest —
if a rule regresses into a no-op, the seeded-bug fixture fails.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintEngine
from repro.devtools.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
#: The linted trees: the product code, its tests, and every product entry
#: point outside the package, whose uses CW604 counts.
LINTED = [REPO_ROOT / name for name in ("src", "tests", "perfbench", "examples", "scripts")]


def test_src_and_tests_trees_are_lint_clean():
    findings = LintEngine().lint_paths(LINTED)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exits_zero_on_the_repo():
    assert main([str(path) for path in LINTED]) == 0


def test_cli_exits_nonzero_on_seeded_domain_bugs(tmp_path, capsys):
    """One seeded bug per rule family; a pack regressing to a no-op fails here."""
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "seeded.py").write_text(
        textwrap.dedent(
            """\
            import threading

            from repro.web import api

            __all__ = ["place", "first_tag", "fanout", "count", "dedupe"]

            _LOCK = threading.Lock()
            _SEEN = {}


            def place(venue):
                return GeoPoint(venue.lon, venue.lat)


            def first_tag(tags):
                return next(iter(set(tags)))


            def _remember(key):
                _SEEN[key] = True


            def fanout(keys):
                for key in keys:
                    threading.Thread(target=_remember, args=(key,)).start()


            def count(obs, venues):
                obs.inc("repro_mining_venues_counted", len(venues))


            def dedupe(rows):
                out = []
                for row in rows:
                    if row not in out:
                        out.append(row)
                return out
            """
        )
    )
    assert main(["--no-cache", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "CW101" in out  # CW1xx: lat/lon swap
    assert "CW108" in out  # CW1xx: forbidden mining -> web import
    assert "CW204" in out  # CW2xx: arbitrary set element
    assert "CW302" in out  # CW3xx: module-level lock
    assert "CW401" in out  # CW4xx: metric name missing its unit segment
    assert "CW501" in out  # CW5xx: list membership inside a loop
    assert "CW604" in out  # whole-program: exports nothing else references
    assert "CW701" in out  # CW7xx: unguarded write from a thread
