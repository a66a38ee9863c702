"""The finding baseline — the ratchet that lets CI fail on *new* findings."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.devtools.baseline import (
    BASELINE_VERSION,
    finding_signature,
    load_baseline,
    new_findings,
    snapshot,
    write_baseline,
)
from repro.devtools.cli import main
from repro.devtools.engine import Finding


def finding(path="src/a.py", line=3, rule="CW501", message="list scan in loop"):
    return Finding(path, line, 1, rule, message)


class TestSignatures:
    def test_signature_ignores_the_line_number(self):
        assert finding_signature(finding(line=3)) == finding_signature(finding(line=40))

    def test_signature_separates_rule_path_and_message(self):
        base = finding_signature(finding())
        assert finding_signature(finding(path="src/b.py")) != base
        assert finding_signature(finding(rule="CW104")) != base
        assert finding_signature(finding(message="other")) != base

    def test_snapshot_counts_duplicate_signatures(self):
        payload = snapshot([finding(line=3), finding(line=9)])
        assert payload["version"] == BASELINE_VERSION
        assert list(payload["entries"].values()) == [2]


class TestLoadAndFilter:
    def test_missing_file_is_an_empty_baseline(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_malformed_file_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("not json")
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_version_mismatch_raises(self, tmp_path):
        stale = tmp_path / "baseline.json"
        stale.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError):
            load_baseline(stale)

    def test_round_trip_suppresses_recorded_findings(self, tmp_path):
        path = tmp_path / "baseline.json"
        known = [finding(), finding(rule="CW604", message="dead export")]
        assert write_baseline(path, known) == 2
        fresh, suppressed = new_findings(known, load_baseline(path))
        assert fresh == []
        assert suppressed == 2

    def test_overflow_beyond_the_recorded_count_is_new(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [finding(line=3)])
        fresh, suppressed = new_findings(
            [finding(line=3), finding(line=41)], load_baseline(path)
        )
        assert suppressed == 1
        assert [f.line for f in fresh] == [41]


DIRTY_SOURCE = """
    def dedupe(rows):
        out = []
        for row in rows:
            if row in out:
                continue
            out.append(row)
        return out
"""


class TestCliRatchet:
    def write_tree(self, root, extra=""):
        (root / "mod.py").write_text(textwrap.dedent(DIRTY_SOURCE) + extra)

    def test_update_then_ratchet_passes(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        self.write_tree(tree)
        baseline = tmp_path / "baseline.json"
        argv = [str(tree), "--no-cache", "--baseline", str(baseline)]

        assert main(argv + ["--update-baseline"]) == 0
        assert load_baseline(baseline)  # the CW501 got recorded
        assert main(argv) == 0
        assert "suppressed" in capsys.readouterr().err

    def test_new_finding_fails_and_is_the_only_one_reported(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        self.write_tree(tree)
        baseline = tmp_path / "baseline.json"
        argv = [str(tree), "--no-cache", "--baseline", str(baseline)]
        assert main(argv + ["--update-baseline"]) == 0

        self.write_tree(tree, extra="\n\ndef shared(seen=[]):\n    return seen\n")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "CW104" in out
        assert "CW501" not in out  # baselined finding stays suppressed

    def test_update_baseline_requires_baseline(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        self.write_tree(tree)
        assert main([str(tree), "--no-cache", "--update-baseline"]) == 2
