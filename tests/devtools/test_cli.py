"""The crowdweb-lint CLI: flags, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.devtools.cli import main
from repro.devtools.engine import all_rules

DIRTY = """\
def labels(items):
    found = {item.label for item in items}
    return list(found)
"""

CLEAN = '"""Clean module."""\n\nX = 1\n'


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY, encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN, encoding="utf-8")
        assert main(["--no-cache", str(tmp_path)]) == 0

    def test_findings_exit_one(self, dirty_file):
        assert main(["--no-cache", str(dirty_file)]) == 1

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main(["--select", "CW999", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestSelectIgnore:
    def test_select_restricts_to_one_rule(self, dirty_file, capsys):
        assert main(["--no-cache", "--select", "CW105", str(dirty_file)]) == 0
        assert main(["--no-cache", "--select", "CW203", str(dirty_file)]) == 1
        assert "CW203" in capsys.readouterr().out

    def test_ignore_drops_the_only_finding(self, dirty_file):
        assert main(["--no-cache", "--ignore", "CW203", str(dirty_file)]) == 0


class TestListRules:
    def test_json_listing_is_the_full_catalog(self, capsys):
        assert main(["--list-rules", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in catalog] == sorted(
            rule.id for rule in all_rules()
        )
        assert all(set(e) == {"id", "name", "description"} for e in catalog)


class TestFormats:
    def test_json_format(self, dirty_file, capsys):
        main(["--no-cache", "--format", "json", str(dirty_file)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["by_rule"] == {"CW203": 1}
        assert payload["findings"][0]["rule"] == "CW203"


class TestCacheFlags:
    def test_cache_dir_is_honoured(self, dirty_file, tmp_path):
        cache_dir = tmp_path / "mycache"
        assert main(["--cache-dir", str(cache_dir), str(dirty_file)]) == 1
        assert list(cache_dir.rglob("*.json"))
