"""Engine-level behavior: registry, suppression, selection, output, discovery."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.devtools import Finding, LintEngine, all_rules, rule_registry
from repro.devtools.cli import main
from repro.devtools.engine import module_name_for


def test_registry_has_every_rule_pack():
    ids = sorted(rule_registry())
    assert ids == [
        # CW1xx: syntactic domain invariants
        "CW101", "CW104", "CW105", "CW108",
        # CW2xx: determinism
        "CW202", "CW203", "CW204",
        # CW3xx: concurrency (fork-safe module init)
        "CW302",
        # CW4xx: observability conformance
        "CW401",
        # CW5xx: hot-path performance
        "CW501", "CW505",
        # CW604: dead exports (whole-program)
        "CW604",
        # CW7xx: thread-safety (whole-program race detection)
        "CW701", "CW703",
    ]
    for rule_cls in all_rules():
        assert rule_cls.name and rule_cls.description


def test_syntax_error_becomes_cw100_finding():
    findings = LintEngine().lint_source("def broken(:\n", path="broken.py")
    assert [f.rule_id for f in findings] == ["CW100"]
    assert "syntax error" in findings[0].message


def test_line_suppression_silences_only_that_line(lint):
    source = """\
    def f(a=[]):  # crowdlint: disable=CW104
        pass

    def g(b=[]):
        pass
    """
    findings = lint(source, rule="CW104")
    assert len(findings) == 1
    assert findings[0].line == 4


def test_disable_all_on_line_and_file_level_suppression(lint):
    assert lint("def f(a=[]): pass  # crowdlint: disable=all\n", rule="CW104") == []
    source = """\
    # crowdlint: disable-file=CW104
    def f(a=[]):
        pass

    def g(b={}):
        pass
    """
    assert lint(source, rule="CW104") == []


def test_pragma_text_inside_strings_is_inert(lint):
    source = '''\
    DOC = """
    # crowdlint: disable-file=CW104
    """

    def f(a=[]):
        pass
    '''
    findings = lint(source, rule="CW104")
    assert [f.rule_id for f in findings] == ["CW104"]


def test_select_and_ignore_filter_rules(lint):
    source = "def f(lat, lon, a=[]):\n    return GeoPoint(lon, lat)\n"
    all_findings = LintEngine().lint_source(source)
    only_104 = LintEngine(select=["CW104"]).lint_source(source)
    without_104 = LintEngine(ignore=["CW104"]).lint_source(source)
    assert {f.rule_id for f in all_findings} == {"CW101", "CW104"}
    assert {f.rule_id for f in only_104} == {"CW104"}
    assert {f.rule_id for f in without_104} == {"CW101"}


def test_findings_sort_stably_and_format(tmp_path):
    finding = Finding("a.py", 3, 7, "CW104", "boom")
    assert finding.format() == "a.py:3:7: CW104 boom"
    assert finding.as_dict()["rule"] == "CW104"
    assert Finding("a.py", 1, 1, "CW101", "x") < finding


def test_module_name_inference(tmp_path):
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "gsp.py").write_text("x = 1\n")
    assert module_name_for(pkg / "gsp.py") == "repro.mining.gsp"
    assert module_name_for(pkg / "__init__.py") == "repro.mining"
    loose = tmp_path / "script.py"
    loose.write_text("x = 1\n")
    assert module_name_for(loose) == "script"


def test_cli_json_output_and_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "count": 0, "by_rule": {}}

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(a=[]):\n    pass\n")
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["by_rule"] == {"CW104": 1}

    assert main([str(tmp_path / "missing_dir")]) == 2
    # a typo'd rule id must be a usage error, not a silent zero-rule pass
    assert main([str(dirty), "--select", "CW999"]) == 2
    assert main([str(dirty), "--ignore", "CW104,NOPE"]) == 2
    assert main([str(dirty), "--ignore", "cw104"]) == 0


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "CW101" in out and "import-layering" in out


def test_module_entry_point_runs():
    repo_root = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
    )
    assert result.returncode == 0
    assert "CW108" in result.stdout
