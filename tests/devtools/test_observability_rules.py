"""CW4xx — the observability-conformance pack."""

from __future__ import annotations

from .conftest import rule_ids

MODULE = "repro.web.server"


class TestMetricNameGrammar:
    def test_flags_unknown_unit(self, lint):
        findings = lint(
            'def f(obs):\n    obs.inc("repro_web_hits_count", 1)\n',
            rule="CW401",
            module=MODULE,
        )
        assert rule_ids(findings) == ["CW401"]
        assert "ends in unknown unit 'count'" in findings[0].message

    def test_flags_missing_repro_prefix(self, lint):
        findings = lint(
            'def f(obs):\n    obs.observe("web_latency_s", 0.1)\n',
            rule="CW401",
            module=MODULE,
        )
        assert rule_ids(findings) == ["CW401"]

    def test_flags_uppercase_segments(self, lint):
        findings = lint(
            'def f(obs):\n    obs.inc("repro_web_Hits_total", 1)\n',
            rule="CW401",
            module=MODULE,
        )
        assert rule_ids(findings) == ["CW401"]

    def test_valid_names_are_clean(self, lint):
        findings = lint(
            """
            def f(obs):
                obs.inc("repro_web_requests_total", 1)
                obs.observe("repro_web_render_latency_s", 0.1)
                obs.set_gauge("repro_web_queue_size", 4)
            """,
            rule="CW401",
            module=MODULE,
        )
        assert findings == []

    def test_dynamic_names_are_not_flagged(self, lint):
        findings = lint(
            'def f(obs, name):\n    obs.inc(name, 1)\n',
            rule="CW401",
            module=MODULE,
        )
        assert findings == []

    def test_non_repro_files_are_exempt(self, lint):
        findings = lint(
            'def f(obs):\n    obs.inc("a", 1)\n',
            rule="CW401",
            module="tests.obs.test_runtime",
        )
        assert findings == []
