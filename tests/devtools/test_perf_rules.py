"""CW5xx — hot-path performance rules."""

from __future__ import annotations

from .conftest import rule_ids


class TestListMembershipInLoop:
    def test_flags_the_classic_quadratic_dedupe(self, lint):
        findings = lint(
            """
            def dedupe(rows):
                out = []
                for row in rows:
                    if row in out:
                        continue
                    out.append(row)
                return out
            """,
            rule="CW501",
        )
        assert rule_ids(findings) == ["CW501"]

    def test_flags_membership_in_comprehension(self, lint):
        findings = lint(
            """
            def keep(rows):
                banned = ["a", "b"]
                return [row for row in rows if row not in banned]
            """,
            rule="CW501",
        )
        assert rule_ids(findings) == ["CW501"]

    def test_set_membership_is_fine(self, lint):
        findings = lint(
            """
            def dedupe(rows):
                seen = set()
                out = []
                for row in rows:
                    if row in seen:
                        continue
                    seen.add(row)
                    out.append(row)
                return out
            """,
            rule="CW501",
        )
        assert findings == []

    def test_membership_outside_a_loop_is_fine(self, lint):
        findings = lint(
            """
            def has(row):
                allowed = [1, 2, 3]
                return row in allowed
            """,
            rule="CW501",
        )
        assert findings == []

    def test_list_rebound_each_iteration_is_fine(self, lint):
        findings = lint(
            """
            def group(rows):
                for row in rows:
                    batch = list(row)
                    if row in batch:
                        pass
            """,
            rule="CW501",
        )
        assert findings == []


class TestTimedItemInHotLoop:
    def test_flags_construction_in_mining_loop(self, lint):
        findings = lint(
            """
            def expand(bins, label):
                out = []
                for b in bins:
                    out.append(TimedItem(b, label))
                return out
            """,
            rule="CW505",
            module="repro.mining.expand",
        )
        assert rule_ids(findings) == ["CW505"]

    def test_flags_construction_in_crowd_comprehension(self, lint):
        findings = lint(
            """
            from repro.sequences import items

            def widen(hits):
                return [items.TimedItem(h.bin, h.label) for h in hits]
            """,
            rule="CW505",
            module="repro.crowd.widen",
        )
        assert rule_ids(findings) == ["CW505"]

    def test_construction_outside_a_loop_is_fine(self, lint):
        findings = lint(
            """
            def probe(bin_index, label):
                return TimedItem(bin_index, label)
            """,
            rule="CW505",
            module="repro.mining.probe",
        )
        assert findings == []

    def test_cold_layers_are_exempt(self, lint):
        findings = lint(
            """
            def load(rows):
                return [TimedItem(b, l) for b, l in rows]
            """,
            rule="CW505",
            module="repro.persistence",
        )
        assert findings == []

    def test_other_calls_in_hot_loops_are_fine(self, lint):
        findings = lint(
            """
            def tally(rows):
                out = []
                for row in rows:
                    out.append(int(row))
                return out
            """,
            rule="CW505",
            module="repro.mining.tally",
        )
        assert findings == []
