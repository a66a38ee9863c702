"""CW2xx — the determinism pack."""

from __future__ import annotations

from .conftest import rule_ids


class TestWallclockData:
    def test_flags_wallclock_returned_as_data(self, lint):
        findings = lint(
            """
            import time

            def stamp():
                return {"at": time.time()}
            """,
            rule="CW202",
            module="repro.data.records",
        )
        assert rule_ids(findings) == ["CW202"]

    def test_elapsed_time_subtraction_is_clean(self, lint):
        findings = lint(
            """
            import time

            def timed(fn):
                t0 = time.time()
                fn()
                return time.time() - t0
            """,
            rule="CW202",
            module="repro.data.records",
        )
        assert findings == []

    def test_assigned_name_flowing_into_data_is_flagged(self, lint):
        findings = lint(
            """
            import time

            def record():
                now = time.time()
                return {"at": now}
            """,
            rule="CW202",
            module="repro.data.records",
        )
        assert rule_ids(findings) == ["CW202"]

    def test_obs_layer_is_exempt(self, lint):
        source = """
            import time

            def stamp():
                return {"at": time.time()}
            """
        assert lint(source, rule="CW202", module="repro.obs.runtime") == []

    def test_non_repro_files_are_exempt(self, lint):
        findings = lint(
            """
            import time

            def stamp():
                return {"at": time.time()}
            """,
            rule="CW202",
            module="tests.test_something",
        )
        assert findings == []


class TestUnorderedIteration:
    def test_flags_list_over_set(self, lint):
        findings = lint(
            """
            def labels(items):
                found = {i.label for i in items}
                return list(found)
            """,
            rule="CW203",
        )
        assert rule_ids(findings) == ["CW203"]

    def test_flags_join_over_set(self, lint):
        findings = lint(
            """
            def csv(tags):
                uniq = set(tags)
                return ",".join(uniq)
            """,
            rule="CW203",
        )
        assert rule_ids(findings) == ["CW203"]

    def test_flags_for_loop_appending_from_set(self, lint):
        findings = lint(
            """
            def rows(records):
                keys = {r.key for r in records}
                out = []
                for key in keys:
                    out.append(key)
                return out
            """,
            rule="CW203",
        )
        assert rule_ids(findings) == ["CW203"]

    def test_sorted_iteration_is_clean(self, lint):
        findings = lint(
            """
            def labels(items):
                found = {i.label for i in items}
                return sorted(found)
            """,
            rule="CW203",
        )
        assert findings == []

    def test_order_insensitive_sinks_are_clean(self, lint):
        findings = lint(
            """
            def stats(items):
                found = {i.label for i in items}
                return len(found), sum(found), max(found)
            """,
            rule="CW203",
        )
        assert findings == []

    def test_unknown_iterable_is_not_flagged(self, lint):
        findings = lint(
            """
            def passthrough(rows):
                return list(rows)
            """,
            rule="CW203",
        )
        assert findings == []


class TestArbitrarySetElement:
    def test_flags_next_iter_of_set(self, lint):
        findings = lint(
            """
            def first(items):
                uniq = set(items)
                return next(iter(uniq))
            """,
            rule="CW204",
        )
        assert rule_ids(findings) == ["CW204"]

    def test_flags_set_pop(self, lint):
        findings = lint(
            """
            def take(items):
                uniq = set(items)
                return uniq.pop()
            """,
            rule="CW204",
        )
        assert rule_ids(findings) == ["CW204"]

    def test_list_pop_is_clean(self, lint):
        findings = lint(
            """
            def take(items):
                stack = list(items)
                return stack.pop()
            """,
            rule="CW204",
        )
        assert findings == []
