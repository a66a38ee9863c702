"""CW3xx — the concurrency pack (the exec.ordered_map contract)."""

from __future__ import annotations

from .conftest import rule_ids


class TestForkUnsafeModuleInit:
    def test_flags_module_level_lock(self, lint):
        findings = lint(
            """
            import threading

            _LOCK = threading.Lock()
            """,
            rule="CW302",
            module="repro.crowd.sync",
        )
        assert rule_ids(findings) == ["CW302"]

    def test_flags_module_level_pool_and_open(self, lint):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            POOL = ProcessPoolExecutor()
            LOG = open("log.txt", "a")
            """,
            rule="CW302",
            module="repro.crowd.sync",
        )
        assert rule_ids(findings) == ["CW302", "CW302"]

    def test_flags_import_time_global_seeding(self, lint):
        findings = lint(
            """
            import random

            random.seed(0)
            """,
            rule="CW302",
            module="repro.mining.setup",
        )
        assert rule_ids(findings) == ["CW302"]

    def test_lazy_creation_inside_function_is_clean(self, lint):
        findings = lint(
            """
            import threading

            def lock():
                return threading.Lock()
            """,
            rule="CW302",
            module="repro.crowd.sync",
        )
        assert findings == []

    def test_main_guard_is_exempt(self, lint):
        findings = lint(
            """
            import threading

            if __name__ == "__main__":
                lock = threading.Lock()
            """,
            rule="CW302",
            module="repro.crowd.sync",
        )
        assert findings == []

    def test_non_repro_module_is_exempt(self, lint):
        findings = lint(
            "import threading\n_LOCK = threading.Lock()\n",
            rule="CW302",
            module="tests.conftest",
        )
        assert findings == []
