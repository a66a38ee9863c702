"""Pipeline instrumentation: zero-cost when off, deterministic when on."""

from __future__ import annotations

import pytest

from repro.data import generate, SMALL_CONFIG
from repro.exec import ExecConfig
from repro.experiments import small_pipeline_config
from repro.obs import MetricsRegistry, Observer, get_observer, observed, set_observer
from repro.pipeline import run_pipeline


def _output_fingerprint(result):
    """Everything observable about a run, JSON-shaped for deep equality."""
    return {
        "profiles": {uid: p.to_dict() for uid, p in sorted(result.profiles.items())},
        "timeline": [s.to_dict() for s in result.timeline.snapshots],
    }


def _phase_names(root):
    return [c["name"] for c in root.get("children", ())]


class _SentinelRegistry(MetricsRegistry):
    """Fails the test if any metric is recorded while obs is off."""

    def inc(self, name, value=1, label=""):
        raise AssertionError(f"inc({name!r}) reached the registry while disabled")

    def set_gauge(self, name, value, label=""):
        raise AssertionError(f"set_gauge({name!r}) reached the registry while disabled")

    def observe(self, name, value, label="", buckets=None):
        raise AssertionError(f"observe({name!r}) reached the registry while disabled")


class TestDisabled:
    def test_disabled_run_records_nothing(self, small_ds, pipeline_result):
        """With obs off, no metric call may even reach the registry."""
        sentinel = Observer(enabled=False, registry=_SentinelRegistry())
        previous = set_observer(sentinel)
        try:
            result = run_pipeline(small_ds, small_pipeline_config())
        finally:
            set_observer(previous)
        assert sentinel.tracer.roots() == []
        assert _output_fingerprint(result) == _output_fingerprint(pipeline_result)

    def test_enabled_output_identical_to_disabled(self, small_ds, pipeline_result):
        with observed():
            result = run_pipeline(small_ds, small_pipeline_config())
        assert _output_fingerprint(result) == _output_fingerprint(pipeline_result)


class TestEnabled:
    def test_span_tree_has_one_child_per_phase(self, small_ds):
        with observed() as o:
            run_pipeline(small_ds, small_pipeline_config())
        (root,) = o.tracer.export()
        assert root["name"] == "pipeline.run"
        assert _phase_names(root) == [
            "pipeline.preprocess",
            "pipeline.detect",
            "pipeline.aggregate",
        ]
        detect = root["children"][1]
        assert detect["attrs"]["n_users"] >= 1
        assert detect["attrs"]["n_patterns"] >= 1
        assert root["children"][2]["attrs"]["n_windows"] >= 1
        assert o.registry.counter("repro_pipeline_runs_total") == 1

    def test_obs_config_flag_enables_globally(self, small_ds):
        from dataclasses import replace

        from repro.obs import disable

        assert not get_observer().enabled
        config = replace(small_pipeline_config(), obs=True)
        try:
            run_pipeline(small_ds, config)
            observer = get_observer()
            assert observer.enabled
            assert observer.tracer.last_root().name == "pipeline.run"
        finally:
            disable()

    def test_failed_run_marks_the_span(self, taxonomy):
        from repro.data import CheckInDataset

        empty = CheckInDataset(())
        with observed() as o:
            with pytest.raises(ValueError):
                run_pipeline(empty, small_pipeline_config(), taxonomy)
        (root,) = o.tracer.export()
        assert root["status"] == "error:ValueError"
        assert root["children"][0]["status"] == "error:ValueError"


class TestProcessBackendDeterminism:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(SMALL_CONFIG).dataset

    def _traced_run(self, dataset):
        from dataclasses import replace

        config = replace(
            small_pipeline_config(),
            exec=ExecConfig(workers=2),
        )
        with observed() as o:
            run_pipeline(dataset, config)
        snapshot = o.registry.snapshot()
        # Latency *distributions* vary run to run; which series exist and
        # how many observations each holds must not.
        histogram_counts = {
            name: {label: series[label]["count"] for label in series}
            for name, series in snapshot["histograms"].items()
        }
        return o.tracer.export(), snapshot["counters"], histogram_counts

    def _name_structure(self, span):
        return (span["name"], tuple(self._name_structure(c) for c in span.get("children", ())))

    def test_two_runs_trace_identically(self, dataset):
        trace_a, counters_a, hist_a = self._traced_run(dataset)
        trace_b, counters_b, hist_b = self._traced_run(dataset)
        assert [self._name_structure(r) for r in trace_a] == [
            self._name_structure(r) for r in trace_b
        ]
        assert counters_a == counters_b
        assert hist_a == hist_b
        # Worker processes carry disabled observers, so the per-task exec
        # metrics recorded in the parent are still present and stable.
        assert counters_a["repro_pipeline_runs_total"][""] == 1
