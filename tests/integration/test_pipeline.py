"""End-to-end pipeline integration tests."""

import pytest

from repro.data import ActiveUserFilter, small_dataset
from repro.experiments import run_all
from repro.pipeline import PipelineConfig, run_pipeline


class TestPipeline:
    def test_phases_chain(self, pipeline_result, small_ds):
        assert pipeline_result.report is not None
        assert pipeline_result.report.input_checkins == len(small_ds)
        assert pipeline_result.n_users == pipeline_result.dataset.n_users
        assert len(pipeline_result.timeline) == 24

    def test_grid_covers_dataset(self, pipeline_result):
        bbox = pipeline_result.grid.bbox
        for record in pipeline_result.dataset:
            assert bbox.contains_lat_lon(record.lat, record.lon)

    def test_profile_lookup(self, pipeline_result):
        uid = sorted(pipeline_result.profiles)[0]
        assert pipeline_result.profile(uid).user_id == uid
        with pytest.raises(KeyError, match="activity filter"):
            pipeline_result.profile("ghost")

    def test_skip_preprocess(self, pipeline_result):
        inner = pipeline_result.dataset
        config = PipelineConfig(skip_preprocess=True)
        again = run_pipeline(inner, config)
        assert again.report is None
        assert again.dataset.n_users == inner.n_users

    def test_over_strict_filter_raises(self, small_ds):
        config = PipelineConfig(
            window_months=2,
            activity=ActiveUserFilter(min_qualifying_days=10_000),
        )
        with pytest.raises(ValueError, match="removed every record"):
            run_pipeline(small_ds, config)

    def test_deterministic_end_to_end(self, small_ds):
        config = PipelineConfig(window_months=2,
                                activity=ActiveUserFilter(min_qualifying_days=25))
        a = run_pipeline(small_ds, config)
        b = run_pipeline(small_ds, config)
        assert sorted(a.profiles) == sorted(b.profiles)
        for uid in a.profiles:
            assert a.profiles[uid].patterns == b.profiles[uid].patterns
        for snap_a, snap_b in zip(a.timeline, b.timeline):
            assert snap_a.placements == snap_b.placements


class TestRunAll:
    def test_full_reproduction_artifacts(self, reproduction, reproduction_results):
        # Every experiment family is present, each under its own key.
        assert set(reproduction_results) == {
            "dataset_stats", "preprocess", "crowd_views", "crowd_shift", "sweep_rows",
            "fig6_counts", "fig8_lengths", "ablations", "crowd_forecast", "communities",
            "ground_truth", "event_detection", "prediction", "dbscan_rnn", "claims",
        }
        assert set(reproduction_results["ablations"]) == {
            "abstraction", "bin_width", "cell_size", "day_kind", "time_tolerance",
        }
        assert len(reproduction_results["sweep_rows"]) == 5
        assert (reproduction / "report.html").stat().st_size > 10_000

    def test_results_deterministic(self, tmp_path, reproduction):
        out = run_all(tmp_path / "again", scale="small")
        again = (out.output_dir / "results.json").read_text()
        assert again == (reproduction / "results.json").read_text()

    def test_supplied_dataset_skips_generator_families(self, tmp_path, small_ds):
        out = run_all(tmp_path / "given", dataset=small_ds, include_prediction=False)
        assert {"ground_truth", "event_detection", "dbscan_rnn", "prediction"}.isdisjoint(
            out.results)
        assert "ground_truth_precise" not in out.results["claims"]
        assert all(out.results["claims"].values())

    def test_unknown_scale_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scale"):
            run_all(tmp_path / "x", scale="galactic")


class TestRunAllWithPrediction:
    def test_prediction_reports_present(self, reproduction_results):
        for payload in reproduction_results["prediction"].values():
            reports = payload["reports"]
            assert {"frequency", "markov-1", "markov-2", "rnn", "pattern-based"} <= set(reports)
            for row in reports.values():
                assert 0.0 <= row["acc@1"] <= row["acc@3"] <= 1.0


class TestPipelineVariants:
    def test_weekday_conditioned_pipeline(self, small_ds):
        from repro.data import ActiveUserFilter

        config = PipelineConfig(window_months=2,
                                activity=ActiveUserFilter(min_qualifying_days=25),
                                day_kind="weekday")
        result = run_pipeline(small_ds, config)
        assert result.n_users > 0
        # Weekday profiles cover at most as many days as unconditioned ones.
        all_config = PipelineConfig(window_months=2,
                                    activity=ActiveUserFilter(min_qualifying_days=25))
        all_result = run_pipeline(small_ds, all_config)
        for uid, profile in result.profiles.items():
            assert profile.n_days <= all_result.profiles[uid].n_days

    def test_two_hourly_pipeline(self, small_ds):
        from repro.data import ActiveUserFilter
        from repro.sequences import TWO_HOURLY

        config = PipelineConfig(window_months=2,
                                activity=ActiveUserFilter(min_qualifying_days=25),
                                binning=TWO_HOURLY)
        result = run_pipeline(small_ds, config)
        assert len(result.timeline) == 12
        for snap in result.timeline:
            for p in snap.placements:
                assert 0 <= p.bin < 12
