"""The claim checks bite, and the paper-scale calibration gate holds."""

import copy
from dataclasses import replace

import pytest

from repro.data import dataset_stats
from repro.experiments import calibration_misses, evaluate_claims, run_all


def test_claims_reevaluate_from_the_written_file(reproduction_results):
    results = {k: v for k, v in reproduction_results.items() if k != "claims"}
    assert evaluate_claims(results) == reproduction_results["claims"]


@pytest.mark.parametrize("claim,family,breaks", [
    ("injected_event_detected", "event_detection",
     lambda r: r["event_detection"].update(event_detected=False)),
    ("forecast_time_lift", "crowd_forecast",
     lambda r: r["crowd_forecast"].update(time_lift=1.2)),
    ("ground_truth_precise", "ground_truth",
     lambda r: r["ground_truth"][0].update(mean_precision=0.5)),
    ("communities_cover_users", "communities",
     lambda r: r["communities"].update(n_covered=r["communities"]["n_covered"] - 1)),
    ("fig5_sequences_fall_steeply", "sweep_rows",
     lambda r: r["sweep_rows"].reverse()),
])
def test_a_falsified_result_fails_its_claim(reproduction_results, claim, family, breaks):
    results = copy.deepcopy(reproduction_results)
    breaks(results)
    assert evaluate_claims(results)[claim] is False


def test_forecast_keeps_users_at_small_scale(reproduction_results):
    """The forecast split uses the run's own window and activity filter."""
    forecast = reproduction_results["crowd_forecast"]
    assert forecast["n_users"] >= 1
    assert forecast["n_days"] >= 1


class TestCalibration:
    @pytest.fixture(scope="class")
    def stats(self, small_ds):
        return dataset_stats(small_ds)

    def test_small_world_misses_every_metric(self, stats):
        misses = calibration_misses(stats)
        assert [m.split(":")[0] for m in misses] == [
            "check-ins", "users", "mean records/user", "median records/user",
        ]

    def test_paper_numbers_pass(self, stats):
        paper = replace(stats, n_checkins=227_428, n_users=1_083,
                        mean_records_per_user=210.0, median_records_per_user=153.0)
        assert calibration_misses(paper) == []

    def test_tolerance_is_ten_percent(self, stats):
        near = replace(stats, n_checkins=int(227_428 * 1.09), n_users=1_083,
                       mean_records_per_user=210.0 * 0.91,
                       median_records_per_user=153.0 * 1.09)
        assert calibration_misses(near) == []
        far = replace(near, n_users=int(1_083 * 1.11))
        assert [m.split(":")[0] for m in calibration_misses(far)] == ["users"]

    def test_paper_scale_run_fails_on_a_miss(self, tmp_path, monkeypatch, small_gen):
        """``run_all(scale="paper")`` refuses an uncalibrated world."""
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner, "generate", lambda config: small_gen)
        with pytest.raises(ValueError, match="misses Table-D"):
            run_all(tmp_path / "paper", scale="paper")
