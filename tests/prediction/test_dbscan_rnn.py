"""Tests for GPS-trace simulation and the DBSCAN+RNN pipeline (ref [10])."""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.data.synth import TraceConfig, simulate_traces
from repro.prediction import DBSCANRNNConfig, DBSCANRNNPipeline
from repro.sequences import detect_stay_points


@pytest.fixture(scope="module")
def world(small_gen):
    agent = max(small_gen.agents, key=lambda a: a.checkin_prob)
    return small_gen, agent


@pytest.fixture(scope="module")
def traces(world):
    gen, agent = world
    days = [date(2012, 4, 1) + timedelta(days=i) for i in range(30)]
    return simulate_traces([agent], gen.city, days, gen.config, seed=3)[agent.user_id]


class TestTraceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"sample_interval_s": 0},
        {"walking_speed_mps": 0},
        {"gps_noise_m": -1},
        {"dwell_minutes_mean": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TraceConfig(**kwargs)


class TestDayTrace:
    def test_chronological_fixes(self, traces):
        for fixes in traces.values():
            times = [f.timestamp for f in fixes]
            assert times == sorted(times)

    def test_fixes_near_city(self, world, traces):
        gen, _ = world
        bbox = gen.city.bbox.expand(0.01)
        for fixes in traces.values():
            for f in list(fixes)[:50]:
                assert bbox.contains_lat_lon(f.lat, f.lon)

    def test_dense_sampling(self, traces):
        lengths = [len(fixes) for fixes in traces.values()]
        assert np.mean(lengths) > 50  # dwells alone give dozens of fixes

    def test_deterministic_given_seed(self, world):
        gen, agent = world
        days = [date(2012, 4, 2)]
        a = simulate_traces([agent], gen.city, days, gen.config, seed=9)
        b = simulate_traces([agent], gen.city, days, gen.config, seed=9)
        fa = a.get(agent.user_id, {}).get(days[0], [])
        fb = b.get(agent.user_id, {}).get(days[0], [])
        assert [(f.lat, f.lon) for f in fa] == [(f.lat, f.lon) for f in fb]

    def test_stay_points_recoverable(self, traces):
        """Dwells must be long/tight enough for the stay-point detector."""
        day = max(traces, key=lambda d: len(traces[d]))
        stays = detect_stay_points(traces[day], 150.0, 15 * 60.0)
        assert len(stays) >= 2


class TestPipeline:
    @pytest.fixture(scope="class")
    def fitted(self, traces):
        train = {d: traces[d] for d in sorted(traces)[:22]}
        return DBSCANRNNPipeline(
            DBSCANRNNConfig(rnn_epochs=10, seed=2)
        ).fit(train), {d: traces[d] for d in sorted(traces)[22:]}

    def test_finds_significant_places(self, fitted):
        pipe, _ = fitted
        assert 2 <= pipe.n_places <= 40

    def test_day_sequences_tokenized(self, fitted):
        pipe, _ = fitted
        assert pipe._day_sequences
        for tokens in pipe._day_sequences.values():
            assert all(0 <= t < pipe.n_places for t in tokens)
            # No immediate repeats after dedup.
            assert all(a != b for a, b in zip(tokens, tokens[1:]))

    def test_predict_next_returns_centers(self, fitted):
        pipe, test = fitted
        some_day = sorted(test)[0]
        predictions = pipe.predict_next(list(test[some_day])[:40], k=3)
        assert 1 <= len(predictions) <= 3
        for p in predictions:
            assert any(p.fast_distance_to(c) < 1.0 for c in pipe.cluster_centers)

    def test_evaluation_reports(self, fitted):
        pipe, test = fitted
        reports = pipe.evaluate(test)
        assert set(reports) == {"dbscan-rnn", "dbscan-markov"}
        for rep in reports.values():
            assert 0.0 <= rep.accuracy_at_1 <= rep.accuracy_at_3 <= 1.0

    def test_beats_chance(self, fitted):
        """A routinized agent must be predictable above uniform chance."""
        pipe, test = fitted
        reports = pipe.evaluate(test)
        chance = 1.0 / pipe.n_places
        assert reports["dbscan-rnn"].accuracy_at_3 > chance

    def test_unfitted_raises(self):
        pipe = DBSCANRNNPipeline()
        with pytest.raises(RuntimeError):
            pipe.predict_next([])
        with pytest.raises(RuntimeError):
            pipe.evaluate({})

    def test_empty_traces_raise(self):
        with pytest.raises(ValueError, match="no stay points"):
            DBSCANRNNPipeline().fit({date(2012, 4, 1): []})
