"""Tests for the prediction evaluation harness."""

from repro.prediction import (
    FrequencyPredictor,
    MarkovPredictor,
    compare_predictors,
    evaluate_predictor,
)


SEQUENCES = [
    ["home", "work", "lunch", "work"],
    ["home", "work", "lunch", "work"],
    ["home", "work", "lunch", "work"],
    ["home", "work", "lunch", "work"],
    ["home", "work", "lunch", "work"],
    ["home", "work", "lunch", "work"],
]


class TestEvaluate:
    def test_perfectly_regular_user_high_accuracy(self):
        report = evaluate_predictor(MarkovPredictor(1), SEQUENCES, train_frac=0.67)
        assert report.n_examples == 6  # 2 test days x 3 transitions
        assert report.accuracy_at_1 == 1.0
        assert report.accuracy_at_3 == 1.0

    def test_frequency_weaker_than_markov_here(self):
        markov = evaluate_predictor(MarkovPredictor(1), SEQUENCES)
        freq = evaluate_predictor(FrequencyPredictor(), SEQUENCES)
        assert markov.accuracy_at_1 >= freq.accuracy_at_1

    def test_accuracy_at_3_at_least_at_1(self):
        report = evaluate_predictor(FrequencyPredictor(), SEQUENCES)
        assert report.accuracy_at_3 >= report.accuracy_at_1

    def test_no_test_examples(self):
        report = evaluate_predictor(MarkovPredictor(1), [["a", "b"]])
        assert report.n_examples == 0
        assert report.accuracy_at_1 == 0.0

    def test_as_row(self):
        row = evaluate_predictor(MarkovPredictor(1), SEQUENCES).as_row()
        assert set(row) == {"predictor", "n_examples", "acc@1", "acc@3"}


class TestCompare:
    def test_micro_average_across_users(self):
        by_user = {"u1": SEQUENCES, "u2": SEQUENCES}
        reports = compare_predictors(
            {"freq": FrequencyPredictor, "markov": lambda: MarkovPredictor(1)},
            by_user,
        )
        assert set(reports) == {"freq", "markov"}
        assert reports["markov"].n_examples == 12
        assert reports["markov"].accuracy_at_1 == 1.0

    def test_empty_users(self):
        reports = compare_predictors({"freq": FrequencyPredictor}, {})
        assert reports["freq"].n_examples == 0
