"""Property-based tests on predictor contracts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction import FrequencyPredictor, MarkovPredictor

tokens = st.sampled_from(["home", "work", "gym", "thai", "bar"])
corpora = st.lists(st.lists(tokens, min_size=0, max_size=6), min_size=1, max_size=8)
prefixes = st.lists(tokens, min_size=0, max_size=4)


class TestPredictorContracts:
    @given(corpus=corpora, prefix=prefixes, k=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_predictions_come_from_training_vocabulary(self, corpus, prefix, k):
        vocabulary = {t for seq in corpus for t in seq}
        for predictor in (FrequencyPredictor(), MarkovPredictor(1), MarkovPredictor(2)):
            predictor.fit(corpus)
            top = predictor.predict(prefix, k=k)
            assert len(top) <= k
            assert len(set(top)) == len(top)  # no duplicates
            assert set(top) <= vocabulary

    @given(corpus=corpora, prefix=prefixes)
    @settings(max_examples=40, deadline=None)
    def test_top1_is_prefix_of_top3(self, corpus, prefix):
        predictor = MarkovPredictor(1).fit(corpus)
        top1 = predictor.predict(prefix, k=1)
        top3 = predictor.predict(prefix, k=3)
        assert top3[: len(top1)] == top1

    @given(corpus=corpora)
    @settings(max_examples=40, deadline=None)
    def test_frequency_order_matches_counts(self, corpus):
        from collections import Counter

        counts = Counter(t for seq in corpus for t in seq)
        ranked = FrequencyPredictor().fit(corpus).predict([], k=5)
        values = [counts[t] for t in ranked]
        assert values == sorted(values, reverse=True)


class TestTimeBinningProperties:
    @given(st.floats(min_value=0.0, max_value=23.999),
           st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 6.0]))
    @settings(max_examples=80, deadline=None)
    def test_hour_falls_inside_its_bin(self, hour, width):
        from repro.sequences import TimeBinning

        binning = TimeBinning(width)
        b = binning.bin_of_hour(hour)
        lo, hi = binning.bounds(b)
        assert lo <= hour < hi or (b == binning.n_bins - 1 and hour >= lo)

    @given(st.integers(0, 23), st.integers(0, 23))
    @settings(max_examples=60, deadline=None)
    def test_circular_distance_symmetric_and_bounded(self, a, b):
        from repro.mining import FlexibleMatcher
        from repro.sequences import TimedItem

        x, y = TimedItem(a, "x"), TimedItem(b, "x")
        for tol in range(13):
            matcher = FlexibleMatcher(24, tol)
            assert matcher.matches(x, y) == matcher.matches(y, x)
        assert FlexibleMatcher(24, 12).matches(x, y)  # no two bins are over 12 apart
