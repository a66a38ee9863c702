"""Invariants of the pipeline's output that hold for any generated world.

Snapshot tests pin one seed; these properties must hold for every seed, so
they run over worlds the synthetic generator builds on the fly.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SMALL_CONFIG, generate, read_foursquare_tsv, write_foursquare_tsv
from repro.experiments import run_all, small_pipeline_config
from repro.mining import ModifiedPrefixSpanConfig
from repro.patterns import detect_all_patterns
from repro.pipeline import run_pipeline

#: A small world: every user is mined, with no activity filter in front.
_WORLD = replace(SMALL_CONFIG, n_users=16)


class TestSupportMonotonicity:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        supports=st.lists(st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]),
                          min_size=2, max_size=2, unique=True).map(sorted),
    )
    @settings(max_examples=15, deadline=None)
    def test_raising_min_support_never_adds_a_pattern(self, taxonomy, seed, supports):
        dataset = generate(replace(_WORLD, seed=seed)).dataset
        low, high = (
            detect_all_patterns(dataset, taxonomy,
                                config=ModifiedPrefixSpanConfig(min_support=s))
            for s in supports
        )
        assert set(high) <= set(low)
        for user_id, profile in high.items():
            assert set(profile.patterns) <= set(low[user_id].patterns), user_id


def _ordered_and_shuffled(dataset, ordered, shuffled):
    """Write ``dataset`` as a TSV to ``ordered``, and its lines shuffled to ``shuffled``."""
    write_foursquare_tsv(dataset, ordered)
    lines = ordered.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(17).shuffle(lines)
    shuffled.write_text("".join(lines), encoding="utf-8")


class TestInputOrderPermutation:
    def test_shuffled_tsv_gives_the_same_pipeline_output(self, small_ds, tmp_path):
        ordered, shuffled = tmp_path / "ordered.tsv", tmp_path / "shuffled.tsv"
        _ordered_and_shuffled(small_ds, ordered, shuffled)

        a, b = (run_pipeline(read_foursquare_tsv(path), small_pipeline_config())
                for path in (ordered, shuffled))
        assert b.profiles == a.profiles
        assert len(b.timeline) == len(a.timeline)
        for x, y in zip(a.timeline, b.timeline):
            assert (y.window, y.placements) == (x.window, x.placements)

    def test_shuffled_tsv_gives_byte_identical_figures(self, small_ds, tmp_path):
        """``results.json`` and every SVG: the store's sort and interning see no order."""
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        ordered, shuffled = tmp_path / "a" / "city.tsv", tmp_path / "b" / "city.tsv"
        _ordered_and_shuffled(small_ds, ordered, shuffled)
        outputs = []
        for path in (ordered, shuffled):
            out = path.parent / "out"
            run_all(out, dataset=read_foursquare_tsv(path), include_prediction=False)
            files = sorted(out.glob("*.svg")) + [out / "results.json"]
            outputs.append({f.name: f.read_bytes() for f in files})
        assert len(outputs[0]) > 1
        assert outputs[1] == outputs[0]
