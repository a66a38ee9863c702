"""Tests for profile persistence."""

import json

import pytest

from repro.crowd import CrowdAggregator
from repro.persistence import SCHEMA_VERSION, load_profiles, save_profiles


class TestRoundtrip:
    def test_profiles_survive(self, pipeline_result, tmp_path):
        path = save_profiles(pipeline_result.profiles, tmp_path / "profiles.json")
        loaded = load_profiles(path)
        assert set(loaded) == set(pipeline_result.profiles)
        for uid, original in pipeline_result.profiles.items():
            restored = loaded[uid]
            assert restored.patterns == original.patterns
            assert restored.n_days == original.n_days
            assert restored.level == original.level
            assert restored.binning.width_hours == original.binning.width_hours

    def test_crowd_layer_rebuilds_identically(self, pipeline_result, tmp_path):
        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        loaded = load_profiles(path)
        aggregator = CrowdAggregator(
            loaded,
            pipeline_result.dataset,
            pipeline_result.grid,
            pipeline_result.taxonomy,
            binning=pipeline_result.config.binning,
        )
        rebuilt = aggregator.timeline()
        for a, b in zip(rebuilt, pipeline_result.timeline):
            assert a.placements == b.placements

    def test_nested_output_dir_created(self, pipeline_result, tmp_path):
        path = save_profiles(pipeline_result.profiles,
                             tmp_path / "deep" / "dir" / "p.json")
        assert path.exists()


class TestErrors:
    def test_empty_collection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_profiles({}, tmp_path / "p.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid"):
            load_profiles(path)

    def test_wrong_schema(self, pipeline_result, tmp_path):
        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        doc = json.loads(path.read_text())
        doc["schema"] = SCHEMA_VERSION + 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported profile schema"):
            load_profiles(path)

    def test_corrupted_patterns(self, pipeline_result, tmp_path):
        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        doc = json.loads(path.read_text())
        first = next(iter(doc["profiles"].values()))
        if first["patterns"]:
            first["patterns"][0]["count"] = "many"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="malformed"):
                load_profiles(path)

    def test_mixed_binnings_rejected(self, pipeline_result, tmp_path):
        from repro.patterns import UserPatternProfile
        from repro.sequences import TimeBinning

        mixed = dict(pipeline_result.profiles)
        mixed["odd"] = UserPatternProfile("odd", (), 5, binning=TimeBinning(2.0))
        with pytest.raises(ValueError, match="share one binning"):
            save_profiles(mixed, tmp_path / "p.json")


class TestAtomicity:
    """A crashed save can never truncate or corrupt an existing file."""

    def test_failed_save_keeps_old_document(self, pipeline_result, tmp_path,
                                            monkeypatch):
        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        before = path.read_text()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.persistence.json.dump", explode)
        with pytest.raises(OSError, match="disk full"):
            save_profiles(pipeline_result.profiles, path)
        assert path.read_text() == before
        assert load_profiles(path)  # still a complete, valid document

    def test_failed_save_leaves_no_temp_files(self, pipeline_result, tmp_path,
                                              monkeypatch):
        target = tmp_path / "p.json"

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.persistence.json.dump", explode)
        with pytest.raises(OSError):
            save_profiles(pipeline_result.profiles, target)
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_no_temp_files(self, pipeline_result, tmp_path):
        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
