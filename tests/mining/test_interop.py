"""Tests for SPMF-format interop."""

import pytest

from repro.mining import (
    ItemCodec,
    SequentialPattern,
    prefixspan,
    write_spmf_database,
    write_spmf_patterns,
)
from repro.sequences import SequenceDatabase, TimedItem


@pytest.fixture
def db():
    return SequenceDatabase([
        [TimedItem(9, "Work"), TimedItem(12, "Eatery")],
        [TimedItem(9, "Work")],
        [TimedItem(12, "Eatery"), TimedItem(18, "Gym")],
    ])


class TestCodec:
    def test_stable_ids_from_one(self, db):
        codec = ItemCodec.for_database(db)
        assert len(codec) == 3
        ids = [codec.encode(item) for seq in db for item in seq]
        assert min(ids) == 1
        assert max(ids) == 3

    def test_unknown_raises(self, db):
        codec = ItemCodec.for_database(db)
        with pytest.raises(KeyError):
            codec.encode(TimedItem(3, "Nope"))

    def test_deterministic(self, db):
        a = ItemCodec.for_database(db)
        b = ItemCodec.for_database(db)
        assert a.mapping_lines() == b.mapping_lines()


class TestDatabaseWriter:
    def test_written_text(self, db, tmp_path):
        path = tmp_path / "db.spmf"
        codec = write_spmf_database(db, path)
        # Ids follow sorted repr: "bin=12" < "bin=18" < "bin=9".
        assert path.read_text() == "3 -1 1 -1 -2\n3 -1 -2\n1 -1 2 -1 -2\n"
        assert (tmp_path / "db.spmf.dict").read_text() == (
            "1\tTimedItem(bin=12, label='Eatery')\n"
            "2\tTimedItem(bin=18, label='Gym')\n"
            "3\tTimedItem(bin=9, label='Work')\n"
        )
        assert codec.mapping_lines() == (tmp_path / "db.spmf.dict").read_text().splitlines()

    def test_spmf_format_shape(self, db, tmp_path):
        path = tmp_path / "db.spmf"
        write_spmf_database(db, path)
        first = path.read_text().splitlines()[0]
        assert first.endswith("-2")
        assert "-1" in first


class TestPatternWriter:
    def test_written_text(self, db, tmp_path):
        work, eatery, gym = TimedItem(9, "Work"), TimedItem(12, "Eatery"), TimedItem(18, "Gym")
        patterns = [
            SequentialPattern(items=(work, eatery), count=1, support=1 / 3),
            SequentialPattern(items=(work,), count=2, support=2 / 3),
            SequentialPattern(items=(eatery, gym), count=1, support=1 / 3),
            SequentialPattern(items=(eatery,), count=2, support=2 / 3),
        ]
        path = tmp_path / "patterns.txt"
        write_spmf_patterns(patterns, ItemCodec.for_database(db), path)
        # Report order: count desc, length desc, then item reprs.
        assert path.read_text() == (
            "1 -1 #SUP: 2\n"
            "3 -1 #SUP: 2\n"
            "1 -1 2 -1 #SUP: 1\n"
            "3 -1 1 -1 #SUP: 1\n"
        )

    def test_spmf_pattern_line_format(self, db, tmp_path):
        codec = ItemCodec.for_database(db)
        patterns = prefixspan(db, 0.34)
        path = tmp_path / "patterns.txt"
        write_spmf_patterns(patterns, codec, path)
        for line in path.read_text().splitlines():
            assert "#SUP:" in line
