"""Round-trip and error tests for dataset I/O."""

import csv
import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    CheckIn,
    CheckInDataset,
    Venue,
    load_dataset,
    read_csv,
    read_foursquare_tsv,
    read_jsonl,
    save_dataset,
    write_csv,
    write_foursquare_tsv,
    write_jsonl,
)
from repro.data.records import StoreBuilder, from_epoch_us, to_epoch_us
from repro.geo import GeoPoint

UTC = timezone.utc


@pytest.fixture
def dataset():
    checkins = [
        CheckIn(
            user_id=f"u{i % 3}",
            venue_id=f"v{i % 4}",
            category_id="cat-1",
            category_name="Thai Restaurant",
            lat=40.7 + i * 0.001,
            lon=-74.0 - i * 0.001,
            tz_offset_min=-240,
            timestamp=datetime(2012, 4, 1 + i, 11 + i % 6, 30, 15, tzinfo=UTC),
        )
        for i in range(8)
    ]
    venues = {
        f"v{j}": Venue(f"v{j}", f"Venue {j}", "cat-1", "Thai Restaurant",
                       GeoPoint(40.7, -74.0))
        for j in range(4)
    }
    return CheckInDataset(checkins, venues, name="io-test")


def assert_same_records(a: CheckInDataset, b: CheckInDataset):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.user_id == y.user_id
        assert x.venue_id == y.venue_id
        assert x.category_name == y.category_name
        assert x.timestamp == y.timestamp
        assert x.lat == pytest.approx(y.lat, abs=1e-7)
        assert x.tz_offset_min == y.tz_offset_min


class TestFoursquareTsv:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "data.tsv"
        write_foursquare_tsv(dataset, path)
        loaded = read_foursquare_tsv(path)
        assert_same_records(dataset, loaded)

    def test_real_dump_line_parses(self, tmp_path):
        # Verbatim format of dataset_TSMC2014_NYC.txt.
        line = ("470\t49bbd6c0f964a520f4531fe3\t4bf58dd8d48988d127951735\t"
                "Arts & Crafts Store\t40.719810375488535\t-74.00258103213994\t"
                "-240\tTue Apr 03 18:00:09 +0000 2012\n")
        path = tmp_path / "nyc.txt"
        path.write_text(line)
        ds = read_foursquare_tsv(path)
        (record,) = ds
        assert record.user_id == "470"
        assert record.category_name == "Arts & Crafts Store"
        assert record.timestamp == datetime(2012, 4, 3, 18, 0, 9, tzinfo=UTC)
        assert record.local_time.hour == 14  # UTC-4

    def test_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n")
        with pytest.raises(ValueError, match="expected 8"):
            read_foursquare_tsv(path)

    def test_bad_latitude_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        stamp = "Tue Apr 03 18:00:09 +0000 2012"
        path.write_text(f"u\tv\tc\tCafe\tNOT_A_NUMBER\t-74.0\t-240\t{stamp}\n")
        with pytest.raises(ValueError, match=":1:"):
            read_foursquare_tsv(path)
        # A venue's later line is range-checked too, not only its first.
        for lat, lon, message in [("nan", "-74.0", "latitude nan out of range"),
                                  ("95", "-74.0", "latitude 95.0 out of range"),
                                  ("40.7", "181", "longitude 181.0 out of range")]:
            path.write_text(f"u\tv\tc\tCafe\t40.7\t-74.0\t-240\t{stamp}\n"
                            f"u\tv\tc\tCafe\t{lat}\t{lon}\t-240\t{stamp}\n")
            with pytest.raises(ValueError, match=f":2: malformed record: {message}"):
                read_foursquare_tsv(path)

    def test_blank_lines_skipped(self, dataset, tmp_path):
        path = tmp_path / "data.tsv"
        write_foursquare_tsv(dataset, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_foursquare_tsv(path)) == len(dataset)


def _columns_dataset(time_us, tz_offset_min) -> CheckInDataset:
    """One row per stamp, each its own user, so rows stay in input order."""
    n = len(time_us)
    builder = StoreBuilder()
    builder.add([f"u{i:05d}" for i in range(n)], ["v1"] * n, ["cat-1"] * n, ["Cafe"] * n,
                time_us, tz_offset_min, [40.7 + i * 1e-5 for i in range(n)], [-74.0] * n)
    return CheckInDataset.from_store(builder.build(), {}, "stamps")


def _strftime_tsv(dataset: CheckInDataset) -> str:
    """The dump layout with one ``strftime`` per row: the writer's reference."""
    c = dataset.columns
    users, venues, categories = dataset.user_table, dataset.venue_table, dataset.category_table
    return "".join(
        f"{users[u]}\t{venues[v]}\t{categories[k][0]}\t{categories[k][1]}\t"
        f"{lat:.8f}\t{lon:.8f}\t{tz}\t"
        f"{from_epoch_us(t).astimezone(UTC).strftime('%a %b %d %H:%M:%S %z %Y')}\n"
        for u, v, k, lat, lon, tz, t in zip(
            c.user.tolist(), c.venue.tolist(), c.category.tolist(), c.lat.tolist(),
            c.lon.tolist(), c.tz_offset_min.tolist(), c.time_us.tolist(),
        )
    )


def _us(*args) -> int:
    return to_epoch_us(datetime(*args, tzinfo=UTC))


#: Stamps where a formatter from integer arithmetic could part from ``strftime``.
_EDGE_STAMPS_US = [
    0, -1, 1, 999_999, 1_000_000, -999_999, -1_000_000, -1_000_001,
    _us(1969, 12, 31, 23, 59, 59, 999_999), _us(1969, 7, 20, 20, 17, 40, 500_000),
    _us(1900, 1, 1), _us(1900, 2, 28, 23, 59, 59), _us(1900, 3, 1),
    _us(2000, 2, 29, 12, 0, 0, 1), _us(2012, 2, 29, 23, 59, 59, 999_999),
    _us(2012, 3, 1), _us(2011, 12, 31, 23, 59, 59, 999_999), _us(2012, 1, 1),
    _us(2012, 12, 31, 23, 59, 59), _us(2013, 1, 1, 0, 0, 0, 1),
    _us(2100, 2, 28, 23, 59, 59, 999_999), _us(2100, 3, 1),
    _us(1000, 1, 1), _us(9999, 12, 31, 23, 59, 59, 999_999), _us(2038, 1, 19, 3, 14, 8),
    _us(2012, 4, 3, 18, 0, 9, 123_456),
]


class TestWriterParity:
    """``write_foursquare_tsv`` writes the bytes a per-row ``strftime`` writes."""

    @pytest.mark.parametrize("tz", [0, -240, 330, -1439, 1439])
    def test_edge_stamps_equal_strftime_and_round_trip(self, tmp_path, tz):
        dataset = _columns_dataset(_EDGE_STAMPS_US, [tz] * len(_EDGE_STAMPS_US))
        path = tmp_path / "edges.tsv"
        write_foursquare_tsv(dataset, path)
        assert path.read_text(encoding="utf-8") == _strftime_tsv(dataset)
        loaded = read_foursquare_tsv(path).columns
        seconds = dataset.columns.time_us // 1_000_000
        assert loaded.time_us.tolist() == (seconds * 1_000_000).tolist()
        assert loaded.tz_offset_min.tolist() == [tz] * len(_EDGE_STAMPS_US)

    def test_years_before_1000_equal_strftime(self, tmp_path):
        """``%Y`` does not pad these; the dump reader does not take them back."""
        stamps = [_us(1, 1, 1), _us(5, 3, 1, 1, 2, 3, 4), _us(999, 12, 31, 23, 59, 59)]
        dataset = _columns_dataset(stamps, [0, -60, 60])
        path = tmp_path / "old.tsv"
        write_foursquare_tsv(dataset, path)
        assert path.read_text(encoding="utf-8") == _strftime_tsv(dataset)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=_us(1000, 1, 1), max_value=_us(9999, 12, 31)),
                    min_size=1, max_size=40),
           st.integers(min_value=-1439, max_value=1439))
    def test_random_stamps_equal_strftime(self, tmp_path_factory, time_us, tz):
        dataset = _columns_dataset(time_us, [tz] * len(time_us))
        path = tmp_path_factory.mktemp("stamps") / "random.tsv"
        write_foursquare_tsv(dataset, path)
        assert path.read_text(encoding="utf-8") == _strftime_tsv(dataset)

    def test_empty_dataset_writes_nothing(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_foursquare_tsv(_columns_dataset([], []), path)
        assert path.read_bytes() == b""


def _checkin_csv(dataset: CheckInDataset, path) -> None:
    """The CSV export written one :class:`CheckIn` at a time: the writer's reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "venue_id", "category_id", "category_name", "lat", "lon",
                         "tz_offset_min", "utc_time"])
        for c in dataset:
            writer.writerow([c.user_id, c.venue_id, c.category_id, c.category_name,
                             f"{c.lat:.8f}", f"{c.lon:.8f}", c.tz_offset_min,
                             c.timestamp.astimezone(UTC).isoformat()])


def _checkin_jsonl(dataset: CheckInDataset, path) -> None:
    """The JSONL lines written one :class:`CheckIn` at a time: the writer's reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in dataset:
            fh.write(json.dumps({
                "user_id": c.user_id, "venue_id": c.venue_id, "category_id": c.category_id,
                "category_name": c.category_name, "lat": c.lat, "lon": c.lon,
                "tz_offset_min": c.tz_offset_min,
                "utc_time": c.timestamp.astimezone(UTC).isoformat(),
            }, separators=(",", ":")) + "\n")


def _text_dataset(time_us, tz_offset_min, texts=None, lat=None) -> CheckInDataset:
    """One row per stamp; user, venue and category texts cycle through ``texts``."""
    n = len(time_us)
    texts = texts or ["v1"]
    pick = [texts[i % len(texts)] for i in range(n)]
    builder = StoreBuilder()
    builder.add([f"u{i:05d}" + pick[i] for i in range(n)], pick, pick[::-1], pick,
                time_us, tz_offset_min,
                lat if lat is not None else [40.7 + i * 1e-5 for i in range(n)],
                [-74.0 + i * 0.123456789 for i in range(n)])
    return CheckInDataset.from_store(builder.build(), {}, "texts")


#: Strings ``csv`` must quote and ``json`` must escape, and ones it must not.
_AWKWARD_TEXTS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "tab\there",
                  "caf\u00e9 \u2615", "", " lead", "back\\slash", "\x00nul", "\U0001f600"]


class TestCsvJsonlWriterParity:
    """``write_csv`` and ``write_jsonl`` write the bytes a per-:class:`CheckIn` writer does."""

    def _assert_same(self, dataset, tmp_path):
        for write, reference in ((write_csv, _checkin_csv), (write_jsonl, _checkin_jsonl)):
            ours, theirs = tmp_path / f"ours.{write.__name__}", tmp_path / "reference"
            write(dataset, ours)
            reference(dataset, theirs)
            assert ours.read_bytes() == theirs.read_bytes(), write.__name__

    @pytest.mark.parametrize("tz", [0, -240, 330, -1439, 1439])
    def test_edge_stamps(self, tmp_path, tz):
        self._assert_same(_text_dataset(_EDGE_STAMPS_US, [tz] * len(_EDGE_STAMPS_US)),
                          tmp_path)

    def test_years_before_1000_and_mixed_offsets(self, tmp_path):
        stamps = [_us(1, 1, 1), _us(5, 3, 1, 1, 2, 3, 4), _us(999, 12, 31, 23, 59, 59)]
        self._assert_same(_text_dataset(stamps, [0, -60, 60]), tmp_path)

    def test_texts_that_need_quoting_or_escaping(self, tmp_path):
        n = 3 * len(_AWKWARD_TEXTS)
        stamps = [_us(2012, 4, 3, 18, 0, 9, i) for i in range(n)]
        dataset = _text_dataset(stamps, [(-1) ** i * 7 * i for i in range(n)], _AWKWARD_TEXTS)
        self._assert_same(dataset, tmp_path)

    def test_non_finite_coordinates(self, tmp_path):
        stamps = [_us(2012, 4, 3), _us(2012, 4, 4), _us(2012, 4, 5)]
        dataset = _text_dataset(stamps, [0, 30, -30], lat=[math.nan, math.inf, -math.inf])
        self._assert_same(dataset, tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=_us(1, 1, 1), max_value=_us(9999, 12, 31)),
                              st.integers(min_value=-1439, max_value=1439)),
                    min_size=1, max_size=30),
           st.lists(st.text(max_size=6), min_size=1, max_size=4))
    def test_random_rows(self, tmp_path_factory, rows, texts):
        dataset = _text_dataset([t for t, _ in rows], [tz for _, tz in rows], texts)
        self._assert_same(dataset, tmp_path_factory.mktemp("rows"))

    def test_empty_dataset(self, tmp_path):
        self._assert_same(_text_dataset([], []), tmp_path)


class TestCsv:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(dataset, path)
        assert_same_records(dataset, read_csv(path))

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,venue_id\nu,v\n")
        with pytest.raises(ValueError, match="missing CSV columns"):
            read_csv(path)


class TestJsonl:
    def test_roundtrip_with_sidecar(self, dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(dataset, path)
        assert (tmp_path / "data.jsonl.venues.json").exists()
        loaded = read_jsonl(path)
        assert_same_records(dataset, loaded)
        assert loaded.venues["v0"].name == "Venue 0"

    def test_load_without_sidecar_synthesizes_venues(self, dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(dataset, path)
        (tmp_path / "data.jsonl.venues.json").unlink()
        loaded = read_jsonl(path)
        assert set(loaded.venues) == {c.venue_id for c in dataset}

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match=":1:"):
            read_jsonl(path)


class TestDispatch:
    @pytest.mark.parametrize("ext", [".tsv", ".txt", ".csv", ".jsonl"])
    def test_save_load_roundtrip(self, dataset, tmp_path, ext):
        path = tmp_path / f"data{ext}"
        save_dataset(dataset, path)
        assert_same_records(dataset, load_dataset(path))

    def test_unknown_extension_raises(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            save_dataset(dataset, tmp_path / "data.parquet")
        with pytest.raises(ValueError, match="unsupported"):
            load_dataset(tmp_path / "data.parquet")
