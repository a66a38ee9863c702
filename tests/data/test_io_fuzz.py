"""Fuzz/property tests for dataset I/O: malformed input must fail loudly
(ValueError with location info), never crash with anything else; valid
records must round-trip faithfully through every format."""

import dataclasses
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import (
    CheckIn,
    CheckInDataset,
    load_dataset,
    read_csv,
    read_foursquare_tsv,
    read_jsonl,
    save_dataset,
)
from repro.data import io as data_io

UTC = timezone.utc

# Identifier-ish text without the characters that delimit any format.
ident = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters="-_",
    ),
    min_size=1,
    max_size=12,
)

checkins = st.builds(
    CheckIn,
    user_id=ident,
    venue_id=ident,
    category_id=ident,
    category_name=ident,
    lat=st.floats(min_value=-89.0, max_value=89.0),
    lon=st.floats(min_value=-179.0, max_value=179.0),
    tz_offset_min=st.integers(min_value=-720, max_value=720),
    timestamp=st.integers(min_value=0, max_value=3 * 10**9).map(
        lambda s: datetime(2012, 1, 1, tzinfo=UTC) + timedelta(seconds=s % (300 * 86400))
    ),
)

datasets = st.lists(checkins, min_size=1, max_size=12).map(CheckInDataset)


class TestRoundtripProperty:
    @pytest.mark.parametrize("ext", [".tsv", ".csv", ".jsonl"])
    @given(ds=datasets)
    @settings(max_examples=25, deadline=None)
    def test_random_datasets_roundtrip(self, ds, ext, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / f"data{ext}"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(ds)
        for a, b in zip(ds, loaded):
            assert a.user_id == b.user_id
            assert a.venue_id == b.venue_id
            assert a.lat == pytest.approx(b.lat, abs=1e-7)
            # TSV keeps second precision; timestamps agree to the second.
            assert abs((a.timestamp - b.timestamp).total_seconds()) < 1.0


class TestGarbageRejection:
    @given(garbage=st.text(max_size=200))
    @example(garbage="\n")  # a chunk of blank lines only
    @settings(max_examples=40, deadline=None)
    def test_tsv_reader_raises_valueerror_only(self, garbage, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "garbage.tsv"
        path.write_text(garbage, encoding="utf-8")
        try:
            ds = read_foursquare_tsv(path)
        except ValueError as exc:
            assert "garbage.tsv" in str(exc)  # location info present
        else:
            # Only whitespace-only input parses (as an empty dataset).
            assert len(ds) == 0

    @given(garbage=st.text(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_jsonl_reader_raises_valueerror_only(self, garbage, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "garbage.jsonl"
        path.write_text(garbage, encoding="utf-8")
        try:
            ds = read_jsonl(path)
        except ValueError:
            pass
        else:
            assert len(ds) == 0

    @given(garbage=st.text(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_csv_reader_raises_valueerror_only(self, garbage, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "garbage.csv"
        path.write_text(garbage, encoding="utf-8")
        try:
            ds = read_csv(path)
        except ValueError:
            pass
        else:
            assert len(ds) == 0

    def test_truncated_real_file(self, tmp_path, small_ds):
        """Cutting a valid file mid-record still fails cleanly."""
        path = tmp_path / "data.tsv"
        save_dataset(small_ds.filter_users(small_ds.user_ids()[:2]), path)
        content = path.read_text()
        path.write_text(content[: len(content) // 2 - 7])
        with pytest.raises(ValueError):
            read_foursquare_tsv(path)


# ---------------------------------------------------------------- timestamps

DUMP_FORMAT = "%a %b %d %H:%M:%S %z %Y"


def strptime_parse(raw):
    """The reference parse: the reader's fallback, on its own."""
    return datetime.strptime(raw.strip(), DUMP_FORMAT).astimezone(UTC)


def outcome(parse, raw):
    """What a parse does with ``raw``: its value, or its exception."""
    try:
        value = parse(raw)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return value, value.tzinfo is UTC


def read_outcome(path):
    """Records (every field) or the error of one TSV read."""
    try:
        ds = read_foursquare_tsv(path)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return [(dataclasses.astuple(c), c.timestamp.tzinfo is UTC) for c in ds]


def strptime_read_outcome(path):
    """:func:`read_outcome` with the reader parsing through ``strptime`` only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_parse_foursquare_time", strptime_parse)
        return read_outcome(path)


offsets = st.integers(min_value=-(24 * 60 - 1), max_value=24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)
stamps = st.builds(
    lambda naive, tz: naive.replace(tzinfo=tz).strftime(DUMP_FORMAT),
    st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31)),
    offsets,
)

ARABIC_INDIC_DIGITS = {ord("0") + d: 0x0660 + d for d in range(10)}

# One edit each, turning a dump timestamp into a near-miss of the layout.
NEAR_MISSES = {
    "lowercase weekday": lambda s: s[:3].lower() + s[3:],
    "uppercase month": lambda s: s[:4] + s[4:7].upper() + s[7:],
    "single-digit day": lambda s: s[:8] + s[9:],
    "space-padded day": lambda s: s[:8] + " " + s[9:],
    "hour 24": lambda s: s[:11] + "24:00:00" + s[19:],
    "second 60": lambda s: s[:17] + "60" + s[19:],
    "unknown month": lambda s: s[:4] + "Abc" + s[7:],
    "non-ASCII digits": lambda s: s.translate(ARABIC_INDIC_DIGITS),
    "fullwidth digit": lambda s: s[:8] + "\uff10" + s[9:],
    "offset minutes 60": lambda s: s[:23] + "60" + s[25:],
    "offset hours 24": lambda s: s[:21] + "24" + s[23:],
    "negative zero offset": lambda s: s[:20] + "-0000" + s[25:],
    "missing offset": lambda s: s[:19] + s[25:],
    "colon offset": lambda s: s[:23] + ":" + s[23:],
    "trailing junk": lambda s: s + "x",
    "padded": lambda s: "  " + s + " ",
    "year 0000": lambda s: s[:26] + "0000",
    "ISO separators": lambda s: s.replace(" ", "T", 1),
}


class TestTimestampFastPath:
    @given(stamp=stamps)
    @settings(max_examples=300, deadline=None)
    def test_dump_layout_matches_strptime(self, stamp):
        assert len(stamp) == 30
        fast = outcome(data_io._parse_foursquare_time, stamp)
        assert fast == outcome(strptime_parse, stamp)
        # Only a UTC conversion past year 9999 fails; any value is in UTC.
        assert fast[0] == "OverflowError" or fast[1] is True

    @given(stamp=stamps, edit=st.sampled_from(sorted(NEAR_MISSES)))
    @settings(max_examples=300, deadline=None)
    def test_near_misses_match_strptime(self, stamp, edit):
        raw = NEAR_MISSES[edit](stamp)
        assert outcome(data_io._parse_foursquare_time, raw) == outcome(strptime_parse, raw)

    @given(stamp=stamps, edit=st.sampled_from(sorted(NEAR_MISSES)))
    @settings(max_examples=60, deadline=None)
    def test_near_miss_reads_match_strptime(self, stamp, edit, tmp_path_factory):
        """Whole reads agree too: same records, or the same ``path:lineno`` error."""
        path = tmp_path_factory.mktemp("stamps") / "near.tsv"
        valid = "u1\tv1\tc1\tCafe\t40.7\t-73.9\t0\tTue Apr 03 13:41:40 +0000 2012\n"
        near = f"u2\tv2\tc2\tBar\t40.8\t-73.8\t-240\t{NEAR_MISSES[edit](stamp)}\n"
        path.write_text(valid + near, encoding="utf-8")
        fast = read_outcome(path)
        reference = strptime_read_outcome(path)
        assert fast == reference
        if fast[0] == "ValueError":
            assert f"{path}:2: malformed record" in fast[1]

    def test_dataset_read_matches_strptime(self, tmp_path, small_ds):
        path = tmp_path / "small.tsv"
        save_dataset(small_ds, path)
        fast = read_outcome(path)
        reference = strptime_read_outcome(path)
        assert len(fast) == len(small_ds)
        assert fast == reference
