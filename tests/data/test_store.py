"""The columnar check-in store against the object-based reference.

``CheckInDataset`` keeps its records as columns; these properties build
random ``CheckIn`` lists (microsecond timestamps, duplicate records, mixed
offsets and time zones) and check every accessor against what plain
sorting and iterating the objects gives.  A spy then checks that the build
path and the churn renders never construct a ``CheckIn``.
"""

import dataclasses
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (ActiveUserFilter, CheckIn, CheckInColumns, CheckInDataset, monthly_counts,
                        read_foursquare_tsv, write_foursquare_tsv)
from repro.data import io as data_io
from repro.data import records as records_module
from repro.experiments import small_pipeline_config
from repro.geo import BoundingBox
from repro.pipeline import run_pipeline
from repro.sequences import TimeBinning, make_labeler, sessionize_user
from repro.taxonomy import AbstractionLevel
from repro.web import CrowdWebApp

UTC = timezone.utc

timestamps = st.builds(
    lambda us, tz_min: (datetime(2011, 12, 1, tzinfo=UTC) + timedelta(microseconds=us))
    .astimezone(timezone(timedelta(minutes=tz_min))),
    st.integers(min_value=0, max_value=200 * 86_400 * 10**6),
    st.sampled_from([0, -240, 330, 60]),
)

checkins = st.builds(
    CheckIn,
    user_id=st.sampled_from(["u1", "u2", "u10", "ü"]),
    venue_id=st.sampled_from(["v1", "v2", "v3"]),
    category_id=st.sampled_from(["", "c1", "c2"]),
    category_name=st.sampled_from(["Thai Restaurant", "Office", "Park"]),
    lat=st.floats(min_value=40.5, max_value=41.0),
    lon=st.floats(min_value=-74.2, max_value=-73.7),
    tz_offset_min=st.sampled_from([-300, -240, 0, 60, 330]),
    timestamp=timestamps,
)

#: Record lists with exact duplicates and same-instant ties mixed in.
record_lists = st.lists(checkins, min_size=1, max_size=30).flatmap(
    lambda xs: st.lists(st.sampled_from(xs), max_size=6).map(lambda extra: xs + extra)
)


def rows(records):
    return [dataclasses.astuple(c) for c in records]


class TestStoreMatchesObjects:
    @given(xs=record_lists)
    @settings(max_examples=60, deadline=None)
    def test_accessors_equal_the_sorted_objects(self, xs):
        ds = CheckInDataset(xs)
        reference = sorted(xs)
        assert list(ds) == reference
        assert rows(ds) == rows(reference)
        assert all(c.timestamp.tzinfo is UTC for c in ds)
        assert rows(ds.records) == rows(reference)
        assert rows([ds[i] for i in range(-len(ds), len(ds))]) == rows(reference + reference)
        assert rows(ds[1::2]) == rows(reference[1::2])
        users = sorted({c.user_id for c in xs})
        assert ds.user_ids() == users
        for uid in users + ["ghost"]:
            assert rows(ds.for_user(uid)) == rows(c for c in reference if c.user_id == uid)
        assert ds.records_per_user() == dict(Counter(c.user_id for c in xs))
        times = [c.timestamp for c in xs]
        assert ds.time_range() == (min(times), max(times))
        assert ds.bounding_box() == BoundingBox.from_points(c.location for c in xs)
        assert ds.lat_array().tolist() == [c.lat for c in reference]
        assert ds.lon_array().tolist() == [c.lon for c in reference]
        assert ds.category_names() == sorted({c.category_name for c in xs})
        assert [records_module.day_date(d) for d in ds.local_days().tolist()] == [
            c.local_date for c in reference]

    @given(xs=record_lists, cut=timestamps)
    @settings(max_examples=40, deadline=None)
    def test_filters_equal_filtering_the_objects(self, xs, cut):
        ds = CheckInDataset(xs)
        reference = sorted(xs)
        end = cut + timedelta(days=30)
        assert rows(ds.filter_time(cut, end)) == rows(c for c in reference
                                                       if cut <= c.timestamp < end)
        kept = ds.filter_users(["u2", "ü"])
        assert rows(kept) == rows(c for c in reference if c.user_id in ("u2", "ü"))
        assert kept.n_users == len({c.user_id for c in reference} & {"u2", "ü"})
        months = Counter(f"{c.timestamp.astimezone(UTC):%Y-%m}" for c in xs)
        assert monthly_counts(ds) == dict(sorted(months.items()))

    @given(xs=record_lists, min_days=st.integers(0, 2), gap=st.sampled_from([0.5, 2.0, 30.0]),
           per_day=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_active_user_filter_equals_the_per_record_count(self, xs, min_days, gap, per_day):
        criteria = ActiveUserFilter(min_qualifying_days=min_days, max_gap_hours=gap,
                                    min_checkins_per_day=per_day)
        ds = CheckInDataset(xs)

        def reference(uid):
            by_day = {}
            for c in sorted(xs):
                if c.user_id == uid:
                    by_day.setdefault(c.local_date, []).append(c.timestamp)
            count = 0
            for times in by_day.values():
                if len(times) < per_day:
                    continue
                if per_day == 1 and len(times) == 1:
                    count += 1
                elif any(b - a <= timedelta(hours=gap) for a, b in zip(times, times[1:])):
                    count += 1
            return count

        assert criteria.passing_users(ds) == [uid for uid in ds.user_ids()
                                              if reference(uid) > min_days]

    @given(xs=record_lists, kind=st.sampled_from(["all", "weekday"]))
    @settings(max_examples=40, deadline=None)
    def test_sessions_equal_grouping_the_objects(self, taxonomy, xs, kind):
        labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
        binning = TimeBinning(2.0)
        ds = CheckInDataset(xs)
        for uid in ds.user_ids():
            by_day = {}
            for c in sorted(xs):
                if c.user_id == uid:
                    by_day.setdefault(c.local_date, []).append(c)
            expected = []
            for day in sorted(by_day):
                if kind == "weekday" and day.weekday() >= 5:
                    continue
                items = []
                for c in by_day[day]:
                    item = (binning.bin_of(c.local_time), labeler(c))
                    if not (items and items[-1] == item):
                        items.append(item)
                expected.append((day, items))
            got = sessionize_user(ds, uid, labeler, binning, day_kind=kind)
            assert [(s.day, [tuple(i) for i in s.items]) for s in got] == expected


DUMP_FORMAT = "%a %b %d %H:%M:%S %z %Y"

dump_stamps = st.builds(
    lambda naive, minutes: naive.replace(tzinfo=timezone(timedelta(minutes=minutes)))
    .strftime(DUMP_FORMAT),
    st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31)),
    st.integers(min_value=-(24 * 60 - 1), max_value=24 * 60 - 1),
)

#: One-character edits: each position of a stamp set to a character that
#: is valid somewhere in the layout, or to an out-of-range digit value.
edits = st.tuples(st.integers(0, 29), st.sampled_from(list("0123456789 :+-aTJ\u0661")))


#: Named edits that turn a dump timestamp into a near-miss of the layout.
NEAR_MISSES = {
    "padded": lambda s: f"  {s} ",
    "single-digit day": lambda s: s[:8] + s[9:],
    "hour 24": lambda s: s[:11] + "24" + s[13:],
    "second 60": lambda s: s[:17] + "60" + s[19:],
    "offset hours 24": lambda s: s[:21] + "24" + s[23:],
    "offset minutes 60": lambda s: s[:23] + "60" + s[25:],
    "negative zero offset": lambda s: s[:20] + "-0000" + s[25:],
    "year 0000": lambda s: s[:26] + "0000",
    "Feb 30": lambda s: s[:4] + "Feb 30" + s[10:],
}


def near_miss(stamp, edit):
    if edit is None:
        return stamp
    if isinstance(edit, str):
        return NEAR_MISSES[edit](stamp)
    pos, char = edit
    return stamp[:pos] + char + stamp[pos + 1:]


def strptime_us(raw):
    """The reference: ``strptime`` alone, as UTC epoch microseconds, or the error type."""
    try:
        ts = datetime.strptime(raw.strip(), DUMP_FORMAT).astimezone(UTC)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return records_module.to_epoch_us(ts)


def stamps_us(raw):
    try:
        (us,) = data_io._stamps_us([raw]).tolist()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return us


class TestDumpTimestamps:
    @given(stamp=dump_stamps, edit=st.none() | edits)
    @settings(max_examples=400, deadline=None)
    def test_array_parse_equals_strptime(self, stamp, edit):
        if edit is not None:
            pos, char = edit
            stamp = stamp[:pos] + char + stamp[pos + 1:]
        assert stamps_us(stamp) == strptime_us(stamp)

    @pytest.mark.parametrize("stamp", [
        "Tue Apr 03 13:41:40 +0000 2012", "Tue Apr 03 24:00:00 +0000 2012",
        "Tue Apr 03 13:60:40 +0000 2012", "Tue Apr 03 13:41:60 +0000 2012",
        "Tue Apr 03 13:41:40 +0060 2012", "Tue Apr 03 13:41:40 +2400 2012",
        "Tue Apr 03 13:41:40 -2359 2012", "Tue Apr 03 13:41:40 -0000 2012",
        "Wed Feb 29 00:00:00 +0000 2012", "Tue Feb 29 00:00:00 +0000 2011",
        "Tue Feb 29 00:00:00 +0000 2000", "Tue Feb 29 00:00:00 +0000 1900",
        "Tue Apr 31 00:00:00 +0000 2012", "Tue Apr 00 00:00:00 +0000 2012",
        "Fri Dec 31 23:59:59 -0001 9999", "Fri Dec 31 23:59:59 +0001 9999",
        "Mon Jan 01 00:00:00 +0001 0001", "Mon Jan 01 00:00:00 -0001 0001",
        "Mon Jan 01 00:00:00 +0000 0000", "Sun Dec 31 23:30:00 -0100 0000",
        "Thu Jan 01 00:00:00 +0000 1970",
        "tue Apr 03 13:41:40 +0000 2012", "Tue APR 03 13:41:40 +0000 2012",
    ])
    def test_layout_edges_equal_strptime(self, stamp):
        assert stamps_us(stamp) == strptime_us(stamp)

    @given(stamps=st.lists(dump_stamps, min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_array_parse_of_many_equals_one_by_one(self, stamps):
        stamps = [s for s in stamps if isinstance(strptime_us(s), int)]  # no overflow
        expected = [strptime_us(s) for s in stamps]
        assert data_io._stamps_us(stamps).tolist() == expected

    @pytest.mark.parametrize("edit", sorted(NEAR_MISSES))
    def test_a_near_miss_read_equals_a_strptime_read(self, edit, tmp_path):
        path = tmp_path / "near.tsv"
        stamp = "Tue Apr 03 13:41:40 +0130 2012"
        path.write_text(f"u1\tv1\tc1\tCafe\t40.7\t-73.9\t0\t{stamp}\n"
                        f"u0\tv2\tc1\tCafe\t40.7\t-73.9\t0\t{near_miss(stamp, edit)}\n",
                        encoding="utf-8")
        self.check_read(path)

    @given(lines=st.lists(st.tuples(dump_stamps, st.none() | edits | st.sampled_from(
        sorted(NEAR_MISSES)), st.sampled_from([-240, 0, 330])), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_reads_equal_a_strptime_read(self, lines, tmp_path_factory):
        """Whole reads of near-miss stamps: the same records, or the same first bad line."""
        path = tmp_path_factory.mktemp("stamps") / "near.tsv"
        text = "".join(f"u{i % 3}\tv{i % 2}\tc1\tCafe\t40.7\t-73.9\t{tz}\t{near_miss(stamp, edit)}\n"
                       for i, (stamp, edit, tz) in enumerate(lines))
        path.write_text(text, encoding="utf-8")
        self.check_read(path)

    @staticmethod
    def check_read(path):
        expected = strptime_read(path)
        try:
            got = rows(read_foursquare_tsv(path))
        except ValueError as exc:
            assert expected[0] is ValueError
            assert f"{path}:{expected[1]}: malformed record" in str(exc)
        except OverflowError:
            assert expected[0] is OverflowError
        else:
            assert got == expected


def strptime_read(path):
    """The reference read: lines split by hand, stamps through ``strptime`` alone.

    Gives the records as sorted tuples, or the first bad line's error type
    and line number.
    """
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        us = strptime_us(parts[7])
        if not isinstance(us, int):
            return us, lineno
        records.append((parts[0], records_module.from_epoch_us(us), *parts[1:4],
                        float(parts[4]), float(parts[5]), int(parts[6])))
    return sorted(records, key=lambda r: r[:3])


class TestTimestampPrecision:
    def test_microseconds_survive_the_store(self):
        ts = datetime(2012, 4, 3, 13, 41, 40, 123457, tzinfo=UTC)
        (back,) = CheckInDataset([CheckIn(user_id="u", venue_id="v", timestamp=ts)])
        assert back.timestamp == ts
        assert back.timestamp.microsecond == 123457

    def test_offset_outside_int16_is_rejected(self):
        with pytest.raises(ValueError, match="int16"):
            CheckInDataset([CheckIn(user_id="u", venue_id="v", tz_offset_min=40_000,
                                    timestamp=datetime(2012, 4, 3, tzinfo=UTC))])

    @pytest.mark.parametrize("minutes", [1440, -1440, 2000])
    def test_local_times_reject_an_offset_of_a_day_or_more(self, minutes):
        """Held for a quality audit, but no local time is made of it, by either path."""
        ds = CheckInDataset([CheckIn(user_id="u", venue_id="v", tz_offset_min=minutes,
                                     timestamp=datetime(2012, 4, 3, tzinfo=UTC))])
        assert ds[0].tz_offset_min == minutes
        with pytest.raises(ValueError):
            ds[0].local_time
        with pytest.raises(ValueError, match=f"tz offset {minutes} min"):
            ds.local_days()
        with pytest.raises(ValueError, match=f"tz offset {minutes} min"):
            run_pipeline(ds, small_pipeline_config())

    def test_offsets_under_a_day_are_kept(self):
        ds = CheckInDataset([CheckIn(user_id="u", venue_id="v", tz_offset_min=minutes,
                                     timestamp=datetime(2012, 4, 3, tzinfo=UTC))
                             for minutes in (-1439, 1439)])
        assert [c.local_date for c in ds] == [datetime(2012, 4, 2).date(),
                                              datetime(2012, 4, 3).date()]
        assert ds.local_days().tolist() == [15432, 15433]

    @pytest.mark.parametrize("minutes", [1500, -1440, 40_000])
    def test_a_read_rejects_an_offset_of_a_day_or_more(self, tmp_path, minutes):
        path = tmp_path / "tz.tsv"
        line = "u1\tv1\tc1\tCafe\t40.7\t-73.9\t{}\tTue Apr 03 13:41:40 +0000 2012\n"
        path.write_text(line.format(0) + line.format(minutes), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:2: malformed record: tz offset {minutes}"):
            read_foursquare_tsv(path)

    def test_columns_are_read_only(self, small_ds):
        columns = small_ds.columns
        assert isinstance(columns, CheckInColumns)
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 0
        assert [c.dtype for c in columns] == [np.int32] * 3 + [np.int64, np.int16] + [
            np.float64] * 2


@pytest.fixture
def checkin_spy(monkeypatch):
    """Counts every ``CheckIn`` constructed while it is active."""
    made = []
    original = CheckIn.__post_init__

    def counting(self):
        made.append(1)
        original(self)

    monkeypatch.setattr(CheckIn, "__post_init__", counting)
    return made


class TestNoObjectsOnTheServedPath:
    def test_build_and_churn_renders_make_no_checkins(self, small_ds, tmp_path, checkin_spy):
        path = tmp_path / "city.tsv"
        write_foursquare_tsv(small_ds, path)
        assert checkin_spy == []
        result = run_pipeline(read_foursquare_tsv(path), small_pipeline_config())
        app = CrowdWebApp(result)
        app.warm()
        assert checkin_spy == []
        uid = sorted(result.profiles)[0]
        for route in (f"/user/{uid}", f"/api/metrics/{uid}", "/api/stats",
                      "/api/tiles/1/0/0?window=9", "/api/flows/3", "/api/communities",
                      "/api/occupancy", "/occupancy"):
            assert app.handle("POST", "/api/refresh")[0] == 200
            assert app.handle("GET", route)[0] == 200, route
        assert checkin_spy == []
        # The spy sees the objects an edge builds.
        assert len(result.dataset.for_user(uid)) == len(checkin_spy) > 0
