"""The columnar check-in store against the object-based reference.

``CheckInDataset`` keeps its records as columns; these properties build
random ``CheckIn`` lists (microsecond timestamps, duplicate records, mixed
offsets and time zones) and check every accessor against what plain
sorting and iterating the objects gives.  The CSV and JSONL readers, the
quality audit and the observed occupancy read the columns; each is checked
against the per-``CheckIn`` implementation it replaced, kept here as an
oracle.  A spy then checks that the build path, the churn renders and
those column readers never construct a ``CheckIn``.
"""

import csv
import dataclasses
import json
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import regularity_by_hour
from repro.cli.main import main as cli_main
from repro.crowd import evaluate_crowd_forecast, observed_occupancy
from repro.data import (ActiveUserFilter, CheckIn, CheckInColumns, CheckInDataset, Severity,
                        QualityIssue, QualityReport, Venue, audit_dataset, monthly_counts,
                        read_csv, read_foursquare_tsv, read_jsonl, write_csv,
                        write_foursquare_tsv, write_jsonl)
from repro.data import io as data_io
from repro.data import records as records_module
from repro.experiments import small_pipeline_config
from repro.geo import BoundingBox, GeoPoint, MicrocellGrid
from repro.pipeline import run_pipeline
from repro.sequences import HOURLY, TimeBinning, make_labeler, sessionize_user
from repro.taxonomy import AbstractionLevel, UnknownCategoryError
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


def bin_of(binning, local_time):
    """The bin of a ``datetime``'s local clock, read field by field."""
    return binning.bin_of_hour(local_time.hour + local_time.minute / 60.0
                               + local_time.second / 3600.0)


class TestStoreMatchesObjects:
    @given(xs=record_lists)
    @settings(max_examples=60, deadline=None)
    def test_accessors_equal_the_sorted_objects(self, xs):
        ds = CheckInDataset(xs)
        reference = sorted(xs)
        assert list(ds) == reference
        assert rows(ds) == rows(reference)
        assert all(c.timestamp.tzinfo is UTC for c in ds)
        users = sorted({c.user_id for c in xs})
        assert ds.user_ids() == users
        for uid in users + ["ghost"]:
            assert rows(ds.for_user(uid)) == rows(c for c in reference if c.user_id == uid)
        assert ds.records_per_user() == dict(Counter(c.user_id for c in xs))
        times = [c.timestamp for c in xs]
        assert ds.time_range() == (min(times), max(times))
        assert ds.bounding_box() == BoundingBox.from_points(GeoPoint(c.lat, c.lon) for c in xs)
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
                    item = (bin_of(binning, c.local_time), labeler(c))
                    if not (items and items[-1] == item):
                        items.append(item)
                expected.append((day, items))
            got = sessionize_user(ds, uid, labeler, binning, day_kind=kind)
            assert [(s.day, [tuple(i) for i in s.items]) for s in got] == expected



# ------------------------------------------------------ per-object oracles

def oracle_read_csv(path):
    """``read_csv`` as one :class:`CheckIn` per row."""
    checkins, venues = [], {}
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            try:
                record = CheckIn(
                    user_id=row["user_id"], venue_id=row["venue_id"],
                    category_id=row["category_id"], category_name=row["category_name"],
                    lat=float(row["lat"]), lon=float(row["lon"]),
                    tz_offset_min=int(row["tz_offset_min"]),
                    timestamp=datetime.fromisoformat(row["utc_time"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            checkins.append(record)
            venues.setdefault(record.venue_id, Venue(
                record.venue_id, record.venue_id, record.category_id, record.category_name,
                GeoPoint(record.lat, record.lon)))
    return CheckInDataset(checkins, venues, name=path.stem)


def oracle_read_jsonl(path):
    """``read_jsonl`` as one :class:`CheckIn` per line."""
    checkins = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"expected a JSON object, got {type(row).__name__}")
                checkins.append(CheckIn(
                    user_id=row["user_id"], venue_id=row["venue_id"],
                    category_id=row.get("category_id", ""),
                    category_name=row.get("category_name", ""),
                    lat=float(row["lat"]), lon=float(row["lon"]),
                    tz_offset_min=int(row.get("tz_offset_min", 0)),
                    timestamp=datetime.fromisoformat(row["utc_time"]),
                ))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
    sidecar = path.with_suffix(path.suffix + ".venues.json")
    venues = {}
    if sidecar.exists():
        for vid, row in json.loads(sidecar.read_text(encoding="utf-8")).items():
            venues[vid] = Venue(vid, row.get("name", vid), row.get("category_id", ""),
                                row.get("category_name", ""),
                                GeoPoint(float(row["lat"]), float(row["lon"])))
    else:
        for c in checkins:
            venues.setdefault(c.venue_id, Venue(c.venue_id, c.venue_id, c.category_id,
                                                c.category_name, GeoPoint(c.lat, c.lon)))
    return CheckInDataset(checkins, venues, name=path.stem)


def oracle_audit(dataset, taxonomy=None, expected_bbox=None, min_records_per_user=2):
    """``audit_dataset`` as passes over :class:`CheckIn` objects."""
    report = QualityReport(dataset_name=dataset.name, n_checkins=len(dataset))
    issues = report.issues
    if len(dataset) == 0:
        issues.append(QualityIssue(Severity.ERROR, "empty", "dataset contains no check-ins"))
        return report
    at_null_island = sum(1 for c in dataset if abs(c.lat) < 1e-9 and abs(c.lon) < 1e-9)
    if at_null_island:
        issues.append(QualityIssue(Severity.ERROR, "null-island",
                                   "records at (0, 0) — missing GPS encoded as zeros",
                                   at_null_island))
    if expected_bbox is not None:
        outside = sum(1 for c in dataset if not expected_bbox.contains_lat_lon(c.lat, c.lon))
        if outside:
            severity = Severity.ERROR if outside > len(dataset) * 0.05 else Severity.WARNING
            issues.append(QualityIssue(severity, "outside-study-area",
                                       "records outside the expected bounding box", outside))
    now = datetime.now(UTC)
    future = sum(1 for c in dataset if c.timestamp > now)
    if future:
        issues.append(QualityIssue(Severity.ERROR, "future-timestamps",
                                   "records timestamped in the future", future))
    ancient = sum(1 for c in dataset if c.timestamp.year < 2000)
    if ancient:
        issues.append(QualityIssue(Severity.WARNING, "pre-2000-timestamps",
                                   "records before the year 2000 (epoch bugs?)", ancient))
    odd_tz = sum(1 for c in dataset if not (-14 * 60 <= c.tz_offset_min <= 14 * 60))
    if odd_tz:
        issues.append(QualityIssue(Severity.ERROR, "invalid-tz-offset",
                                   "timezone offsets outside ±14 h", odd_tz))
    seen = Counter((c.user_id, c.venue_id, c.timestamp) for c in dataset)
    duplicates = sum(count - 1 for count in seen.values() if count > 1)
    if duplicates:
        issues.append(QualityIssue(Severity.WARNING, "duplicate-records",
                                   "identical (user, venue, time) records", duplicates))
    venue_locations, venue_categories = defaultdict(set), defaultdict(set)
    for c in dataset:
        venue_locations[c.venue_id].add((round(c.lat, 4), round(c.lon, 4)))
        venue_categories[c.venue_id].add(c.category_name)
    wandering = sum(1 for locs in venue_locations.values() if len(locs) > 1)
    if wandering:
        issues.append(QualityIssue(Severity.WARNING, "venue-location-conflict",
                                   "venue ids observed at more than one location", wandering))
    recategorized = sum(1 for cats in venue_categories.values() if len(cats) > 1)
    if recategorized:
        issues.append(QualityIssue(Severity.WARNING, "venue-category-conflict",
                                   "venue ids with more than one category name", recategorized))
    if taxonomy is not None:
        unknown = set()
        for name in dataset.category_names():
            try:
                taxonomy.resolve(name)
            except UnknownCategoryError:
                unknown.add(name)
        if unknown:
            issues.append(QualityIssue(
                Severity.INFO, "unknown-categories",
                f"category names missing from the taxonomy (fall back to their own label): "
                f"{', '.join(sorted(unknown)[:5])}" + ("…" if len(unknown) > 5 else ""),
                len(unknown)))
    thin_users = sum(1 for count in Counter(c.user_id for c in dataset).values()
                     if count < min_records_per_user)
    if thin_users:
        issues.append(QualityIssue(Severity.INFO, "thin-users",
                                   f"users with fewer than {min_records_per_user} records "
                                   f"(no pattern can be mined)", thin_users))
    return report


def oracle_observed_occupancy(dataset, grid, binning):
    """``observed_occupancy`` as one pass over :class:`CheckIn` objects."""
    days, per_day = set(), defaultdict(set)
    for record in dataset:
        cell = grid.cell_index_clamped(record.lat, record.lon)
        day = record.local_date
        days.add(day)
        per_day[(cell, bin_of(binning, record.local_time), day)].add(record.user_id)
    totals = defaultdict(float)
    for (cell, bin_index, _), users in per_day.items():
        totals[(cell, bin_index)] += len(users)
    return {key: total / len(days) for key, total in totals.items()}


def oracle_regularity_by_hour(dataset, user_id):
    """``regularity_by_hour`` over the user's :class:`CheckIn` objects."""
    records = dataset.for_user(user_id)
    if not records:
        return {}
    top_venue, _ = Counter(c.venue_id for c in records).most_common(1)[0]
    by_hour = {}
    for c in records:
        by_hour.setdefault(c.local_time.hour, []).append(c.venue_id == top_venue)
    return {hour: sum(hits) / len(hits) for hour, hits in sorted(by_hour.items())}


#: Coordinates where ``round(x, 4)`` sits on or next to a tie (``np.round`` takes
#: -73.98765 and -0.00005 the other way), their neighbours, and zero.
tie_coordinates = st.sampled_from([0.0, -0.0001, -0.00005, 40.12345, 40.71235, -73.98765,
                                   -73.9876, -73.9877, 1.00005, 2.675, 0.03125]) | st.floats(
    min_value=-89.0, max_value=89.0)
points = st.tuples(tie_coordinates, tie_coordinates) | st.just((0.0, 0.0))
#: Around the year 2000, with a few far stamps; offsets of any zone.
audit_timestamps = st.builds(
    lambda us, tz_min: (datetime(1999, 12, 31, 20, tzinfo=UTC) + timedelta(microseconds=us))
    .astimezone(timezone(timedelta(minutes=tz_min))),
    st.integers(min_value=0, max_value=10 * 3_600 * 10**6),
    st.sampled_from([0, -240, 330]),
) | st.sampled_from([datetime(2099, 1, 1, tzinfo=UTC), datetime(1970, 1, 1, tzinfo=UTC),
                     datetime(2000, 1, 1, tzinfo=UTC)])
awkward_checkins = st.builds(
    lambda user, venue, category, point, tz, ts: CheckIn(
        user_id=user, venue_id=venue, category_id=category[0], category_name=category[1],
        lat=point[0], lon=point[1], tz_offset_min=tz, timestamp=ts),
    st.sampled_from(["u1", "u2", "ü"]),
    st.sampled_from(["v1", "v2", "v3"]),
    st.sampled_from([("", "Thai Restaurant"), ("c1", "Thai Restaurant"), ("c1", "Office"),
                     ("c2", "Klingon Embassy")]),
    points,
    st.sampled_from([-300, 0, 330, 900, -1439, 1439]),
    audit_timestamps,
)


#: Where a repeated record moves to, if anywhere: now and then off the globe.
moves = st.integers(0, 9).flatmap(lambda k: st.sampled_from(
    [(95.0, 0.0), (0.0, -181.0), (float("nan"), 1.0)]) if k == 0 else st.none() | points)


def with_repeats(xs):
    """``xs`` plus exact copies and copies that move a record elsewhere."""
    return st.lists(st.tuples(st.sampled_from(xs), moves), max_size=6).map(
        lambda extra: xs + [c if point is None else dataclasses.replace(c, lat=point[0],
                                                                        lon=point[1])
                            for c, point in extra])


#: Unsorted record lists with duplicates and venues that disagree with themselves.
awkward_lists = st.lists(awkward_checkins, min_size=1, max_size=25).flatmap(with_repeats)


def write_rows(records, path, drop_optional=()):
    """``records`` in list order, as CSV or JSONL; JSONL rows in ``drop_optional`` omit
    the keys a reader may default."""
    rows = [{"user_id": c.user_id, "venue_id": c.venue_id, "category_id": c.category_id,
             "category_name": c.category_name, "lat": c.lat, "lon": c.lon,
             "tz_offset_min": c.tz_offset_min, "utc_time": c.timestamp.isoformat()}
            for c in records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        else:
            for i, row in enumerate(rows):
                if i in drop_optional:
                    for key in ("category_id", "category_name", "tz_offset_min"):
                        del row[key]
                fh.write(json.dumps(row) + "\n")


def store_of(ds):
    """The dataset's tables, columns (as text, so NaN equals NaN) and venues."""
    return (ds.name, ds.user_table, ds.venue_table, ds.category_table,
            [repr(column.tolist()) for column in ds.columns], sorted(ds.venues.items()))


def read_outcome(read, path):
    try:
        return store_of(read(path))
    except ValueError as exc:
        return str(exc)


class TestColumnPassesMatchTheObjectOracles:
    @given(xs=awkward_lists, box=st.none() | st.just(BoundingBox(40.0, -75.0, 41.0, -73.0)),
           min_records=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_audit_equals_the_oracle(self, taxonomy, xs, box, min_records):
        ds = CheckInDataset(xs, name="awkward")
        for tree in (None, taxonomy):
            assert audit_dataset(ds, tree, box, min_records) == oracle_audit(
                ds, tree, box, min_records)

    @given(xs=awkward_lists, drop=st.sets(st.integers(0, 30)))
    @settings(max_examples=80, deadline=None)
    def test_reads_equal_the_oracle(self, tmp_path_factory, xs, drop):
        """File order decides the venues; the JSONL sidecar wins when present.

        Without a sidecar, every row's coordinates must be a venue's.
        """
        directory = tmp_path_factory.mktemp("rows")
        csv_path, jsonl_path = directory / "rows.csv", directory / "rows.jsonl"
        write_rows(xs, csv_path)
        write_rows(xs, jsonl_path, drop)
        assert read_outcome(read_csv, csv_path) == read_outcome(oracle_read_csv, csv_path)
        assert read_outcome(read_jsonl, jsonl_path) == read_outcome(oracle_read_jsonl,
                                                                    jsonl_path)
        write_jsonl(CheckInDataset(xs, {"v1": Venue("v1", "One", "c", "Cafe",
                                                    GeoPoint(1.0, 2.0))}), jsonl_path)
        assert read_outcome(read_jsonl, jsonl_path) == read_outcome(oracle_read_jsonl,
                                                                    jsonl_path)

    @pytest.mark.parametrize("suffix,line", [
        (".csv", "u1,v1,c1,Cafe,NOT_A_NUMBER,-73.9,0,2012-04-03T13:41:40+00:00"),
        (".csv", "u1,v1,c1,Cafe,40.7,-73.9,0,2012-04-03T13:41:40"),
        (".csv", "u1,v1,c1,Cafe,40.7,-73.9,0,yesterday"),
        (".csv", "u1,v1,c1,Cafe,40.7,-73.9"),
        (".csv", "u1,v1,c1,Cafe,95.0,-73.9,0,2012-04-03T13:41:40+00:00"),
        (".jsonl", '{"user_id": "u1"}'),
        (".jsonl", "[1, 2]"),
        (".jsonl", "{not json}"),
        (".jsonl", '{"user_id": "u1", "venue_id": "v1", "lat": "x", "lon": 0, '
                   '"utc_time": "2012-04-03T13:41:40+00:00"}'),
        (".jsonl", '{"user_id": "u1", "venue_id": "v9", "lat": 0, "lon": 0, '
                   '"utc_time": "2012-04-03T13:41:40"}'),
    ])
    def test_malformed_rows_raise_the_oracle_error(self, tmp_path, suffix, line):
        path = tmp_path / f"bad{suffix}"
        good = CheckIn(user_id="u0", venue_id="v0", lat=40.7, lon=-73.9,
                       timestamp=datetime(2012, 4, 3, tzinfo=UTC))
        write_rows([good], path)
        path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        read, oracle = (read_csv, oracle_read_csv) if suffix == ".csv" else (read_jsonl,
                                                                              oracle_read_jsonl)
        outcome = read_outcome(read, path)
        assert isinstance(outcome, str)
        assert outcome == read_outcome(oracle, path)

    @given(xs=record_lists, cell_m=st.sampled_from([300.0, 2_000.0]),
           width=st.sampled_from([1.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_observed_occupancy_equals_the_oracle_in_key_order(self, xs, cell_m, width):
        ds = CheckInDataset(xs)
        grid = MicrocellGrid(BoundingBox(40.6, -74.1, 40.9, -73.8), cell_m)
        got = observed_occupancy(ds, grid, TimeBinning(width))
        expected = oracle_observed_occupancy(ds, grid, TimeBinning(width))
        assert list(got.items()) == list(expected.items())
        assert all(type(cell[0]) is int and type(b) is int for cell, b in got)

    def test_observed_occupancy_of_the_small_city_equals_the_oracle(self, small_ds):
        grid = MicrocellGrid(small_ds.bounding_box(), 500.0)
        assert list(observed_occupancy(small_ds, grid, HOURLY).items()) == list(
            oracle_observed_occupancy(small_ds, grid, HOURLY).items())

    @given(xs=record_lists)
    @settings(max_examples=40, deadline=None)
    def test_regularity_equals_the_oracle(self, xs):
        ds = CheckInDataset(xs)
        for uid in ds.user_ids() + ["ghost"]:
            assert regularity_by_hour(ds, uid) == oracle_regularity_by_hour(ds, uid)

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
        (record,) = ds
        assert record.tz_offset_min == minutes
        with pytest.raises(ValueError):
            record.local_time
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
        """In every format, at the row's line (a CSV header is line 1)."""
        path = tmp_path / "tz.tsv"
        line = "u1\tv1\tc1\tCafe\t40.7\t-73.9\t{}\tTue Apr 03 13:41:40 +0000 2012\n"
        path.write_text(line.format(0) + line.format(minutes), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:2: malformed record: tz offset {minutes}"):
            read_foursquare_tsv(path)
        records = [CheckIn(user_id="u1", venue_id="v1", tz_offset_min=tz,
                           timestamp=datetime(2012, 4, 3, 13, 41, 40, tzinfo=UTC))
                   for tz in (0, minutes)]
        for read, suffix, lineno in ((read_csv, ".csv", 3), (read_jsonl, ".jsonl", 2)):
            path = tmp_path / f"tz{suffix}"
            write_rows(records, path)
            with pytest.raises(ValueError, match=f"{path}:{lineno}: malformed record: "
                                                 f"tz offset {minutes} min is not within"):
                read(path)

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

    def test_upload_audit_forecast_and_analyze_make_no_checkins(
            self, small_ds, pipeline_result, taxonomy, tmp_path, checkin_spy, capsys):
        csv_path, jsonl_path = tmp_path / "city.csv", tmp_path / "city.jsonl"
        write_csv(small_ds, csv_path)
        write_jsonl(small_ds, jsonl_path)
        sidecar = tmp_path / "city.jsonl.venues.json"
        uploads = [read_csv(csv_path), read_jsonl(jsonl_path)]
        sidecar.unlink()
        uploads.append(read_jsonl(jsonl_path))
        for ds in uploads:
            assert audit_dataset(ds, taxonomy, ds.bounding_box()).ok
        evaluate_crowd_forecast(pipeline_result.aggregator, pipeline_result.dataset, small_ds,
                                HOURLY)
        for uid in small_ds.user_ids():
            regularity_by_hour(small_ds, uid)
        assert cli_main(["analyze", str(csv_path), "--min-checkins", "5"]) == 0
        assert "users analyzed" in capsys.readouterr().out
        assert checkin_spy == []
