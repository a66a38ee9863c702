"""Dataset readers and writers.

Three formats are supported:

* **Foursquare TSV** — the exact column layout of the public
  ``dataset_TSMC2014_NYC.txt`` dump the paper uses, so the pipeline runs
  unchanged on the genuine data when it is available.
* **CSV** — a header-carrying round-trippable export.
* **JSONL** — one JSON object per check-in, with a venue sidecar; the format
  the web API serves.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path
from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, TextIO, \
    Tuple, Union

import numpy as np

from ..geo import GeoPoint, validate_lat_lon
from .records import (MAX_TZ_OFFSET_MIN, CheckInDataset, StoreBuilder, Venue, check_tz_offset,
                      day_date, to_epoch_us)

__all__ = [
    "read_foursquare_tsv",
    "write_foursquare_tsv",
    "read_csv",
    "write_csv",
    "read_jsonl",
    "write_jsonl",
    "load_dataset",
    "save_dataset",
]

#: Foursquare dump timestamp format, e.g. ``Tue Apr 03 18:00:09 +0000 2012``.
_FOURSQUARE_TIME_FORMAT = "%a %b %d %H:%M:%S %z %Y"

_CSV_FIELDS = [
    "user_id",
    "venue_id",
    "category_id",
    "category_name",
    "lat",
    "lon",
    "tz_offset_min",
    "utc_time",
]


_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _parse_foursquare_time(raw: str) -> datetime:
    """Parse a dump timestamp into an aware UTC datetime."""
    return datetime.strptime(raw.strip(), _FOURSQUARE_TIME_FORMAT).astimezone(timezone.utc)


#: ``"HH:MM:"`` of each minute of a day.
_HOURS_MINUTES = tuple(f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60))


#: Characters of text the TSV reader parses at a time; bounds the transient
#: strings a read holds.
_CHUNK_CHARS = 1 << 18

#: Positions of the dump layout's digits, and of its fixed separators.
_DIGITS = [8, 9, 11, 12, 14, 15, 17, 18, 21, 22, 23, 24, 26, 27, 28, 29]
_SEPARATORS = {3: " ", 7: " ", 10: " ", 13: ":", 16: ":", 19: " ", 25: " "}
#: ``datetime.min`` and ``datetime.max`` (whole seconds) in UTC epoch seconds.
_MIN_S, _MAX_S = -62_135_596_800, 253_402_300_799


def _code3(name: str) -> int:
    return ord(name[0]) << 16 | ord(name[1]) << 8 | ord(name[2])


_WEEKDAY_CODES = np.array(sorted(map(_code3, _WEEKDAYS)))
_MONTH_CODES = np.array(sorted(map(_code3, _MONTHS)))
_MONTH_NUMBERS = np.array([_MONTHS.index(m) + 1 for m in sorted(_MONTHS, key=_code3)])


def _stamps_us(stamps: List[str]) -> np.ndarray:
    """UTC epoch microseconds of dump timestamps, as :func:`_parse_foursquare_time` reads them.

    Stamps in the plain 30-character layout with in-range ASCII fields and
    a UTC value inside ``datetime``'s range are converted with array
    arithmetic; the rest go through :func:`_parse_foursquare_time` one by
    one, whose exceptions propagate.
    """
    n = len(stamps)
    fast = np.fromiter(map(len, stamps), dtype=np.int64, count=n) == 30
    out = np.zeros(n, dtype=np.int64)
    if fast.any():
        # Longer stamps are cut to 30 characters here; ``fast`` already excludes them.
        cp = np.array(stamps, dtype="U30").view(np.uint32).reshape(n, 30)
        fast &= (cp < 128).all(axis=1)
        for pos, char in _SEPARATORS.items():
            fast &= cp[:, pos] == ord(char)
        fast &= (cp[:, 20] == ord("+")) | (cp[:, 20] == ord("-"))
        d = cp[:, _DIGITS].astype(np.int64) - ord("0")
        fast &= ((d >= 0) & (d <= 9)).all(axis=1)
        head = cp[:, :7].astype(np.int64)
        fast &= np.isin(head[:, 0] << 16 | head[:, 1] << 8 | head[:, 2], _WEEKDAY_CODES)
        month_code = head[:, 4] << 16 | head[:, 5] << 8 | head[:, 6]
        slot = np.minimum(np.searchsorted(_MONTH_CODES, month_code), len(_MONTH_CODES) - 1)
        fast &= _MONTH_CODES[slot] == month_code
        day, hour = d[:, 0] * 10 + d[:, 1], d[:, 2] * 10 + d[:, 3]
        minute, second = d[:, 4] * 10 + d[:, 5], d[:, 6] * 10 + d[:, 7]
        off_hour, off_minute = d[:, 8] * 10 + d[:, 9], d[:, 10] * 10 + d[:, 11]
        year = d[:, 12] * 1000 + d[:, 13] * 100 + d[:, 14] * 10 + d[:, 15]
        fast &= ((year >= 1) & (day >= 1) & (hour < 24) & (minute < 60) & (second < 60)
                 & (off_hour < 24) & (off_minute < 60))
        months = np.where(fast, (year - 1970) * 12 + _MONTH_NUMBERS[slot] - 1, 0)
        first_day = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
        next_first = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
        fast &= day <= next_first - first_day
        offset = np.where(cp[:, 20] == ord("-"), -1, 1) * (off_hour * 3_600 + off_minute * 60)
        seconds = (first_day + day - 1) * 86_400 + hour * 3_600 + minute * 60 + second - offset
        fast &= (seconds >= _MIN_S) & (seconds <= _MAX_S)
        out = np.where(fast, seconds * 1_000_000, 0)
    for i in np.flatnonzero(~fast).tolist():
        out[i] = to_epoch_us(_parse_foursquare_time(stamps[i]))
    return out


class _Chunk(NamedTuple):
    """One chunk of parsed TSV lines: the flat fields and the numeric columns."""

    fields: List[str]  # eight per record
    lat: np.ndarray
    lon: np.ndarray
    tz_offset_min: np.ndarray
    time_us: np.ndarray


def _add_first_seen_venues(venues: Dict[str, Venue], venue_ids: Sequence[str],
                           category_ids: Sequence[str], category_names: Sequence[str],
                           lat: Sequence[float], lon: Sequence[float]) -> None:
    """Add each venue not in ``venues`` yet, from its first row in file order.

    Every reader derives its venues here, so a venue whose rows disagree
    keeps the category and location of the row that comes first in the file.
    """
    for i, venue_id in enumerate(venue_ids):
        if venue_id not in venues:
            venues[venue_id] = Venue(venue_id, venue_id, category_ids[i], category_names[i],
                                     GeoPoint(float(lat[i]), float(lon[i])))


def _raise_first_error(path: Path, first_lineno: int, lines: List[str]) -> None:
    """Parse a chunk line by line, raising the first error in line order."""
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 8:
            raise ValueError(f"{path}:{lineno}: expected 8 tab-separated fields, got {len(parts)}")
        try:
            validate_lat_lon(float(parts[4]), float(parts[5]))
            check_tz_offset(int(parts[6]))
            _parse_foursquare_time(parts[7])
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc


def _parse_chunk(path: Path, first_lineno: int, lines: List[str]) -> _Chunk:
    """Parse a chunk with array operations, or line by line where they cannot."""
    records = [line for line in lines if line] if "" in lines else lines
    n = len(records)
    try:
        tabs = np.fromiter(map(str.count, records, repeat("\t")), dtype=np.int64, count=n)
        if (tabs != 7).any():
            raise ValueError("field count")
        fields = "\t".join(records).split("\t") if records else []
        lat = np.fromiter(map(float, fields[4::8]), dtype=np.float64, count=n)
        lon = np.fromiter(map(float, fields[5::8]), dtype=np.float64, count=n)
        # One range check for every row; NaN fails it.
        if not ((np.abs(lat) <= 90.0).all() and (np.abs(lon) <= 180.0).all()):
            raise ValueError("coordinates")
        tz = np.fromiter(map(int, fields[6::8]), dtype=np.int64, count=n)
        time_us = _stamps_us(fields[7::8])
        if n and not -MAX_TZ_OFFSET_MIN <= tz.min() <= tz.max() <= MAX_TZ_OFFSET_MIN:
            raise ValueError("tz offset")
    except (ValueError, KeyError, OverflowError):
        _raise_first_error(path, first_lineno, lines)
        raise
    return _Chunk(fields, lat, lon, tz.astype(np.int16), time_us)


def _line_chunks(fh: TextIO) -> Iterator[List[str]]:
    """The file's lines (without newlines, blank ones kept), in chunks."""
    while True:
        block = fh.read(_CHUNK_CHARS)
        if not block:
            return
        if not block.endswith("\n"):
            block += fh.readline()
        yield (block[:-1] if block.endswith("\n") else block).split("\n")


def read_foursquare_tsv(path: Union[str, Path], name: Optional[str] = None) -> CheckInDataset:
    """Load a Foursquare TSMC2014-format TSV file.

    Columns: user id, venue id, venue category id, venue category name,
    latitude, longitude, timezone offset in minutes, UTC time.
    Malformed rows raise :class:`ValueError` with the offending line number.
    The file is parsed in chunks straight into the dataset's columns.
    """
    path = Path(path)
    builder = StoreBuilder()
    venues: Dict[str, Venue] = {}
    lineno = 1
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for lines in _line_chunks(fh):
            chunk = _parse_chunk(path, lineno, lines)
            lineno += len(lines)
            fields = chunk.fields
            venue_ids, category_ids, category_names = fields[1::8], fields[2::8], fields[3::8]
            _add_first_seen_venues(venues, venue_ids, category_ids, category_names,
                                   chunk.lat, chunk.lon)
            builder.add(fields[0::8], venue_ids, category_ids, category_names,
                        chunk.time_us, chunk.tz_offset_min, chunk.lat, chunk.lon)
    return CheckInDataset.from_store(builder.build(), venues, name or path.stem)


def write_foursquare_tsv(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Write a dataset in the Foursquare dump layout, straight from its columns.

    Each distinct UTC day's date text is formatted once; a row adds its
    ``HH:MM:SS`` from whole seconds of the day (floor division, so
    microseconds truncate and pre-1970 stamps land on their own day, as
    ``strftime`` has them).
    """
    path = Path(path)
    c = dataset.columns
    users, venues, categories = dataset.user_table, dataset.venue_table, dataset.category_table
    seconds = c.time_us // 1_000_000
    days, day_rows = np.unique(seconds // 86_400, return_inverse=True)
    day_texts = [(f"{day:%a %b %d} ", f" +0000 {day:%Y}")
                 for day in map(day_date, days.tolist())]
    minute_of_day = (seconds % 86_400) // 60
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(
            f"{users[u]}\t{venues[v]}\t{categories[k][0]}\t{categories[k][1]}\t"
            f"{lat:.8f}\t{lon:.8f}\t{tz}\t{day_texts[d][0]}{_HOURS_MINUTES[m]}{s:02d}"
            f"{day_texts[d][1]}\n"
            for u, v, k, lat, lon, tz, d, m, s in zip(
                c.user.tolist(), c.venue.tolist(), c.category.tolist(), c.lat.tolist(),
                c.lon.tolist(), c.tz_offset_min.tolist(), day_rows.tolist(),
                minute_of_day.tolist(), (seconds % 60).tolist(),
            )
        )


#: Rows the CSV and JSONL readers parse into one ``StoreBuilder`` batch.
_ROW_BATCH = 1 << 14


def _ingest_rows(path: Path, rows: Iterable[Tuple[int, Dict[str, Any]]],
                 venues: Optional[Dict[str, Venue]]) -> StoreBuilder:
    """``(lineno, row)`` pairs parsed in batches into a :class:`StoreBuilder`.

    A row maps the :data:`_CSV_FIELDS` names to values (``category_id``,
    ``category_name`` and ``tz_offset_min`` may be absent).  Unless
    ``venues`` is ``None``, venues are derived into it, and every row's
    coordinates must be valid for a venue's location.
    """
    builder = StoreBuilder()
    batch: List[tuple] = []

    def add_batch() -> None:
        if batch:
            users, venue_ids, category_ids, category_names, time_us, tz, lat, lon = zip(*batch)
            if venues is not None:
                _add_first_seen_venues(venues, venue_ids, category_ids, category_names, lat, lon)
            builder.add(users, venue_ids, category_ids, category_names, time_us, tz, lat, lon)
            batch.clear()

    for lineno, row in rows:
        try:
            user, venue = row["user_id"], row["venue_id"]
            category_id, category_name = row.get("category_id", ""), row.get("category_name", "")
            lat, lon = float(row["lat"]), float(row["lon"])
            tz = check_tz_offset(int(row.get("tz_offset_min", 0)))
            stamp = datetime.fromisoformat(row["utc_time"])
            if stamp.tzinfo is None:
                raise ValueError("check-in timestamps must be timezone-aware (UTC)")
        except (ValueError, KeyError, TypeError) as exc:
            # TypeError covers DictReader's None fills for short rows.
            raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if venues is not None:
            validate_lat_lon(lat, lon)
        batch.append((user, venue, category_id, category_name, to_epoch_us(stamp), tz, lat, lon))
        if len(batch) == _ROW_BATCH:
            add_batch()
    add_batch()
    return builder


def read_csv(path: Union[str, Path], name: Optional[str] = None) -> CheckInDataset:
    """Load the CSV export produced by :func:`write_csv`."""
    path = Path(path)
    venues: Dict[str, Venue] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_FIELDS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: missing CSV columns {sorted(missing)}")
        builder = _ingest_rows(path, enumerate(reader, start=2), venues)
    return CheckInDataset.from_store(builder.build(), venues, name or path.stem)


def _utc_isoformats(dataset: CheckInDataset) -> List[str]:
    """Each row's UTC time as ``datetime.isoformat`` writes it.

    ``YYYY-MM-DDTHH:MM:SS``, then ``.ffffff`` when the microseconds are not
    zero, then ``+00:00``; each distinct day's date text is formatted once.
    """
    time_us = dataset.columns.time_us
    seconds = time_us // 1_000_000
    days, day_rows = np.unique(seconds // 86_400, return_inverse=True)
    day_texts = [f"{day_date(day).isoformat()}T" for day in days.tolist()]
    return [
        f"{day_texts[d]}{_HOURS_MINUTES[m]}{s:02d}.{us:06d}+00:00" if us else
        f"{day_texts[d]}{_HOURS_MINUTES[m]}{s:02d}+00:00"
        for d, m, s, us in zip(day_rows.reshape(-1).tolist(),
                               ((seconds % 86_400) // 60).tolist(), (seconds % 60).tolist(),
                               (time_us % 1_000_000).tolist())
    ]


def write_csv(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Write the CSV export :func:`read_csv` loads, straight from the columns."""
    path = Path(path)
    c = dataset.columns
    users, venues, categories = dataset.user_table, dataset.venue_table, dataset.category_table
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        writer.writerows(
            (users[u], venues[v], *categories[k], f"{lat:.8f}", f"{lon:.8f}", tz, utc)
            for u, v, k, lat, lon, tz, utc in zip(
                c.user.tolist(), c.venue.tolist(), c.category.tolist(), c.lat.tolist(),
                c.lon.tolist(), c.tz_offset_min.tolist(), _utc_isoformats(dataset),
            )
        )


def write_jsonl(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Write one JSON object per check-in plus a ``.venues.json`` sidecar.

    The lines are the bytes ``json.dumps`` gives each record, formatted
    from the columns: each table string is encoded once.
    """
    path = Path(path)
    c = dataset.columns
    users = [json.dumps(u) for u in dataset.user_table]
    venues = [json.dumps(v) for v in dataset.venue_table]
    categories = [f'"category_id":{json.dumps(cid)},"category_name":{json.dumps(name)}'
                  for cid, name in dataset.category_table]
    # json.dumps writes a finite float as its repr.
    number = repr if np.isfinite(c.lat).all() and np.isfinite(c.lon).all() else json.dumps
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"user_id":{users[u]},"venue_id":{venues[v]},{categories[k]},'
            f'"lat":{number(lat)},"lon":{number(lon)},"tz_offset_min":{tz},"utc_time":"{utc}"}}\n'
            for u, v, k, lat, lon, tz, utc in zip(
                c.user.tolist(), c.venue.tolist(), c.category.tolist(), c.lat.tolist(),
                c.lon.tolist(), c.tz_offset_min.tolist(), _utc_isoformats(dataset),
            )
        )
    sidecar = path.with_suffix(path.suffix + ".venues.json")
    with sidecar.open("w", encoding="utf-8") as fh:
        json.dump(
            {
                vid: {
                    "name": v.name,
                    "category_id": v.category_id,
                    "category_name": v.category_name,
                    "lat": v.lat,
                    "lon": v.lon,
                }
                for vid, v in sorted(dataset.venues.items())
            },
            fh,
            indent=1,
            sort_keys=True,
        )


def _json_objects(path: Path, fh: TextIO) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """``(lineno, object)`` for each non-blank line of a JSONL file."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError(f"expected a JSON object, got {type(row).__name__}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
        yield lineno, row


def read_jsonl(path: Union[str, Path], name: Optional[str] = None) -> CheckInDataset:
    """Load a JSONL export (venue sidecar is used when present)."""
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".venues.json")
    has_sidecar = sidecar.exists()
    venues: Dict[str, Venue] = {}
    with path.open("r", encoding="utf-8") as fh:
        builder = _ingest_rows(path, _json_objects(path, fh), None if has_sidecar else venues)
    if has_sidecar:
        with sidecar.open("r", encoding="utf-8") as fh:
            venues = {vid: Venue(vid, row.get("name", vid), row.get("category_id", ""),
                                 row.get("category_name", ""),
                                 GeoPoint(float(row["lat"]), float(row["lon"])))
                      for vid, row in json.load(fh).items()}
    return CheckInDataset.from_store(builder.build(), venues, name or path.stem)


_READERS = {".tsv": read_foursquare_tsv, ".txt": read_foursquare_tsv, ".csv": read_csv, ".jsonl": read_jsonl}
_WRITERS = {".tsv": write_foursquare_tsv, ".txt": write_foursquare_tsv, ".csv": write_csv, ".jsonl": write_jsonl}


def load_dataset(path: Union[str, Path]) -> CheckInDataset:
    """Load a dataset, dispatching on file extension (.tsv/.txt/.csv/.jsonl)."""
    path = Path(path)
    reader = _READERS.get(path.suffix.lower())
    if reader is None:
        raise ValueError(f"unsupported dataset extension {path.suffix!r} (expected one of {sorted(_READERS)})")
    return reader(path)


def save_dataset(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Save a dataset, dispatching on file extension (.tsv/.txt/.csv/.jsonl)."""
    path = Path(path)
    writer = _WRITERS.get(path.suffix.lower())
    if writer is None:
        raise ValueError(f"unsupported dataset extension {path.suffix!r} (expected one of {sorted(_WRITERS)})")
    writer(dataset, path)
