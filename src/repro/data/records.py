"""Check-in record model and the columnar dataset store.

The dataset mirrors the Foursquare NYC dump the paper uses: each record is a
(user, venue, category, location, timestamp) check-in.  ``CheckInDataset``
stores the records as parallel numpy columns, sorted by
``(user_id, timestamp, venue_id)`` with per-user row offsets, which is the
access pattern of every downstream stage (sessionization, mining, crowd
aggregation), of the readers, the writers and the quality audit.
:class:`CheckIn` objects exist only at the container's object edge: a
caller that has objects builds a dataset from them (``CheckInDataset(checkins)``),
and one that wants them back iterates the dataset or asks for a user's
records (:meth:`CheckInDataset.for_user`).  Each call builds them anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..geo import BoundingBox, GeoPoint

__all__ = [
    "Venue", "CheckIn", "CheckInColumns", "CheckInDataset", "Fix", "StoreBuilder",
    "MAX_TZ_OFFSET_MIN", "check_tz_offset", "day_date", "from_epoch_us", "to_epoch_us",
]

#: The zero of the store's time column (UTC epoch microseconds).
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = EPOCH.toordinal()
_US = timedelta(microseconds=1)
_US_PER_DAY = 86_400_000_000
_US_PER_MIN = 60_000_000
_INT16 = np.iinfo(np.int16)
#: The largest ``tz_offset_min`` magnitude a local time can use:
#: ``datetime.timezone`` takes offsets strictly inside one day.
MAX_TZ_OFFSET_MIN = 24 * 60 - 1


@dataclass(frozen=True, order=True)
class Fix:
    """One timestamped GPS fix — the raw-trace counterpart of a check-in.

    Lives in the data layer (it is a record, not a derived artifact) so that
    both the synthetic trace generator below it and the stay-point detector
    in :mod:`repro.sequences.staypoints` can share it without inverting the
    package DAG.
    """

    timestamp: datetime
    lat: float
    lon: float

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


@dataclass(frozen=True)
class Venue:
    """A point of interest users check in at."""

    venue_id: str
    name: str
    category_id: str
    category_name: str
    location: GeoPoint

    @property
    def lat(self) -> float:
        return self.location.lat

    @property
    def lon(self) -> float:
        return self.location.lon


@dataclass(frozen=True, order=True)
class CheckIn:
    """One geotagged check-in.

    ``timestamp`` is timezone-aware UTC; ``tz_offset_min`` is the venue's
    local-time offset (the Foursquare dump carries both, and local time is
    what daily sessionization and time-binning must use).
    Ordering is ``(user_id, timestamp, venue_id)`` so sorting a record list
    yields per-user chronological runs.
    """

    user_id: str
    timestamp: datetime
    venue_id: str = field(compare=True)
    category_id: str = field(compare=False, default="")
    category_name: str = field(compare=False, default="")
    lat: float = field(compare=False, default=0.0)
    lon: float = field(compare=False, default=0.0)
    tz_offset_min: int = field(compare=False, default=0)

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            raise ValueError("check-in timestamps must be timezone-aware (UTC)")

    @property
    def local_time(self) -> datetime:
        """Timestamp shifted into the venue's local timezone."""
        return self.timestamp.astimezone(timezone(timedelta(minutes=self.tz_offset_min)))

    @property
    def local_date(self):
        return self.local_time.date()


class CheckInColumns(NamedTuple):
    """The store's per-record columns, one row per check-in, all read-only.

    ``user``, ``venue`` and ``category`` index the dataset's
    ``user_table``, ``venue_table`` and ``category_table``.  Time is UTC
    epoch *microseconds*: synthetic check-ins carry sub-second timestamps,
    and integer microseconds round-trip a ``datetime`` exactly.
    """

    user: np.ndarray  # int32
    venue: np.ndarray  # int32
    category: np.ndarray  # int32, index of a (category_id, category_name) pair
    time_us: np.ndarray  # int64
    tz_offset_min: np.ndarray  # int16
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64


def to_epoch_us(ts: datetime) -> int:
    """An aware ``datetime`` as exact integer UTC epoch microseconds."""
    return (ts - EPOCH) // _US


def day_date(days: int) -> date:
    """The calendar date ``days`` days after 1970-01-01."""
    return date.fromordinal(_EPOCH_ORDINAL + days)


def from_epoch_us(us: int) -> datetime:
    """The UTC ``datetime`` of integer epoch microseconds."""
    return EPOCH + timedelta(microseconds=us)


class _Interner:
    """Dense int codes for strings, in first-seen order, sorted at the end."""

    def __init__(self) -> None:
        self.index: Dict[str, int] = {}

    def codes(self, values: Sequence[str]) -> np.ndarray:
        index = self.index
        for value in dict.fromkeys(values):
            if value not in index:
                index[value] = len(index)
        return np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))

    def sorted_table(self) -> Tuple[Tuple[str, ...], np.ndarray]:
        """The strings sorted, and the map from first-seen codes to sorted ones."""
        table = tuple(sorted(self.index))
        rank = np.empty(len(table), dtype=np.int32)
        rank[np.fromiter(map(self.index.__getitem__, table), dtype=np.int64,
                         count=len(table))] = np.arange(len(table), dtype=np.int32)
        return table, rank


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Store:
    """The shared, immutable part of a dataset: tables, columns, offsets."""

    __slots__ = ("user_table", "venue_table", "category_table", "columns", "offsets",
                 "bad_tz_offset")

    def __init__(self, user_table, venue_table, category_table, columns: CheckInColumns) -> None:
        self.user_table: Tuple[str, ...] = user_table
        self.venue_table: Tuple[str, ...] = venue_table
        self.category_table: Tuple[Tuple[str, str], ...] = category_table
        self.columns = CheckInColumns(*(_frozen(c) for c in columns))
        counts = np.bincount(columns.user, minlength=len(user_table))
        offsets = np.zeros(len(user_table) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.offsets = _frozen(offsets)
        bad = np.flatnonzero(np.abs(columns.tz_offset_min.astype(np.int32)) > MAX_TZ_OFFSET_MIN)
        #: An offset no local time can use, kept so a quality audit can report it.
        self.bad_tz_offset = int(columns.tz_offset_min[bad[0]]) if len(bad) else None


def check_tz_offset(minutes: int) -> int:
    """``minutes`` if it is a UTC offset under a day, else ``ValueError``."""
    if not -MAX_TZ_OFFSET_MIN <= minutes <= MAX_TZ_OFFSET_MIN:
        raise ValueError(f"tz offset {minutes} min is not within ±{MAX_TZ_OFFSET_MIN}")
    return minutes


def _fits_int16(minutes: int) -> int:
    if not _INT16.min <= minutes <= _INT16.max:
        raise ValueError(f"tz offset {minutes} min does not fit int16")
    return minutes


class StoreBuilder:
    """Collects records batch by batch, then sorts them into one store.

    Each batch gives its string fields as lists, interned on arrival, and
    its numbers as arrays, so a batch's strings can be dropped as soon as
    it is added.
    """

    def __init__(self) -> None:
        self._interners = [_Interner() for _ in range(4)]
        self._batches: List[Tuple[np.ndarray, ...]] = []

    def add(self, users: Sequence[str], venues: Sequence[str], category_ids: Sequence[str],
            category_names: Sequence[str], time_us, tz_offset_min, lat, lon) -> None:
        codes = [interner.codes(values) for interner, values
                 in zip(self._interners, (users, venues, category_ids, category_names))]
        self._batches.append((
            *codes, np.asarray(time_us, dtype=np.int64), np.asarray(tz_offset_min, dtype=np.int16),
            np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64),
        ))

    def build(self) -> _Store:
        """The store: tables sorted, rows ordered by ``(user_id, timestamp, venue_id)``.

        Ties keep their input order (the sort is stable), exactly as
        ``sorted()`` orders :class:`CheckIn` objects.
        """
        if self._batches:
            columns = [np.concatenate(column) for column in zip(*self._batches)]
        else:
            columns = [np.zeros(0, dtype=np.int32)] * 4 + [
                np.zeros(0, dtype=t) for t in (np.int64, np.int16, np.float64, np.float64)]
        (users, user_rank), (venues, venue_rank), (ids, id_rank), (names, name_rank) = (
            interner.sorted_table() for interner in self._interners)
        user, venue = user_rank[columns[0]], venue_rank[columns[1]]
        pair = id_rank[columns[2]].astype(np.int64) * len(names) + name_rank[columns[3]]
        pairs, category = np.unique(pair, return_inverse=True)
        category_table = tuple((ids[p // len(names)], names[p % len(names)])
                               for p in pairs.tolist())
        time_us, tz, lat, lon = columns[4:]
        order = np.lexsort((venue, time_us, user))
        return _Store(users, venues, category_table, CheckInColumns(
            user[order], venue[order], category.reshape(-1).astype(np.int32)[order],
            time_us[order], tz[order], lat[order], lon[order],
        ))


def _store_from_checkins(checkins: Iterable[CheckIn]) -> _Store:
    records = list(checkins)
    builder = StoreBuilder()
    builder.add(
        [c.user_id for c in records], [c.venue_id for c in records],
        [c.category_id for c in records], [c.category_name for c in records],
        [(c.timestamp - EPOCH) // _US for c in records],
        [_fits_int16(c.tz_offset_min) for c in records],
        [c.lat for c in records], [c.lon for c in records],
    )
    return builder.build()


class CheckInDataset:
    """An immutable-after-construction collection of check-ins plus venues.

    The records live in :attr:`columns` (see :class:`CheckInColumns`),
    sorted by ``(user_id, timestamp, venue_id)``; a user's rows are the
    contiguous range :meth:`user_span`.  ``CheckInDataset(checkins)``
    converts :class:`CheckIn` objects once; iteration and :meth:`for_user`
    build them back on request.  The filter methods return new datasets
    from boolean masks.
    """

    def __init__(
        self,
        checkins: Iterable[CheckIn],
        venues: Optional[Dict[str, Venue]] = None,
        name: str = "dataset",
    ) -> None:
        self._init(_store_from_checkins(checkins), dict(venues or {}), name)

    def _init(self, store: _Store, venues: Dict[str, Venue], name: str) -> None:
        self.name = name
        self.venues: Dict[str, Venue] = venues
        self._store = store
        self._user_code = {uid: i for i, uid in enumerate(store.user_table)}

    @classmethod
    def from_store(cls, store: _Store, venues: Dict[str, Venue], name: str) -> "CheckInDataset":
        out = cls.__new__(cls)
        out._init(store, venues, name)
        return out

    # --------------------------------------------------------------- columns

    @property
    def columns(self) -> CheckInColumns:
        return self._store.columns

    @property
    def user_table(self) -> Tuple[str, ...]:
        """User ids, sorted; ``columns.user`` indexes it."""
        return self._store.user_table

    @property
    def venue_table(self) -> Tuple[str, ...]:
        """Venue ids, sorted; ``columns.venue`` indexes it."""
        return self._store.venue_table

    @property
    def category_table(self) -> Tuple[Tuple[str, str], ...]:
        """``(category_id, category_name)`` pairs, sorted; ``columns.category`` indexes it."""
        return self._store.category_table

    @property
    def user_offsets(self) -> np.ndarray:
        """Row offsets: user ``i``'s rows are ``offsets[i]:offsets[i + 1]``."""
        return self._store.offsets

    def user_span(self, user_id: str) -> Tuple[int, int]:
        """``(lo, hi)`` rows of a user (``(0, 0)`` if unknown)."""
        code = self._user_code.get(user_id)
        if code is None:
            return 0, 0
        offsets = self._store.offsets
        return int(offsets[code]), int(offsets[code + 1])

    def local_times_us(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Local wall-clock time of rows ``lo:hi`` as epoch microseconds.

        Raises ``ValueError`` if the store holds an offset of a day or more,
        as :attr:`CheckIn.local_time` does for that record.
        """
        if self._store.bad_tz_offset is not None:
            check_tz_offset(self._store.bad_tz_offset)
        columns = self._store.columns
        return (columns.time_us[lo:hi]
                + columns.tz_offset_min[lo:hi].astype(np.int64) * _US_PER_MIN)

    def local_days(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Local calendar day of rows ``lo:hi``, as days since 1970-01-01."""
        return self.local_times_us(lo, hi) // _US_PER_DAY

    # ------------------------------------------------------------ accessors

    def _records(self, lo: int, hi: int) -> Iterator[CheckIn]:
        """:class:`CheckIn` objects for rows ``lo:hi`` (the store's edge)."""
        store = self._store
        c = store.columns
        users, venues, categories = store.user_table, store.venue_table, store.category_table
        for u, t, v, k, la, lo_, tz in zip(
            c.user[lo:hi].tolist(), c.time_us[lo:hi].tolist(), c.venue[lo:hi].tolist(),
            c.category[lo:hi].tolist(), c.lat[lo:hi].tolist(), c.lon[lo:hi].tolist(),
            c.tz_offset_min[lo:hi].tolist(),
        ):
            category_id, category_name = categories[k]
            yield CheckIn(users[u], EPOCH + timedelta(microseconds=t), venues[v],
                          category_id, category_name, la, lo_, tz)

    def __len__(self) -> int:
        return len(self._store.columns.time_us)

    def __iter__(self) -> Iterator[CheckIn]:
        return self._records(0, len(self))

    def user_ids(self) -> List[str]:
        """All user ids, sorted."""
        return list(self._store.user_table)

    @property
    def n_users(self) -> int:
        return len(self._store.user_table)

    def for_user(self, user_id: str) -> Tuple[CheckIn, ...]:
        """A user's check-ins in chronological order (empty if unknown)."""
        return tuple(self._records(*self.user_span(user_id)))

    def records_per_user(self) -> Dict[str, int]:
        return dict(zip(self._store.user_table, np.diff(self._store.offsets).tolist()))

    def time_range(self) -> Tuple[datetime, datetime]:
        """(earliest, latest) UTC timestamps; raises on an empty dataset."""
        if not len(self):
            raise ValueError("empty dataset has no time range")
        time_us = self._store.columns.time_us
        return from_epoch_us(int(time_us.min())), from_epoch_us(int(time_us.max()))

    def bounding_box(self) -> BoundingBox:
        """Tightest box over all check-in coordinates."""
        if not len(self):
            raise ValueError("empty dataset has no bounding box")
        lat, lon = self._store.columns.lat, self._store.columns.lon
        return BoundingBox(float(lat.min()), float(lon.min()), float(lat.max()), float(lon.max()))

    def category_names(self) -> List[str]:
        table = self._store.category_table
        return sorted({table[k][1] for k in np.unique(self._store.columns.category).tolist()})

    # --------------------------------------------------------- numpy columns

    def lat_array(self) -> np.ndarray:
        return self._store.columns.lat

    def lon_array(self) -> np.ndarray:
        return self._store.columns.lon

    # -------------------------------------------------------------- filters

    def _derive(self, mask: np.ndarray, suffix: str) -> "CheckInDataset":
        """The rows under ``mask``; users and venues without rows drop out."""
        store = self._store
        columns = CheckInColumns(*(c[mask] for c in store.columns))
        present = np.flatnonzero(np.bincount(columns.user, minlength=len(store.user_table)))
        recode = np.zeros(len(store.user_table), dtype=np.int32)
        recode[present] = np.arange(len(present), dtype=np.int32)
        columns = columns._replace(user=recode[columns.user])
        derived = _Store(tuple(store.user_table[i] for i in present.tolist()),
                         store.venue_table, store.category_table, columns)
        venue_ids = {store.venue_table[i] for i in np.unique(columns.venue).tolist()}
        venues = {vid: v for vid, v in self.venues.items() if vid in venue_ids}
        return CheckInDataset.from_store(derived, venues, f"{self.name}/{suffix}")

    def filter_time(self, start: datetime, end: datetime) -> "CheckInDataset":
        """Records with ``start <= timestamp < end`` (UTC comparison)."""
        if start.tzinfo is None or end.tzinfo is None:
            raise ValueError("filter bounds must be timezone-aware")
        time_us = self._store.columns.time_us
        return self._derive(
            (time_us >= to_epoch_us(start)) & (time_us < to_epoch_us(end)),
            f"time[{start.date()}..{end.date()})",
        )

    def filter_users(self, user_ids: Iterable[str]) -> "CheckInDataset":
        wanted = set(user_ids)
        keep = np.array([uid in wanted for uid in self._store.user_table], dtype=bool)
        return self._derive(keep[self._store.columns.user], f"users[{len(wanted)}]")

    def with_name(self, name: str) -> "CheckInDataset":
        return CheckInDataset.from_store(self._store, self.venues, name)

    def __repr__(self) -> str:
        return (
            f"CheckInDataset({self.name!r}: {len(self)} check-ins, "
            f"{self.n_users} users, {len(self.venues)} venues)"
        )
