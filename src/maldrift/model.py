"""Core domain model: app metadata records, populations, and calendar periods.

All timestamps are stored tz-naive at second resolution and mean UTC;
date-only inputs are interpreted as midnight UTC. Every type here is
immutable after construction. A population holds its records as numpy
columns; ApkRecord is its row view. KeyedTable, its base, holds the sha256
key format that the manifest and the prediction set share too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cache, cached_property, total_ordering
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

MIN_YEAR = 1970
MAX_YEAR = 2100

_HEX = set("0123456789abcdef")


class Granularity(str, Enum):
    MONTH = "month"
    YEAR = "year"


class ClassLabel(str, Enum):
    GOODWARE = "goodware"
    GREYWARE = "greyware"
    MALWARE = "malware"


def parse_timestamp(text: str) -> datetime:
    """Parse a metadata timestamp; date-only strings mean midnight UTC.

    A year outside MIN_YEAR..MAX_YEAR raises ValueError, as in period_of.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty timestamp")
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
        if dt.tzinfo is not None:  # converting 9999-12-31T23:00:00-02:00 overflows
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError):
        raise ValueError(f"unparseable timestamp: {text!r}") from None
    _check_year(dt.year)
    return dt.replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%d %H:%M:%S")


def format_timestamps(values: np.ndarray) -> list[str]:
    """format_timestamp of each datetime64[s] value; NaT formats as ""."""
    days = values.astype("datetime64[D]")
    months = values.astype("datetime64[M]")
    clock = (values - days).astype(np.int64)
    fields = (
        (values.astype("datetime64[Y]").astype(np.int64) + 1970, 4),
        (months.astype(np.int64) % 12 + 1, 2),
        ((days - months).astype(np.int64) + 1, 2),
        (clock // 3600, 2),
        (clock // 60 % 60, 2),
        (clock % 60, 2),
    )
    chars = np.empty((len(values), 19), dtype=np.uint32)
    chars[:, [4, 7]], chars[:, 10], chars[:, [13, 16]] = ord("-"), ord(" "), ord(":")
    at = 0
    for value, width in fields:
        for place in range(width):
            chars[:, at + place] = value // 10 ** (width - 1 - place) % 10 + ord("0")
        at += width + 1
    text = chars.view("U19").ravel()
    text[np.isnat(values)] = ""
    return text.tolist()


def round_half_up(x: float) -> int:
    """x rounded to the nearest integer, a half up (round() takes a half to even)."""
    return math.floor(x + 0.5)


def _check_year(year: int) -> None:
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise ValueError(f"timestamp year {year} outside supported range {MIN_YEAR}-{MAX_YEAR}")


@total_ordering  # <=, > and >= from < and the dataclass ==
@dataclass(frozen=True)
class Period:
    """A calendar month or year, indexed as an integer offset from 1970."""

    granularity: Granularity
    index: int

    def __post_init__(self) -> None:
        span = (MAX_YEAR - MIN_YEAR + 1) * (12 if self.granularity is Granularity.MONTH else 1)
        if not 0 <= self.index < span:
            raise ValueError(f"period index {self.index} outside supported calendar range")

    @property
    def year(self) -> int:
        if self.granularity is Granularity.MONTH:
            return MIN_YEAR + self.index // 12
        return MIN_YEAR + self.index

    @property
    def month(self) -> int:
        if self.granularity is not Granularity.MONTH:
            raise ValueError("month accessor on a yearly period")
        return self.index % 12 + 1

    def label(self) -> str:
        if self.granularity is Granularity.MONTH:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}"

    def __str__(self) -> str:
        return self.label()

    def _check_same(self, other: "Period") -> None:
        if not isinstance(other, Period):
            raise TypeError(f"cannot compare Period with {type(other).__name__}")
        if other.granularity is not self.granularity:
            raise ValueError("cannot compare periods of different granularity")

    def __lt__(self, other: "Period") -> bool:
        self._check_same(other)
        return self.index < other.index

    def shifted(self, offset: int) -> "Period":
        return Period(self.granularity, self.index + offset)

    def successor(self) -> "Period":
        return self.shifted(1)

    def year_period(self) -> "Period":
        """The yearly period containing this one (identity for yearly periods)."""
        if self.granularity is Granularity.YEAR:
            return self
        return Period(Granularity.YEAR, self.year - MIN_YEAR)

    def start(self) -> datetime:
        if self.granularity is Granularity.MONTH:
            return datetime(self.year, self.month, 1)
        return datetime(self.year, 1, 1)

    @staticmethod
    def parse(text: str) -> "Period":
        """Parse '2014' or '2014-01'."""
        s = text.strip()
        parts = s.split("-")
        try:
            if len(parts) == 1:
                year = int(parts[0])
                _check_year(year)
                return Period(Granularity.YEAR, year - MIN_YEAR)
            if len(parts) == 2:
                year, month = int(parts[0]), int(parts[1])
                _check_year(year)
                if not 1 <= month <= 12:
                    raise ValueError
                return Period(Granularity.MONTH, (year - MIN_YEAR) * 12 + month - 1)
        except ValueError:
            pass
        raise ValueError(f"unparseable period: {text!r}")


def period_of(ts: datetime, granularity: Granularity) -> Period:
    """Map a timestamp to the month or year containing it."""
    _check_year(ts.year)
    if granularity is Granularity.MONTH:
        return Period(Granularity.MONTH, (ts.year - MIN_YEAR) * 12 + ts.month - 1)
    return Period(Granularity.YEAR, ts.year - MIN_YEAR)


_SECONDS_PER_DAY = 86400


@cache
def _month_of_day() -> np.ndarray:
    """The month index (months since 1970-01) of each day from MIN_YEAR-01-01
    to MAX_YEAR-12-31, built on first use."""
    months = (MAX_YEAR - MIN_YEAR + 1) * 12
    starts = np.arange(months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    return np.repeat(np.arange(months, dtype=np.int16), np.diff(starts))


def period_indices(dates: np.ndarray, granularity: Granularity) -> np.ndarray:
    """Period.index of each datetime64 value (no NaT), as period_of computes it.

    A value's month index is read from _month_of_day by its day; its year
    index is the month index // 12.
    """
    table = _month_of_day()
    days = dates.astype("datetime64[s]", copy=False).view(np.int64) // _SECONDS_PER_DAY
    outside = days.view(np.uint64) >= len(table)  # a negative day wraps past the table
    if outside.any():
        unit, per_year = ("datetime64[M]", 12) if granularity is Granularity.MONTH else ("datetime64[Y]", 1)
        _check_year(MIN_YEAR + int(dates[outside.argmax()].astype(unit).astype(np.int64)) // per_year)
    months = table[days].astype(np.int64)
    return months if granularity is Granularity.MONTH else months // 12


def period_range(start: Period, end: Period) -> list[Period]:
    """Inclusive, contiguous, ascending list of periods from start to end."""
    if start.granularity is not end.granularity:
        raise ValueError("period_range requires matching granularities")
    if start.index > end.index:
        raise ValueError(f"period_range start {start} after end {end}")
    return [Period(start.granularity, i) for i in range(start.index, end.index + 1)]


# The in-memory key of a sha256, and its text.
KEY_DTYPE = "S64"
HEX_DTYPE = "U64"


def _keys(hashes: Sequence, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The key of each hash and a mask of the hashes that are 64 ASCII characters.
    Any other hash keys as b"", or raises ValueError naming it when strict. A
    KEY_DTYPE array holds keys already."""
    if isinstance(hashes, np.ndarray) and hashes.dtype == KEY_DTYPE:
        return hashes, np.ones(len(hashes), dtype=bool)
    valid = np.array([len(h) == 64 and h.isascii() for h in hashes], dtype=bool)
    if strict and not valid.all():
        raise ValueError(f"sha256 key {hashes[valid.argmin()]!r} is not 64 ASCII characters")
    return np.array([h if ok else "" for h, ok in zip(hashes, valid.tolist())], dtype=KEY_DTYPE), valid


def _key_texts(keys: np.ndarray) -> list[str]:
    """The hex text of each key (decoding each is faster than astype(HEX_DTYPE), and makes no array of it)."""
    return list(map(bytes.decode, keys.tolist()))


# Rows per chunk of the writers (ingest._write_chunks) and of the duplicate and
# sort-order checks (_sorted_neighbours) of a population, a sidecar and a
# manifest: what they hold at once follows this, not the data's size.
_WRITE_ROWS = 1 << 10


def _sorted_neighbours(sha: np.ndarray, order: np.ndarray, compare) -> np.ndarray:
    """compare(sha[order[i]], sha[order[i - 1]]) for i in 1..n-1, taken
    _WRITE_ROWS at a time, so no sorted copy of the hashes is made."""
    out = np.empty(max(len(order) - 1, 0), dtype=bool)
    for at in range(1, len(order), _WRITE_ROWS):
        here = order[at - 1 : at + _WRITE_ROWS]
        out[at - 1 : at - 2 + len(here)] = compare(sha[here[1:]], sha[here[:-1]])
    return out


def _hash_order(sha: np.ndarray) -> np.ndarray:
    """np.argsort(sha, kind="stable") of an S64 array: a sort of each hash's
    first 8 bytes read as a big-endian integer (not stable, which is several
    times faster), with the runs of equal prefixes ordered by the full hash and
    then by row."""
    prefix = np.ascontiguousarray(sha).view(">u8")[::8].astype(np.uint64)
    order = np.argsort(prefix)
    same = _sorted_neighbours(prefix, order, np.equal)  # order[i + 1] shares order[i]'s prefix
    del prefix
    if same.any():
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        # one stable sort of all tied rows, taken in row order, keeps each run
        # in its slots: the prefix leads the full hash
        runs = np.sort(order[tied])
        order[tied] = runs[np.argsort(sha[runs], kind="stable")]
    return order


def _key_runs(sha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last row of each distinct key's run of equal keys, in
    ascending key order: int32 rows, unless there are more than int32 holds."""
    order = _hash_order(sha)
    if len(sha) <= np.iinfo(np.int32).max:
        order = order.astype(np.int32)
    new = np.ones(len(sha), dtype=bool)  # order[i] holds another key than order[i - 1]
    new[1:] = _sorted_neighbours(sha, order, np.not_equal)
    starts = np.flatnonzero(new)
    del new
    first = order[starts]  # the stable sort puts a key's first row first
    last = np.empty_like(first)
    starts -= 1  # the end of the run before each
    np.take(order, starts[1:], out=last[:-1])
    last[-1:] = order[-1:]
    return first, last


def _is_key_order(sha: np.ndarray, order: np.ndarray) -> bool:
    """Whether order sorts sha into unique ascending keys."""
    return bool(_sorted_neighbours(sha, order, np.greater).all())


_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ApkRecord:
    """One app's metadata row.

    dex_date approximates creation; crawl_date approximates publication
    (may be absent); vt_detection is the count of detecting AV engines.
    Records with no market information carry the single tag "unknown".
    """

    sha256: str
    dex_date: datetime
    vt_detection: int
    crawl_date: Optional[datetime] = None
    vt_scan_date: Optional[datetime] = None
    markets: frozenset[str] = frozenset({"unknown"})
    apk_size: int = 0
    family: Optional[str] = None

    def __post_init__(self) -> None:
        sha = self.sha256.strip().lower()
        if len(sha) != 64 or not set(sha) <= _HEX:
            raise ValueError(f"sha256 must be 64 hex chars, got {self.sha256!r}")
        object.__setattr__(self, "sha256", sha)
        if not 0 <= self.vt_detection <= _INT64_MAX:
            raise ValueError(f"vt_detection must be in 0..2**63-1, got {self.vt_detection}")
        if not 0 <= self.apk_size <= _INT64_MAX:
            raise ValueError(f"apk_size must be in 0..2**63-1, got {self.apk_size}")
        markets = frozenset(m for m in self.markets if m)
        if not markets:
            markets = frozenset({"unknown"})
        object.__setattr__(self, "markets", markets)
        if self.family is not None and not self.family.strip():
            object.__setattr__(self, "family", None)


# column name -> dtype; the names are ApkRecord's fields
COLUMNS = {
    "sha256": KEY_DTYPE,
    "dex_date": "datetime64[s]",
    "crawl_date": "datetime64[s]",
    "vt_scan_date": "datetime64[s]",
    "vt_detection": np.int64,
    "apk_size": np.int64,
    "markets": np.int32,  # code into Population.market_sets
    "family": np.int32,  # code into Population.families; -1 = no family
}

_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
_NAT = np.iinfo(np.int64).min  # the int64 of NaT


def _seconds(values: Iterable[Optional[datetime]], count: int) -> np.ndarray:
    """datetime64[s] of naive datetimes (None is NaT), sub-second parts dropped."""
    ints = (_NAT if v is None else (v - _EPOCH) // _SECOND for v in values)
    return np.fromiter(ints, dtype=np.int64, count=count).view("datetime64[s]")


class KeyedTable:
    """Numpy columns in row order with one sha256 key per row, no key twice.

    A subclass declares its columns (_COLUMNS: name -> dtype), the code tables
    they index (_TABLES), its other attributes (_FIELDS, a class attribute
    giving the default of an optional one), its name in the duplicate error
    (_WHAT) and its row view. The columns are read-only, and sha_order holds
    the row positions in ascending key order. A constructor refuses a hash
    that is not 64 ASCII characters, and positions finds none (see _keys).
    """

    _COLUMNS: dict
    _TABLES: tuple[str, ...] = ()
    _FIELDS: tuple[str, ...] = ()
    _WHAT: str

    sha256: np.ndarray
    sha_order: np.ndarray

    @classmethod
    def _from_columns(cls, columns: dict, *values, sha_order: Optional[np.ndarray] = None, **fields):
        table = cls.__new__(cls)
        table._init(columns, *values, sha_order=sha_order, **fields)
        return table

    from_columns = _from_columns  # Population.from_columns is public

    def _init(self, columns: dict, *values, sha_order: Optional[np.ndarray] = None, **fields) -> None:
        """Set the columns, then the tables and fields, given in _TABLES and
        _FIELDS order or by name; sha_order, when known, spares the sort and
        the duplicate check."""
        names = self._TABLES + self._FIELDS
        given = dict(zip(names, values)) | fields
        required = {name for name in names if not hasattr(type(self), name)}  # no class default
        if len(values) > len(names) or not required <= given.keys() <= set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}, not {len(values)} values and {fields}")
        for name, dtype in self._COLUMNS.items():
            array = _keys(columns[name], strict=True)[0] if name == "sha256" else np.asarray(columns[name], dtype=dtype)
            array.flags.writeable = False
            setattr(self, name, array)
        for name, value in given.items():
            setattr(self, name, tuple(value) if name in self._TABLES else value)
        if sha_order is None:
            # not _hash_order: its 8-byte prefixes would add to synth's peak, where this sort sits
            sha_order = np.argsort(self.sha256, kind="stable")
            repeated = _sorted_neighbours(self.sha256, sha_order, np.equal)
            if repeated.any():  # the first repeat in sorted order is the smallest repeated hash
                raise ValueError(f"duplicate sha256 in {self._WHAT}: {self.sha256[sha_order[repeated.argmax()]].decode()}")
        sha_order.flags.writeable = False
        self.sha_order = sha_order
        self._check()

    def _check(self) -> None:
        """A subclass's check of a new table."""

    def columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._COLUMNS}

    def __len__(self) -> int:
        return len(self.sha256)

    def positions(self, hashes: Union[Sequence[str], np.ndarray]) -> np.ndarray:
        """Row position of each hash (strings, or a KEY_DTYPE array), -1 where the table lacks it.

        The hashes are searched in ascending key order and the places
        scattered back: each search then starts near the last one's end.
        """
        keys, valid = _keys(hashes)
        if not len(self) or not len(keys):
            return np.full(len(keys), -1, dtype=np.int64)
        order = _hash_order(keys)
        at = np.empty(len(keys), dtype=np.int64)
        at[order] = np.searchsorted(self.sha256, keys[order], sorter=self.sha_order)
        at = self.sha_order[np.minimum(at, len(self) - 1)]
        return np.where(valid & (self.sha256[at] == keys), at, -1)

    def _replace(self, rows=None, **fields):
        """This table with the given fields changed, and only the rows at rows (a
        mask, a slice or distinct positions, taken in that order) when given."""
        columns, sha_order = self.columns(), self.sha_order
        if rows is not None:
            at = np.arange(len(self))[rows]
            rank = np.full(len(self), -1, dtype=np.int64)  # each row's position in at
            rank[at] = np.arange(len(at))
            sha_order = rank[sha_order]
            sha_order = sha_order[sha_order >= 0]
            columns = {name: column[at] for name, column in columns.items()}
        fields = {name: getattr(self, name) for name in self._TABLES + self._FIELDS} | fields
        return self._from_columns(columns, sha_order=sha_order, **fields)


class Population(KeyedTable):
    """An immutable set of records, unique by sha256, held as numpy columns.

    The columns (see COLUMNS) keep record order; markets and family are
    codes into the market_sets and families tables. Library functions read
    the columns. ``Population(records)``, iteration, ``records`` and
    ``by_sha`` are a row view of ApkRecord objects for callers that want rows.
    """

    _COLUMNS = COLUMNS
    _TABLES = ("market_sets", "families")
    _FIELDS = ("provenance", "snapshot_date")
    _WHAT = "population"
    provenance: str = ""
    snapshot_date: Optional[datetime] = None

    def __init__(
        self,
        records: Iterable[ApkRecord] = (),
        provenance: str = "",
        snapshot_date: Optional[datetime] = None,
    ):
        records = tuple(records)
        n = len(records)
        market_sets: dict[frozenset[str], int] = {}
        families: dict[str, int] = {}
        columns = {
            "sha256": [r.sha256 for r in records],
            "dex_date": _seconds((r.dex_date for r in records), n),
            "crawl_date": _seconds((r.crawl_date for r in records), n),
            "vt_scan_date": _seconds((r.vt_scan_date for r in records), n),
            "vt_detection": [r.vt_detection for r in records],
            "apk_size": [r.apk_size for r in records],
            "markets": [market_sets.setdefault(r.markets, len(market_sets)) for r in records],
            "family": [-1 if r.family is None else families.setdefault(r.family, len(families)) for r in records],
        }
        self._init(columns, market_sets, families, provenance, snapshot_date)

    def _check(self) -> None:
        if self.snapshot_date is not None:
            late = np.isnat(self.crawl_date) | (self.crawl_date > np.datetime64(self.snapshot_date))
            if late.any():
                sha = self.sha256[late.argmax()].decode()
                raise ValueError(f"record {sha} violates snapshot_date {self.snapshot_date}")

    def __iter__(self) -> Iterator[ApkRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"Population({len(self)} records, provenance={self.provenance!r}, snapshot_date={self.snapshot_date!r})"

    @cached_property
    def records(self) -> tuple[ApkRecord, ...]:
        families = (*self.families, None)  # code -1 picks the None
        return tuple(
            ApkRecord(sha, dex, vt, crawl, scan, self.market_sets[m], size, families[f])
            for sha, dex, vt, crawl, scan, m, size, f in zip(
                _key_texts(self.sha256),
                self.dex_date.tolist(),
                self.vt_detection.tolist(),
                self.crawl_date.tolist(),
                self.vt_scan_date.tolist(),
                self.markets.tolist(),
                self.apk_size.tolist(),
                self.family.tolist(),
            )
        )

    @cached_property
    def by_sha(self) -> dict[str, ApkRecord]:
        return {rec.sha256: rec for rec in self.records}

    @cached_property
    def derived(self) -> dict:
        """What labeling derives from the columns, kept for reuse and keyed by
        what derives it: a label rule, a timestamp policy or both (see
        labeling.eligible). Every array in it is read-only."""
        return {}

    def carrying_any(self, tags: frozenset[str]) -> np.ndarray:
        """Mask of the records sharing at least one market tag with tags."""
        hit = np.array([bool(markets & tags) for markets in self.market_sets], dtype=bool)
        return hit[self.markets] if hit.size else np.zeros(len(self), dtype=bool)

    def select(self, keep: np.ndarray, snapshot_date: Optional[datetime] = None) -> "Population":
        """The records under the boolean mask keep, in order, with this
        population's provenance; snapshot_date defaults to its own."""
        return self._replace(keep, snapshot_date=self.snapshot_date if snapshot_date is None else snapshot_date)
