"""Core domain model: app metadata records, populations, and calendar periods.

All timestamps are stored tz-naive at second resolution and mean UTC;
date-only inputs are interpreted as midnight UTC. Every type here is
immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Optional

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
    except ValueError:
        raise ValueError(f"unparseable timestamp: {text!r}") from None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    _check_year(dt.year)
    return dt.replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%d %H:%M:%S")


def _check_year(year: int) -> None:
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise ValueError(f"timestamp year {year} outside supported range {MIN_YEAR}-{MAX_YEAR}")


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

    def __le__(self, other: "Period") -> bool:
        self._check_same(other)
        return self.index <= other.index

    def __gt__(self, other: "Period") -> bool:
        self._check_same(other)
        return self.index > other.index

    def __ge__(self, other: "Period") -> bool:
        self._check_same(other)
        return self.index >= other.index

    def shifted(self, offset: int) -> "Period":
        return Period(self.granularity, self.index + offset)

    def successor(self) -> "Period":
        return self.shifted(1)

    def predecessor(self) -> "Period":
        return self.shifted(-1)

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


def period_range(start: Period, end: Period) -> list[Period]:
    """Inclusive, contiguous, ascending list of periods from start to end."""
    if start.granularity is not end.granularity:
        raise ValueError("period_range requires matching granularities")
    if start.index > end.index:
        raise ValueError(f"period_range start {start} after end {end}")
    return [Period(start.granularity, i) for i in range(start.index, end.index + 1)]


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
        if self.vt_detection < 0:
            raise ValueError(f"vt_detection must be >= 0, got {self.vt_detection}")
        if self.apk_size < 0:
            raise ValueError(f"apk_size must be >= 0, got {self.apk_size}")
        markets = frozenset(m for m in self.markets if m)
        if not markets:
            markets = frozenset({"unknown"})
        object.__setattr__(self, "markets", markets)
        if self.family is not None and not self.family.strip():
            object.__setattr__(self, "family", None)


@dataclass(frozen=True)
class Population:
    """An immutable set of records, unique by sha256."""

    records: tuple[ApkRecord, ...]
    provenance: str = ""
    snapshot_date: Optional[datetime] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for rec in self.records:
            if rec.sha256 in seen:
                raise ValueError(f"duplicate sha256 in population: {rec.sha256}")
            seen.add(rec.sha256)
        if self.snapshot_date is not None:
            for rec in self.records:
                if rec.crawl_date is None or rec.crawl_date > self.snapshot_date:
                    raise ValueError(
                        f"record {rec.sha256} violates snapshot_date {self.snapshot_date}"
                    )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ApkRecord]:
        return iter(self.records)

    @cached_property
    def by_sha(self) -> dict[str, ApkRecord]:
        return {rec.sha256: rec for rec in self.records}

    def filter(self, predicate: Callable[[ApkRecord], bool], provenance: str = "") -> "Population":
        kept = tuple(rec for rec in self.records if predicate(rec))
        return Population(kept, provenance or self.provenance, self.snapshot_date)

    def union(self, other: "Population") -> "Population":
        """Disjoint union; duplicate hashes are an error."""
        overlap = self.by_sha.keys() & other.by_sha.keys()
        if overlap:
            raise ValueError(f"union would duplicate {len(overlap)} hashes (e.g. {next(iter(overlap))})")
        snap = None
        if self.snapshot_date is not None and other.snapshot_date is not None:
            snap = max(self.snapshot_date, other.snapshot_date)
        provenance = " + ".join(p for p in (self.provenance, other.provenance) if p)
        return Population(self.records + other.records, provenance, snap)
