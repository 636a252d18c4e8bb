"""Detection-threshold labeling, timeline policies, and market statistics."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .model import ApkRecord, ClassLabel, Granularity, Population, period_indices

# Market tags in the order used for single-market attribution (AndroZoo tag
# names). Tags not listed sort after these, alphabetically.
DEFAULT_MARKET_PRIORITY: tuple[str, ...] = (
    "angeeks",
    "anzhi",
    "apk_bang",
    "appchina",
    "fdroid",
    "freewarelovers",
    "genome",
    "hiapk",
    "mi.com",
    "PlayDrone",
    "play.google.com",
    "praguard",
    "proandroid",
    "slideme",
    "unknown",
    "VirusShare",
    "1mobile",
)


@dataclass(frozen=True)
class LabelRule:
    """Three-way labeling: 0 detections -> goodware, 1..vtt-1 -> greyware, >= vtt -> malware."""

    vtt: int = 4

    def __post_init__(self) -> None:
        if self.vtt < 1:
            raise ValueError(f"vtt must be >= 1, got {self.vtt}")


# The class codes class_codes returns; CLASSES[code] is the label.
GOODWARE, GREYWARE, MALWARE = 0, 1, 2
CLASSES = (ClassLabel.GOODWARE, ClassLabel.GREYWARE, ClassLabel.MALWARE)


def label(record: ApkRecord, rule: LabelRule) -> ClassLabel:
    d = record.vt_detection
    if d == 0:
        return ClassLabel.GOODWARE
    if d >= rule.vtt:
        return ClassLabel.MALWARE
    return ClassLabel.GREYWARE


class TimestampKind(str, Enum):
    CREATION_DEX = "creation_dex"
    CREATION_VT = "creation_vt"
    PUBLICATION_CRAWL = "publication_crawl"


_FIELD_BY_KIND = {
    TimestampKind.CREATION_DEX: "dex_date",
    TimestampKind.CREATION_VT: "vt_scan_date",
    TimestampKind.PUBLICATION_CRAWL: "crawl_date",
}


@dataclass(frozen=True)
class TimestampPolicy:
    """Which timestamp field places a record on the timeline, with optional fallback."""

    kind: TimestampKind = TimestampKind.PUBLICATION_CRAWL
    fallback: Optional[TimestampKind] = None


def timeline_date(record: ApkRecord, policy: TimestampPolicy) -> Optional[datetime]:
    ts = getattr(record, _FIELD_BY_KIND[policy.kind])
    if ts is None and policy.fallback is not None:
        ts = getattr(record, _FIELD_BY_KIND[policy.fallback])
    return ts


def _once(pop: Population, key, derive: Callable):
    """derive() of pop, computed on the first call per key and kept in pop.derived."""
    if key not in pop.derived:
        pop.derived[key] = derive()
    return pop.derived[key]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def class_codes(pop: Population, rule: LabelRule) -> np.ndarray:
    """label() of every record, as a code into CLASSES: (d >= 1) + (d >= vtt)."""
    vt = pop.vt_detection
    return _once(pop, rule, lambda: _read_only(np.add(vt != 0, vt >= rule.vtt, dtype=np.int8)))


def timeline_dates(pop: Population, policy: TimestampPolicy) -> np.ndarray:
    """timeline_date() of every record, NaT where the record is undated."""
    dates = getattr(pop, _FIELD_BY_KIND[policy.kind])
    if policy.fallback is None:
        return dates
    fallback = getattr(pop, _FIELD_BY_KIND[policy.fallback])
    return _once(pop, policy, lambda: _read_only(np.where(np.isnat(dates), fallback, dates)))


class Eligible:
    """The records a sample may hold under a rule and policy (not greyware, and
    dated): the pool mask, every record's class code and timeline date, and
    from their first use the pool's period indices per granularity.
    Unpacks as (pool, classes, dates); every array is read-only."""

    def __init__(self, pop: Population, rule: LabelRule, policy: TimestampPolicy):
        self.classes = class_codes(pop, rule)
        self.dates = timeline_dates(pop, policy)
        self.pool = _read_only((self.classes != GREYWARE) & ~np.isnat(self.dates))
        self._periods: dict[Granularity, np.ndarray] = {}

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter((self.pool, self.classes, self.dates))

    def periods(self, granularity: Granularity) -> np.ndarray:
        """Period index of each record in the pool, -1 for the others."""
        if granularity not in self._periods:
            index = np.full(len(self.pool), -1, dtype=np.int64)
            index[self.pool] = period_indices(self.dates[self.pool], granularity)
            self._periods[granularity] = _read_only(index)
        return self._periods[granularity]


def eligible(pop: Population, rule: LabelRule, policy: TimestampPolicy) -> Eligible:
    """The Eligible view of pop under rule and policy, built once per population."""
    return _once(pop, (rule, policy), lambda: Eligible(pop, rule, policy))


@dataclass(frozen=True)
class LagStats:
    """Distribution of (b - a) in days over records carrying both timestamps."""

    count: int
    excluded: int
    median_days: float
    q1_days: float
    q3_days: float
    histogram: dict[int, int]


def timestamp_lag_stats(pop: Population, a: TimestampKind, b: TimestampKind) -> LagStats:
    dates_a, dates_b = getattr(pop, _FIELD_BY_KIND[a]), getattr(pop, _FIELD_BY_KIND[b])
    both = ~np.isnat(dates_a) & ~np.isnat(dates_b)
    lags = np.sort((dates_b[both] - dates_a[both]).astype(np.int64) / 86400.0)
    if not lags.size:
        raise ValueError("no records carry both timestamps")
    q1, median, q3 = (_quartile(lags, i) for i in (1, 2, 3)) if len(lags) > 1 else lags.tolist() * 3
    days, counts = np.unique(np.floor(lags).astype(np.int64), return_counts=True)
    return LagStats(len(lags), len(pop) - len(lags), median, q1, q3, dict(zip(days.tolist(), counts.tolist())))


def _quartile(ordered: np.ndarray, i: int) -> float:
    """Cut point i of 4 of two or more sorted values, with the integer steps and float operations
    of statistics.quantiles(values, n=4), whose middle cut is statistics.median(values)."""
    n = len(ordered)
    j = min(max(i * (n + 1) // 4, 1), n - 1)
    delta = i * (n + 1) - j * 4
    low, high = ordered[j - 1 : j + 1].tolist()
    return (low * (4 - delta) + high * delta) / 4


def market_sort_key(priority: tuple[str, ...]):
    rank = {tag: i for i, tag in enumerate(priority)}

    def key(tag: str):
        return (rank.get(tag, len(priority)), tag)

    return key


# single-market attribution takes a record's first tag in this order
_MARKET_KEY = market_sort_key(DEFAULT_MARKET_PRIORITY)


@dataclass(frozen=True)
class MarketShare:
    market: str
    goodware_pct: float
    malware_pct: float


def _tag_counts(pop: Population, mask: np.ndarray) -> Counter:
    """Records under mask carrying each tag; a record with k tags counts toward all k."""
    per_set = np.bincount(pop.markets[mask], minlength=len(pop.market_sets)).tolist()
    counts: Counter = Counter()
    for tags, n in zip(pop.market_sets, per_set):
        if n:
            for tag in tags:
                counts[tag] += n
    return counts


def market_composition(pop: Population, rule: LabelRule) -> list[MarketShare]:
    """Per-market percentage of each class's records carrying the tag.

    A record with k market tags contributes to all k rows, so a class's
    column may sum past 100%. Greyware is excluded.
    """
    classes = class_codes(pop, rule)
    goodware, malware = classes == GOODWARE, classes == MALWARE
    gw_counts, mw_counts = _tag_counts(pop, goodware), _tag_counts(pop, malware)
    gw_total, mw_total = int(goodware.sum()), int(malware.sum())
    rows = []
    for tag in sorted(gw_counts.keys() | mw_counts.keys(), key=_MARKET_KEY):
        gw = 100.0 * gw_counts[tag] / gw_total if gw_total else 0.0
        mw = 100.0 * mw_counts[tag] / mw_total if mw_total else 0.0
        rows.append(MarketShare(tag, gw, mw))
    return rows


# market consistency passes at a TV distance of at most this
MARKET_THRESHOLD = 0.10


@dataclass(frozen=True)
class ConsistencyResult:
    tv_distance: float
    passed: bool
    threshold: float
    goodware_dist: dict[str, float]
    malware_dist: dict[str, float]


def tv_distance(p: dict[str, float], q: dict[str, float]) -> float:
    # fsum rounds once, so the result does not depend on the set's iteration
    # order, which follows the per-process string hash seed
    support = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(t, 0.0) - q.get(t, 0.0)) for t in support)


def _consistency(p: dict[str, float], q: dict[str, float], threshold: float) -> ConsistencyResult:
    tv = tv_distance(p, q)
    return ConsistencyResult(tv, tv <= threshold, threshold, p, q)


def _attributed_dist(codes: np.ndarray, attributed: dict[int, str]) -> dict[str, float]:
    """The share of each attributed tag among the market-set codes, tags in first-seen order."""
    per_set = np.bincount(codes).tolist()
    seen, first = np.unique(codes, return_index=True)
    counts: dict[str, int] = {}
    for code in seen[np.argsort(first)].tolist():
        counts[attributed[code]] = counts.get(attributed[code], 0) + per_set[code]
    return {tag: c / len(codes) for tag, c in counts.items()}


def _coded_market_consistency(
    markets: np.ndarray,
    classes: np.ndarray,
    market_sets: tuple[frozenset[str], ...],
) -> ConsistencyResult:
    """Total-variation distance between the goodware and malware market
    distributions of market-set codes into market_sets and class codes.

    Single-market attribution makes each class a probability vector; each
    market set in use is attributed once.
    """
    goodware, malware = classes == GOODWARE, classes == MALWARE
    if not goodware.any() or not malware.any():
        raise ValueError("market consistency undefined: a class is empty")
    used = np.flatnonzero(np.bincount(markets[goodware | malware])).tolist()
    attributed = {code: min(market_sets[code], key=_MARKET_KEY) for code in used}
    p = _attributed_dist(markets[goodware], attributed)
    q = _attributed_dist(markets[malware], attributed)
    return _consistency(p, q, MARKET_THRESHOLD)


def market_consistency(pop: Population, rule: LabelRule) -> ConsistencyResult:
    return _coded_market_consistency(pop.markets, class_codes(pop, rule), pop.market_sets)


def vtt_coverage(pop: Population, vtt: int) -> float:
    """Fraction of detected samples (d >= 1) that a threshold of vtt retains."""
    if vtt < 1:
        raise ValueError(f"vtt must be >= 1, got {vtt}")
    detected = int(np.count_nonzero(pop.vt_detection >= 1))
    if detected == 0:
        raise ValueError("no detected samples (vt_detection >= 1) in population")
    return int(np.count_nonzero(pop.vt_detection >= vtt)) / detected


def vtt_market_heatmap(pop: Population, vtt_values: Iterable[int]) -> dict[int, Optional[dict[str, float]]]:
    """Per-vtt market percentages over records with d >= vtt.

    A vtt with no qualifying records maps to None (absent row, not zeros).
    Multi-tag records count toward every tag they carry.
    """
    out: dict[int, Optional[dict[str, float]]] = {}
    for vtt in vtt_values:
        if vtt < 1:
            raise ValueError(f"vtt must be >= 1, got {vtt}")
        hits = pop.vt_detection >= vtt
        n = int(hits.sum())
        if not n:
            out[vtt] = None
            continue
        counts = _tag_counts(pop, hits)
        out[vtt] = {tag: 100.0 * counts[tag] / n for tag in sorted(counts, key=_MARKET_KEY)}
    return out
