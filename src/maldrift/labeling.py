"""Detection-threshold labeling, timeline policies, and market statistics."""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Iterable, Optional

from .model import ApkRecord, ClassLabel, Population

# Market tags in the order used for single-market attribution (AndroZoo tag
# names; configurable). Tags not listed sort after these, alphabetically.
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
    field_a, field_b = _FIELD_BY_KIND[a], _FIELD_BY_KIND[b]
    lags: list[float] = []
    excluded = 0
    for rec in pop:
        ts_a, ts_b = getattr(rec, field_a), getattr(rec, field_b)
        if ts_a is None or ts_b is None:
            excluded += 1
            continue
        lags.append((ts_b - ts_a).total_seconds() / 86400.0)
    if not lags:
        raise ValueError("no records carry both timestamps")
    if len(lags) >= 2:
        q1, _, q3 = statistics.quantiles(lags, n=4)
    else:
        q1 = q3 = lags[0]
    histogram = Counter(int(x // 1) for x in lags)
    return LagStats(
        count=len(lags),
        excluded=excluded,
        median_days=statistics.median(lags),
        q1_days=q1,
        q3_days=q3,
        histogram=dict(sorted(histogram.items())),
    )


def market_sort_key(priority: tuple[str, ...]):
    rank = {tag: i for i, tag in enumerate(priority)}

    def key(tag: str):
        return (rank.get(tag, len(priority)), tag)

    return key


def attribute_market(markets: frozenset[str], priority: tuple[str, ...] = DEFAULT_MARKET_PRIORITY) -> str:
    """Single-market attribution: the record's first tag under the priority order."""
    return min(markets, key=market_sort_key(priority))


@dataclass(frozen=True)
class MarketShare:
    market: str
    goodware_pct: float
    malware_pct: float


def market_composition(
    pop: Population,
    rule: LabelRule,
    priority: tuple[str, ...] = DEFAULT_MARKET_PRIORITY,
) -> list[MarketShare]:
    """Per-market percentage of each class's records carrying the tag.

    A record with k market tags contributes to all k rows, so a class's
    column may sum past 100%. Greyware is excluded.
    """
    counts: dict[str, Counter] = defaultdict(Counter)
    totals: Counter = Counter()
    for rec in pop:
        cls = label(rec, rule)
        if cls is ClassLabel.GREYWARE:
            continue
        totals[cls] += 1
        for tag in rec.markets:
            counts[tag][cls] += 1
    rows = []
    for tag in sorted(counts, key=market_sort_key(priority)):
        gw = 100.0 * counts[tag][ClassLabel.GOODWARE] / totals[ClassLabel.GOODWARE] if totals[ClassLabel.GOODWARE] else 0.0
        mw = 100.0 * counts[tag][ClassLabel.MALWARE] / totals[ClassLabel.MALWARE] if totals[ClassLabel.MALWARE] else 0.0
        rows.append(MarketShare(tag, gw, mw))
    return rows


@dataclass(frozen=True)
class ConsistencyResult:
    tv_distance: float
    passed: bool
    threshold: float
    goodware_dist: dict[str, float]
    malware_dist: dict[str, float]


def _normalized_market_dist(items: Iterable[frozenset[str]], priority: tuple[str, ...]) -> dict[str, float]:
    key = market_sort_key(priority)  # attribute_market's key, built once per call
    counts = Counter(min(markets, key=key) for markets in items)
    total = sum(counts.values())
    return {tag: c / total for tag, c in counts.items()}


def tv_distance(p: dict[str, float], q: dict[str, float]) -> float:
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(t, 0.0) - q.get(t, 0.0)) for t in support)


def market_consistency_from_pairs(
    pairs: Iterable[tuple[frozenset[str], ClassLabel]],
    threshold: float = 0.10,
    priority: tuple[str, ...] = DEFAULT_MARKET_PRIORITY,
) -> ConsistencyResult:
    """Total-variation distance between goodware and malware market distributions.

    Uses single-market attribution so each class forms a probability vector.
    """
    materialized = list(pairs)
    gw = [m for m, cls in materialized if cls is ClassLabel.GOODWARE]
    mw = [m for m, cls in materialized if cls is ClassLabel.MALWARE]
    if not gw or not mw:
        raise ValueError("market consistency undefined: a class is empty")
    p = _normalized_market_dist(gw, priority)
    q = _normalized_market_dist(mw, priority)
    tv = tv_distance(p, q)
    return ConsistencyResult(tv, tv <= threshold, threshold, p, q)


def market_consistency(
    pop: Population,
    rule: LabelRule,
    threshold: float = 0.10,
    priority: tuple[str, ...] = DEFAULT_MARKET_PRIORITY,
) -> ConsistencyResult:
    pairs = [(rec.markets, label(rec, rule)) for rec in pop]
    return market_consistency_from_pairs(pairs, threshold, priority)


def vtt_coverage(pop: Population, vtt: int) -> float:
    """Fraction of detected samples (d >= 1) that a threshold of vtt retains."""
    if vtt < 1:
        raise ValueError(f"vtt must be >= 1, got {vtt}")
    detected = sum(1 for rec in pop if rec.vt_detection >= 1)
    if detected == 0:
        raise ValueError("no detected samples (vt_detection >= 1) in population")
    captured = sum(1 for rec in pop if rec.vt_detection >= vtt)
    return captured / detected


def vtt_market_heatmap(
    pop: Population,
    vtt_values: Iterable[int],
    priority: tuple[str, ...] = DEFAULT_MARKET_PRIORITY,
) -> dict[int, Optional[dict[str, float]]]:
    """Per-vtt market percentages over records with d >= vtt.

    A vtt with no qualifying records maps to None (absent row, not zeros).
    Multi-tag records count toward every tag they carry.
    """
    out: dict[int, Optional[dict[str, float]]] = {}
    for vtt in vtt_values:
        if vtt < 1:
            raise ValueError(f"vtt must be >= 1, got {vtt}")
        hits = [rec for rec in pop if rec.vt_detection >= vtt]
        if not hits:
            out[vtt] = None
            continue
        counts: Counter = Counter()
        for rec in hits:
            for tag in rec.markets:
                counts[tag] += 1
        out[vtt] = {
            tag: 100.0 * counts[tag] / len(hits)
            for tag in sorted(counts, key=market_sort_key(priority))
        }
    return out
