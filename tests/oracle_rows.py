"""Row-at-a-time reference code: the differential oracle for the columnar core.

These are the library's functions as they were before the population became
numpy columns, kept verbatim: each walks ApkRecord rows (the population's row
view) and calls label, timeline_date and period_of per record. Tests assert
that the columnar functions return exactly what these return.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import statistics
from collections import Counter, defaultdict
from datetime import timedelta
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

import numpy as np

from maldrift.errors import FormatError, MissingPredictionsError
from maldrift.ingest import (
    CANONICAL_COLUMNS,
    REQUIRED_COLUMNS,
    ParseResult,
    ParseStats,
    PredictionRow,
    PredictionSet,
    _csv_rows,
    _hashes,
    _not_utf8,
    _spans,
)
from maldrift.labeling import (
    _FIELD_BY_KIND,
    CLASSES,
    DEFAULT_MARKET_PRIORITY,
    LabelRule,
    LagStats,
    MarketShare,
    TimestampKind,
    TimestampPolicy,
    _consistency,
    label,
    market_sort_key,
    timeline_date,
)
from maldrift.model import (
    ApkRecord,
    ClassLabel,
    Granularity,
    Period,
    Population,
    format_timestamp,
    parse_timestamp,
    period_of,
    period_range,
)
from maldrift.metrics import (
    METRIC_NAMES,
    ConfusionCounts,
    ConfusionReport,
    MetricSeries,
    a_aut,
    aut,
    family_overlap,
    rolling_splits,
)
from maldrift.report import EvaluationReport, PredsetResult, _rank
from maldrift.sampler import (
    DEFAULT_GP_TAGS,
    MARKET_SCENARIOS,
    CheckResult,
    DatasetManifest,
    ManifestEntry,
    StratumFill,
    _GRANULARITIES,
    _check_spec,
    _require_keys,
    build_spec_echo,
)
from maldrift.sizing import (
    PlanMode,
    PlanSummary,
    SizingParams,
    SizingPlan,
    SizingResult,
    StratumSize,
    _spatial_split,
    required_sample_size,
    round_half_up,
)
from maldrift.synth import (
    GroundTruth,
    SynthConfig,
    _active_at,
    _draw_detections,
    _draw_lags,
    _family_births,
)


# from maldrift/ingest.py
def _parse_row(row: dict[str, str]) -> ApkRecord:
    sha = (row.get("sha256") or "").strip()
    dex = parse_timestamp(row["dex_date"])
    vt = int((row.get("vt_detection") or "").strip())
    if vt < 0:
        raise ValueError(f"negative vt_detection: {vt}")
    crawl_raw = (row.get("added") or "").strip()
    scan_raw = (row.get("vt_scan_date") or "").strip()
    size_raw = (row.get("apk_size") or "").strip()
    markets_raw = (row.get("markets") or "").strip()
    return ApkRecord(
        sha256=sha,
        dex_date=dex,
        vt_detection=vt,
        crawl_date=parse_timestamp(crawl_raw) if crawl_raw else None,
        vt_scan_date=parse_timestamp(scan_raw) if scan_raw else None,
        markets=frozenset(markets_raw.split("|")) if markets_raw else frozenset({"unknown"}),
        apk_size=int(size_raw) if size_raw else 0,
        family=(row.get("family") or "").strip() or None,
    )


def parse_metadata(stream: IO[str], strict: bool = False, provenance: str = "") -> ParseResult:
    """Parse an AndroZoo-shaped metadata CSV into a population.

    Duplicate hashes are last-wins (counted); malformed rows are counted and
    skipped unless strict, in which case they raise FormatError.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise FormatError("empty metadata input")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise FormatError(f"metadata input missing required columns: {', '.join(missing)}")
    stats = ParseStats()
    by_sha: dict[str, ApkRecord] = {}
    order: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        stats.rows += 1
        try:
            rec = _parse_row(row)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            if strict:
                raise FormatError(f"malformed metadata row at line {lineno}: {exc}") from exc
            stats.malformed += 1
            continue
        if rec.sha256 in by_sha:
            stats.duplicates += 1
        else:
            order.append(rec.sha256)
        by_sha[rec.sha256] = rec
        stats.parsed += 1
    population = Population(tuple(by_sha[s] for s in order), provenance=provenance)
    return ParseResult(population, stats)


def write_metadata_csv(pop: Population, stream: IO[str]) -> None:
    """Serialize a population in the same CSV schema parse_metadata consumes."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    for rec in pop:
        writer.writerow(
            (
                rec.sha256,
                format_timestamp(rec.dex_date),
                rec.vt_detection,
                "|".join(sorted(rec.markets)),
                format_timestamp(rec.crawl_date) if rec.crawl_date else "",
                format_timestamp(rec.vt_scan_date) if rec.vt_scan_date else "",
                rec.apk_size,
                rec.family or "",
            )
        )



# from maldrift/labeling.py
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


# from maldrift/sizing.py
def plan_sizes(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    plan: SizingPlan,
    params: SizingParams,
) -> SizingResult:
    """Size each stratum of the plan against the eligible pool.

    The eligible pool excludes greyware and records without a timeline date
    (both counted). Spatial plans split each stratum round-half-up at the
    configured malware ratio, capped by class availability.
    """
    if len(pop) == 0:
        raise ValueError("population is empty")
    dated: list[tuple[Period, ClassLabel]] = []
    excluded_undated = excluded_greyware = 0
    granularity = Granularity.MONTH if plan.mode is not PlanMode.YEARLY else Granularity.YEAR
    for rec in pop:
        cls = label(rec, rule)
        if cls is ClassLabel.GREYWARE:
            excluded_greyware += 1
            continue
        ts = timeline_date(rec, policy)
        if ts is None:
            excluded_undated += 1
            continue
        dated.append((period_of(ts, granularity), cls))
    if not dated:
        raise ValueError("no records are datable under the timestamp policy")

    warnings: list[str] = []
    strata: list[StratumSize] = []
    if plan.mode is PlanMode.GLOBAL:
        groups = {None: dated}
    else:
        periods = [p for p, _ in dated]
        groups = {p: [] for p in period_range(min(periods), max(periods))}
        for p, cls in dated:
            groups[p].append((p, cls))

    for period, members in groups.items():
        mw_avail = sum(1 for _, cls in members if cls is ClassLabel.MALWARE)
        gw_avail = len(members) - mw_avail
        if not members:
            warnings.append(f"stratum {period} has no eligible records")
            strata.append(StratumSize(period, 0, 0, 0, 0))
            continue
        n = required_sample_size(len(members), params)
        if plan.spatial:
            mw, gw, mw_short, gw_short = _spatial_split(n, plan.ratio_malware, mw_avail, gw_avail)
            strata.append(
                StratumSize(period, len(members), mw + gw, mw_avail, gw_avail, mw, gw, mw_short, gw_short)
            )
            if mw_short or gw_short:
                warnings.append(
                    f"stratum {period}: shortfall malware={mw_short} goodware={gw_short}"
                )
        else:
            strata.append(StratumSize(period, len(members), n, mw_avail, gw_avail))
    return SizingResult(plan, params, tuple(strata), excluded_undated, excluded_greyware, tuple(warnings))


def compare_plans(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    plans: list[tuple[SizingPlan, SizingParams]],
) -> list[PlanSummary]:
    """Summarize plan totals and expected malware per month on one population.

    For spatial strata the per-month malware expectation follows the enforced
    counts; for pooled strata it follows the pool's malware share under
    uniform sampling. Yearly/global strata spread their expectation over the
    months they cover in proportion to each month's pool.
    """
    month_pool: dict[Period, int] = {}
    month_mw: dict[Period, int] = {}
    for rec in pop:
        cls = label(rec, rule)
        if cls is ClassLabel.GREYWARE:
            continue
        ts = timeline_date(rec, policy)
        if ts is None:
            continue
        month = period_of(ts, Granularity.MONTH)
        month_pool[month] = month_pool.get(month, 0) + 1
        if cls is ClassLabel.MALWARE:
            month_mw[month] = month_mw.get(month, 0) + 1
    if not month_pool:
        raise ValueError("no records are datable under the timestamp policy")
    months = period_range(min(month_pool), max(month_pool))

    summaries = []
    for plan, params in plans:
        sizing = plan_sizes(pop, rule, policy, plan, params)
        expected = {m: 0.0 for m in months}
        for stratum in sizing.strata:
            if stratum.population == 0:
                continue
            if stratum.period is None:
                covered = months
            elif stratum.period.granularity is Granularity.YEAR:
                covered = [m for m in months if m.year == stratum.period.year]
            else:
                covered = [stratum.period]
            pool = sum(month_pool.get(m, 0) for m in covered)
            mw_pool = sum(month_mw.get(m, 0) for m in covered)
            for m in covered:
                if plan.spatial:
                    if mw_pool and stratum.malware:
                        expected[m] += stratum.malware * month_mw.get(m, 0) / mw_pool
                elif pool:
                    expected[m] += stratum.n * month_mw.get(m, 0) / pool
        values = [expected[m] for m in months]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        summaries.append(PlanSummary(plan.name(params), sizing.total, mean, std))
    return summaries


# from maldrift/sampler.py
_GRAN_CODE = {Granularity.MONTH: 0, Granularity.YEAR: 1}


_CLASS_CODE = {None: 0, ClassLabel.GOODWARE: 1, ClassLabel.MALWARE: 2}


_GLOBAL_PERIOD_CODE = 10**6


def _sort_entries(entries: list[ManifestEntry]) -> tuple[ManifestEntry, ...]:
    return tuple(sorted(entries, key=lambda e: (e.period.index, e.label.value, e.sha256)))


def _stratum_rng(seed: int, granularity: Granularity, period: Optional[Period], cls: Optional[ClassLabel]) -> np.random.Generator:
    period_code = period.index if period is not None else _GLOBAL_PERIOD_CODE
    ss = np.random.SeedSequence([seed, _GRAN_CODE[granularity], period_code, _CLASS_CODE[cls]])
    return np.random.Generator(np.random.PCG64(ss))


def _take(candidates: list[ManifestEntry], count: int, rng: np.random.Generator) -> list[ManifestEntry]:
    ordered = sorted(candidates, key=lambda e: e.sha256)
    if count >= len(ordered):
        return ordered
    picks = rng.permutation(len(ordered))[:count]
    return [ordered[i] for i in picks]


def _default_created(pop: Population) -> str:
    """Deterministic data-horizon stamp: the latest timestamp seen in the source.

    A wall-clock stamp would break byte-for-byte reproducibility of identical
    runs, so the manifest is dated by its data instead.
    """
    stamps = [rec.crawl_date for rec in pop if rec.crawl_date is not None]
    stamps.extend(rec.dex_date for rec in pop)
    return format_timestamp(max(stamps)) if stamps else "1970-01-01 00:00:00"


def stratified_sample(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    sizing: SizingResult,
    seed: int,
    market_filter: Optional[frozenset[str]] = None,
    created: Optional[str] = None,
) -> DatasetManifest:
    """Draw the per-stratum counts of a sizing result as a reproducible manifest.

    Greyware and undatable records never enter the candidate pool; records
    sharing no tag with market_filter are excluded. Stratum shortfalls take
    all available candidates and are recorded, never backfilled from
    neighboring periods.
    """
    plan = sizing.plan
    stratum_gran = Granularity.YEAR if plan.mode is PlanMode.YEARLY else Granularity.MONTH
    pools: dict[tuple[Optional[Period], Optional[ClassLabel]], list[ManifestEntry]] = {}
    for rec in pop:
        cls = label(rec, rule)
        if cls is ClassLabel.GREYWARE:
            continue
        if market_filter and not (rec.markets & market_filter):
            continue
        ts = timeline_date(rec, policy)
        if ts is None:
            continue
        entry_period = period_of(ts, stratum_gran)
        stratum_period = None if plan.mode is PlanMode.GLOBAL else entry_period
        if plan.mode is PlanMode.GLOBAL:
            entry_period = period_of(ts, Granularity.MONTH)
        entry = ManifestEntry(rec.sha256, cls, entry_period, rec.markets, rec.family)
        key = (stratum_period, cls if plan.spatial else None)
        pools.setdefault(key, []).append(entry)
    if not pools:
        raise ValueError("empty candidate pool: no labeled, datable records to sample")

    fills: list[StratumFill] = []
    entries: list[ManifestEntry] = []
    for stratum in sizing.strata:
        if plan.spatial:
            # echo the uncapped plan request so shortfalls stay visible here
            cells = [
                (ClassLabel.MALWARE, (stratum.malware or 0) + stratum.malware_shortfall),
                (ClassLabel.GOODWARE, (stratum.goodware or 0) + stratum.goodware_shortfall),
            ]
        else:
            cells = [(None, stratum.n)]
        for cls, requested in cells:
            rng = _stratum_rng(seed, stratum_gran, stratum.period, cls)
            chosen = _take(pools.get((stratum.period, cls), []), requested, rng)
            fills.append(StratumFill(stratum.period, cls, requested, len(chosen)))
            entries.extend(chosen)
    spec = build_spec_echo(
        rule, policy, plan, sizing.params, seed, pop.snapshot_date, market_filter
    )
    return DatasetManifest(
        entries=_sort_entries(entries),
        spec=spec,
        created=created if created is not None else _default_created(pop),
        strata=tuple(fills),
    )


def verify_constraints(
    manifest: DatasetManifest,
    population: Optional[Population] = None,
    c3_tolerance: int = 1,
    market_threshold: float = 0.10,
) -> list[CheckResult]:
    """Check a manifest against the temporal/spatial/market constraints.

    C2: any period holding one class must hold the other (unless the plan
    requested zero). C3: per-period malware count within c3_tolerance of
    round(n * ratio). Market consistency: TV distance between class market
    distributions at most market_threshold. Timestamp policy: entries map
    into their recorded periods (full check needs the source population).
    """
    by_period = manifest.by_period()
    plan = manifest.spec.get("plan") or {}
    spatial = bool(plan.get("spatial"))
    ratio = float(plan.get("ratio_malware", 0.10))
    requested: dict[tuple[Optional[str], Optional[str]], int] = {}
    for fill in manifest.strata:
        key = (str(fill.period) if fill.period else None, fill.label.value if fill.label else None)
        requested[key] = fill.requested

    c2_bad = []
    for period in sorted(by_period, key=lambda p: p.index):
        entries = by_period[period]
        mw = sum(1 for e in entries if e.label is ClassLabel.MALWARE)
        gw = len(entries) - mw
        if spatial:
            req_mw = requested.get((str(period), ClassLabel.MALWARE.value))
            req_gw = requested.get((str(period), ClassLabel.GOODWARE.value))
        else:
            pooled = requested.get((str(period), None))
            req_mw = req_gw = pooled
        if mw == 0 and (req_mw is None or req_mw > 0):
            c2_bad.append(f"{period}: no malware")
        if gw == 0 and (req_gw is None or req_gw > 0):
            c2_bad.append(f"{period}: no goodware")
    checks = [
        CheckResult(
            "C2",
            not c2_bad,
            "all periods hold both classes" if not c2_bad else "; ".join(c2_bad[:5]),
        )
    ]

    c3_bad = []
    for period in sorted(by_period, key=lambda p: p.index):
        entries = by_period[period]
        mw = sum(1 for e in entries if e.label is ClassLabel.MALWARE)
        expected = round_half_up(len(entries) * ratio)
        if abs(mw - expected) > c3_tolerance:
            c3_bad.append(f"{period}: {mw} malware, expected {expected}±{c3_tolerance}")
    checks.append(
        CheckResult(
            "C3",
            not c3_bad,
            f"per-period malware within ±{c3_tolerance} of round(n·{ratio})"
            if not c3_bad
            else "; ".join(c3_bad[:5]),
        )
    )

    try:
        consistency = market_consistency_from_pairs(
            ((e.markets, e.label) for e in manifest.entries), threshold=market_threshold
        )
        checks.append(
            CheckResult(
                "market_consistency",
                consistency.passed,
                f"tv_distance={consistency.tv_distance:.4f} (threshold {market_threshold})",
            )
        )
    except ValueError as exc:
        checks.append(CheckResult("market_consistency", False, str(exc)))

    if population is None:
        checks.append(
            CheckResult(
                "timestamp_policy",
                True,
                "structural check only (source population not provided)",
            )
        )
    else:
        policy = TimestampPolicy(
            TimestampKind(manifest.spec["policy"]["kind"]),
            TimestampKind(manifest.spec["policy"]["fallback"])
            if manifest.spec["policy"].get("fallback")
            else None,
        )
        bad = []
        for entry in manifest.entries:
            rec = population.by_sha.get(entry.sha256)
            ts = timeline_date(rec, policy) if rec is not None else None
            if ts is None or period_of(ts, entry.period.granularity) != entry.period:
                bad.append(entry.sha256)
        checks.append(
            CheckResult(
                "timestamp_policy",
                not bad,
                "all entries dated by the declared policy"
                if not bad
                else f"{len(bad)} entries mis-dated (e.g. {bad[0]})",
            )
        )
    return checks


def market_scenario(
    pop: Population,
    name: str,
    rule: LabelRule,
    policy: TimestampPolicy,
    seed: int,
    gp_tags: frozenset[str] = DEFAULT_GP_TAGS,
) -> tuple[DatasetManifest, DatasetManifest]:
    """Build one of the fixed train/test market-composition experiments.

    Records carrying any gp_tag form the GP group; all others are third-party
    (3PM). Train and test are drawn disjointly from one shuffle per cell.
    """
    if name not in MARKET_SCENARIOS:
        raise ValueError(f"unknown market scenario {name!r}; choose from {sorted(MARKET_SCENARIOS)}")
    train_cells, test_cells = MARKET_SCENARIOS[name]
    pools: dict[tuple[ClassLabel, str], list[ManifestEntry]] = {}
    for rec in pop:
        cls = label(rec, rule)
        if cls is ClassLabel.GREYWARE:
            continue
        ts = timeline_date(rec, policy)
        if ts is None:
            continue
        group = "GP" if rec.markets & gp_tags else "3PM"
        entry = ManifestEntry(rec.sha256, cls, period_of(ts, Granularity.MONTH), rec.markets, rec.family)
        pools.setdefault((cls, group), []).append(entry)

    cell_order = [
        (ClassLabel.GOODWARE, "GP", train_cells[0], test_cells[0]),
        (ClassLabel.GOODWARE, "3PM", train_cells[1], test_cells[1]),
        (ClassLabel.MALWARE, "GP", train_cells[2], test_cells[2]),
        (ClassLabel.MALWARE, "3PM", train_cells[3], test_cells[3]),
    ]
    train_entries: list[ManifestEntry] = []
    test_entries: list[ManifestEntry] = []
    train_fills: list[StratumFill] = []
    test_fills: list[StratumFill] = []
    for cls, group, n_train, n_test in cell_order:
        if n_train + n_test == 0:
            continue
        pool = pools.get((cls, group), [])
        if len(pool) < n_train + n_test:
            raise ValueError(
                f"insufficient population for cell ({group}, {cls.value}): "
                f"need {n_train + n_test}, have {len(pool)}"
            )
        # one shuffle per (class, group) cell keeps train/test disjoint
        code = 1 if group == "GP" else 2
        ordered = sorted(pool, key=lambda e: e.sha256)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, code, _CLASS_CODE[cls]])))
        picks = rng.permutation(len(ordered))
        train_entries.extend(ordered[i] for i in picks[:n_train])
        test_entries.extend(ordered[i] for i in picks[n_train : n_train + n_test])
        train_fills.append(StratumFill(None, cls, n_train, n_train, note=group))
        test_fills.append(StratumFill(None, cls, n_test, n_test, note=group))

    def build(entries: list[ManifestEntry], fills: list[StratumFill], split: str) -> DatasetManifest:
        spec = build_spec_echo(
            rule,
            policy,
            None,
            None,
            seed,
            pop.snapshot_date,
            None,
            extra={"scenario": name, "split": split, "gp_tags": sorted(gp_tags)},
        )
        return DatasetManifest(
            entries=_sort_entries(entries),
            spec=spec,
            created=_default_created(pop),
            strata=tuple(fills),
        )

    return build(train_entries, train_fills, "train"), build(test_entries, test_fills, "test")


# from maldrift/metrics.py
def malware_families_by_period(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    granularity: Granularity = Granularity.MONTH,
) -> dict[Period, list[Optional[str]]]:
    """Family labels of every datable malware record, grouped by period."""
    out: dict[Period, list[Optional[str]]] = {}
    for rec in pop:
        if label(rec, rule) is not ClassLabel.MALWARE:
            continue
        ts = timeline_date(rec, policy)
        if ts is None:
            continue
        out.setdefault(period_of(ts, granularity), []).append(rec.family)
    return out


# The manifest, prediction and evaluation code as it was before manifests and
# prediction sets became numpy columns: one ManifestEntry, PredictionRow or
# dict per entry or row, through the row views.


# from maldrift/sampler.py
def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return {
        "spec": manifest.spec,
        "created": manifest.created,
        "strata": [
            {
                "period": str(f.period) if f.period else None,
                "label": f.label.value if f.label else None,
                "requested": f.requested,
                "sampled": f.sampled,
                "shortfall": f.shortfall,
                "note": f.note,
            }
            for f in manifest.strata
        ],
        "checks": list(manifest.checks),
        "violations": list(manifest.violations),
        "entries": [
            {
                "sha256": e.sha256,
                "label": e.label.value,
                "period": str(e.period),
                "markets": sorted(e.markets),
                "family": e.family,
            }
            for e in manifest.entries
        ],
    }


def manifest_from_dict(data: dict) -> DatasetManifest:
    entries = tuple(
        ManifestEntry(
            sha256=e["sha256"],
            label=ClassLabel(e["label"]),
            period=Period.parse(e["period"]),
            markets=frozenset(e["markets"]),
            family=e.get("family"),
        )
        for e in data["entries"]
    )
    strata = tuple(
        StratumFill(
            period=Period.parse(f["period"]) if f.get("period") else None,
            label=ClassLabel(f["label"]) if f.get("label") else None,
            requested=f["requested"],
            sampled=f["sampled"],
            note=f.get("note", ""),
        )
        for f in data.get("strata", ())
    )
    return DatasetManifest(
        entries=entries,
        spec=data["spec"],
        created=data["created"],
        strata=strata,
        checks=tuple(data.get("checks", ())),
        violations=tuple(data.get("violations", ())),
    )


def write_manifest_json(manifest: DatasetManifest, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(manifest_to_dict(manifest), indent=2) + "\n")


_SHA256 = re.compile(r"[0-9a-f]{64}")


def read_manifest_json(path: Union[str, Path]) -> DatasetManifest:
    """Load a manifest; a malformed file raises FormatError naming the bad key or value."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: manifest must be a JSON object, not {type(data).__name__}")
    _require_keys(data, ("spec", "created", "entries"), f"{path}: manifest")
    if not isinstance(data["spec"], dict) or not isinstance(data["entries"], list):
        raise FormatError(f"{path}: manifest 'spec' must be an object and 'entries' a list")
    for i, entry in enumerate(data["entries"]):
        where = f"{path}: entries[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        _require_keys(entry, ("sha256", "label", "period", "markets"), where)
        sha = entry["sha256"]
        if not isinstance(sha, str) or not _SHA256.fullmatch(sha):
            raise FormatError(f"{where}: sha256 {sha!r} is not 64 lowercase hex characters")
    _check_spec(data["spec"], f"{path}: spec")
    try:
        return manifest_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def write_manifest_csv(manifest: DatasetManifest, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("sha256", "label", "period"))
    for entry in manifest.entries:
        writer.writerow((entry.sha256, entry.label.value, str(entry.period)))


# from maldrift/ingest.py
def parse_predictions(
    stream: IO[str], name: str = "predictions", threshold: float = 0.5, strict: bool = False
) -> tuple[PredictionSet, ParseStats]:
    """Parse a prediction CSV with header sha256,score[,label].

    A row csv cannot read (say, a field over csv.field_size_limit()) is malformed.
    """
    stats = ParseStats()
    try:
        rows = _read_predictions(csv.DictReader(stream), stats, strict)
    except UnicodeDecodeError as exc:
        raise _not_utf8(stream, name, stats.rows, exc) from None
    return PredictionSet(name, rows, threshold), stats


def _read_predictions(reader: csv.DictReader, stats: ParseStats, strict: bool) -> dict[str, PredictionRow]:
    try:
        header = reader.fieldnames
    except csv.Error as exc:
        raise FormatError(f"unreadable prediction header: {exc}") from None
    if header is None:
        raise FormatError("empty prediction input")
    if "sha256" not in header or "score" not in header:
        raise FormatError("prediction input must have columns sha256,score[,label]")
    has_label = "label" in header
    rows: dict[str, PredictionRow] = {}
    for lineno, row in enumerate(_csv_rows(reader), start=2):
        stats.rows += 1
        try:
            if isinstance(row, csv.Error):
                raise row
            sha = (row.get("sha256") or "").strip().lower()
            if len(sha) != 64:
                raise ValueError(f"bad sha256 {sha!r}")
            score = float(row["score"])
            raw_label = (row.get("label") or "").strip() if has_label else ""
            predicted = None
            if raw_label:
                predicted = int(raw_label)
                if predicted not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {predicted}")
            elif not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0,1] without a label column")
        except (ValueError, KeyError, TypeError, csv.Error) as exc:
            if strict:
                raise FormatError(f"malformed prediction row at line {lineno}: {exc}") from exc
            stats.malformed += 1
            continue
        if sha in rows:
            stats.duplicates += 1
        rows[sha] = PredictionRow(sha, score, predicted)
        stats.parsed += 1
    return rows


# from maldrift/metrics.py
TruthEntry = tuple[str, ClassLabel, Period]


def confusion_metrics(
    truth: Iterable[TruthEntry],
    preds: PredictionSet,
    granularity: Optional[Granularity] = None,
    lenient: bool = False,
) -> ConfusionReport:
    """Per-period confusion counts and derived metrics; positives are malware.

    Every truth hash needs a prediction: missing ones raise (with the hash
    list) unless lenient, in which case they are dropped and counted.
    Empty-denominator metrics are explicit absent values, never silent zeros.
    """
    raw: dict[Period, list[int]] = {}
    missing: list[str] = []
    for sha, cls, period in truth:
        if cls is ClassLabel.GREYWARE:
            raise ValueError(f"greyware entry {sha} cannot be scored")
        if granularity is Granularity.YEAR:
            period = period.year_period()
        if sha not in preds.rows:
            missing.append(sha)
            continue
        predicted = preds.predicted(sha)
        actual = 1 if cls is ClassLabel.MALWARE else 0
        cell = raw.setdefault(period, [0, 0, 0, 0])  # tp fp tn fn
        if actual and predicted:
            cell[0] += 1
        elif not actual and predicted:
            cell[1] += 1
        elif not actual and not predicted:
            cell[2] += 1
        else:
            cell[3] += 1
    if missing and not lenient:
        shown = ", ".join(missing[:10])
        raise MissingPredictionsError(
            f"{len(missing)} truth hashes lack predictions (e.g. {shown})", tuple(missing)
        )
    ordered = sorted(raw, key=lambda p: p.index)
    counts = {p: ConfusionCounts(*raw[p]) for p in ordered}
    series = {
        name: MetricSeries(name, tuple((p, counts[p].metric(name)) for p in ordered))
        for name in METRIC_NAMES
    }
    return ConfusionReport(counts, series, tuple(missing))


# from maldrift/report.py
def evaluate_manifest(
    manifest: DatasetManifest,
    predsets: Sequence[PredictionSet],
    window_months: int,
    metric: str = "f1",
    lenient: bool = False,
    allow_partial_last: bool = False,
) -> EvaluationReport:
    """Rolling-window evaluation of prediction sets against a manifest.

    Each split's AUT is computed over the test months with a defined metric
    value; the all-months variant is reported alongside when it differs
    (it is refused, not interpolated, when a month is absent).
    """
    periods = {e.period for e in manifest.entries}
    if not periods:
        raise ValueError("manifest has no entries to evaluate")
    if any(p.granularity is not Granularity.MONTH for p in periods):
        raise ValueError("temporal evaluation requires a monthly manifest")
    plan = rolling_splits(
        min(periods, key=lambda p: p.index),
        max(periods, key=lambda p: p.index),
        window_months,
        allow_partial_last,
    )
    manifest_hashes = manifest.hashes()
    by_period = manifest.by_period()

    overlap: dict[int, MetricSeries] = {}
    for idx, split in enumerate(plan.splits):
        train_families = [
            e.family
            for month in split.train
            for e in by_period.get(month, [])
            if e.label is ClassLabel.MALWARE
        ]
        points = []
        for month in split.test:
            month_families = [
                e.family for e in by_period.get(month, []) if e.label is ClassLabel.MALWARE
            ]
            value = family_overlap(month_families, train_families) if month_families else None
            points.append((month, value))
        overlap[idx] = MetricSeries("family_overlap", tuple(points))

    results = []
    window_series: dict[tuple[str, int], dict[str, MetricSeries]] = {}
    for preds in predsets:
        extras = set(preds.rows) - manifest_hashes
        if extras and not lenient:
            shown = ", ".join(sorted(extras)[:10])
            raise MissingPredictionsError(
                f"{len(extras)} prediction hashes do not resolve against the manifest (e.g. {shown})",
                tuple(sorted(extras)),
            )
        auts: list[float] = []
        stricts: list[Optional[float]] = []
        for idx, split in enumerate(plan.splits):
            truth = [
                (e.sha256, e.label, e.period)
                for month in split.test
                for e in by_period.get(month, [])
            ]
            if not truth:
                raise ValueError(f"split {split.label()} has no test entries")
            report = confusion_metrics(truth, preds, lenient=lenient)
            window_series[(preds.name, idx)] = report.series
            series = report.series[metric]
            strict_points = dict(series.points)
            strict_values = [strict_points.get(month) for month in split.test]
            defined = [v for v in strict_values if v is not None]
            if not defined:
                raise ValueError(
                    f"split {split.label()} has no defined {metric} value for {preds.name}"
                )
            auts.append(aut(defined))
            stricts.append(aut(strict_values) if all(v is not None for v in strict_values) else None)
        mu, sigma = a_aut(auts)
        strict_differs = any(
            s is None or abs(s - a) > 1e-12 for s, a in zip(stricts, auts)
        )
        results.append(
            PredsetResult(preds.name, tuple(auts), mu, sigma, tuple(stricts), strict_differs)
        )
    labels = tuple(split.label() for split in plan.splits)
    return EvaluationReport(window_months, labels, _rank(results), window_series, overlap)


# from maldrift/labeling.py
def _normalized_market_dist(items: Iterable[frozenset[str]], priority: tuple[str, ...]) -> dict[str, float]:
    key = market_sort_key(priority)  # attribute_market's key, built once per call
    counts = Counter(min(markets, key=key) for markets in items)
    total = sum(counts.values())
    return {tag: c / total for tag, c in counts.items()}


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
    return _consistency(_normalized_market_dist(gw, priority), _normalized_market_dist(mw, priority), threshold)


# from maldrift/synth.py
def _draw_markets(mixture: dict[str, float], rng: np.random.Generator, n: int) -> list[frozenset[str]]:
    keys = sorted(mixture)
    weights = np.array([mixture[k] for k in keys], dtype=float)
    weights = weights / weights.sum()
    picks = rng.choice(len(keys), size=n, p=weights)
    groups = [frozenset(k.split("|")) for k in keys]
    return [groups[i] for i in picks]


def _generate_month(config: SynthConfig, month_offset: int, active: list[str]) -> list[tuple[ApkRecord, ClassLabel]]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, month_offset])))
    period = Period.parse(config.start).shifted(month_offset)
    month_start = period.start()
    month_seconds = int((period.successor().start() - month_start).total_seconds())
    n_mw = config.monthly_malware()
    n_gw = config.per_month - n_mw

    dex_offsets = rng.integers(0, month_seconds, size=config.per_month)
    lag_days = _draw_lags(config.lag, rng, config.per_month)
    sizes = rng.integers(config.size_range[0], config.size_range[1] + 1, size=config.per_month)
    gw_markets = _draw_markets(config.goodware_markets, rng, n_gw)
    mw_markets = _draw_markets(config.malware_markets, rng, n_mw)
    gw_det = _draw_detections(config.goodware_detections, rng, n_gw)
    mw_det = _draw_detections(config.malware_detections, rng, n_mw)
    families = rng.choice(len(active), size=n_mw) if (n_mw and active) else np.zeros(0, dtype=int)

    rows = []
    for i in range(config.per_month):
        malware = i >= n_gw
        j = i - n_gw if malware else i
        sha = hashlib.sha256(f"synth-{config.seed}-{month_offset}-{i}".encode()).hexdigest()
        dex = month_start + timedelta(seconds=int(dex_offsets[i]))
        crawl = dex + timedelta(seconds=int(lag_days[i] * 86400))
        rec = ApkRecord(
            sha256=sha,
            dex_date=dex,
            vt_detection=int(mw_det[j] if malware else gw_det[j]),
            crawl_date=crawl,
            vt_scan_date=crawl,
            markets=mw_markets[j] if malware else gw_markets[j],
            apk_size=int(sizes[i]),
            family=active[families[j]] if malware else None,
        )
        rows.append((rec, ClassLabel.MALWARE if malware else ClassLabel.GOODWARE))
    return rows


def generate(config: SynthConfig) -> tuple[Population, GroundTruth]:
    """Deterministic synthetic population plus its ground truth.

    Per-month record and class counts are exact and seed-independent; all
    draws run on month-derived sub-seeds, so no month's records depend on
    another month's draws.
    """
    config.validate()
    births = _family_births(config)
    active_by_month = [
        sorted(_active_at(births, m, config.family_lifetime)) for m in range(config.months)
    ]
    month_rows = [_generate_month(config, m, active_by_month[m]) for m in range(config.months)]

    records = []
    true_class = {}
    for rows in month_rows:
        for rec, cls in rows:
            records.append(rec)
            true_class[rec.sha256] = cls
    start = Period.parse(config.start)
    active_families = {
        start.shifted(m): tuple(active_by_month[m]) for m in range(config.months)
    }
    pop = Population(tuple(records), provenance=f"synth(seed={config.seed})")
    return pop, GroundTruth(active_families, true_class)


# read_manifest_json and manifest_from_dict as they were before the manifest
# was read a block and a chunk of entries at a time: json.loads of the whole
# text, then every entry checked and coded in one pass.


def read_manifest_json_whole(path: Union[str, Path]) -> DatasetManifest:
    """Load a manifest; a malformed file raises FormatError naming the bad key or value."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return manifest_from_dict_whole(data, str(path))


def manifest_from_dict_whole(data: dict, where: str = "manifest") -> DatasetManifest:
    """The manifest of a manifest_to_dict() dict, such as decoded manifest JSON.

    Every value it reads is checked; a fault is a FormatError naming where
    (the file), the entry or stratum, and the key.
    """
    if not isinstance(data, dict):
        raise FormatError(f"{where}: manifest must be a JSON object, not {type(data).__name__}")
    _require_keys(data, ("spec", "created", "entries"), f"{where}: manifest")
    if not isinstance(data["spec"], dict) or not isinstance(data["entries"], list):
        raise FormatError(f"{where}: manifest 'spec' must be an object and 'entries' a list")
    columns, market_sets, families = _entry_columns_of(data["entries"], f"{where}: entries")
    _check_spec(data["spec"], f"{where}: spec")
    strata = _strata_of(data.get("strata", []), f"{where}: strata")
    try:
        return DatasetManifest._from_columns(
            columns,
            market_sets,
            families,
            spec=data["spec"],
            created=data["created"],
            strata=strata,
            checks=tuple(data.get("checks", ())),
            violations=tuple(data.get("violations", ())),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {type(exc).__name__}: {exc}") from exc


_MISSING = object()
_ENTRY_KEYS = ("sha256", "label", "period", "markets")
_LABEL_CODES = {label.value: code for code, label in enumerate(CLASSES)}


def _entry_columns_of(entries: list, where: str) -> tuple[dict, tuple, tuple]:
    """Entry columns and value tables of decoded JSON entries. Each value check
    runs over all entries, and the first entry failing any is named in the
    FormatError. A missing key or a non-object entry fails a value check too."""
    try:
        rows = entries
        values = [[row[key] for row in rows] for key in _ENTRY_KEYS]
    except (KeyError, TypeError):  # a missing key or an entry that is not an object
        rows = [e if isinstance(e, dict) else {} for e in entries]
        values = [[row.get(key, _MISSING) for row in rows] for key in _ENTRY_KEYS]
    shas, labels, periods, markets = values
    try:
        spans = _spans(tuple(shas))
    except TypeError:  # a hash that is not a string
        spans = _spans(tuple(v if isinstance(v, str) else "" for v in shas))
    sha256, sha_ok = _hashes(*spans)
    label = _codes(labels, lambda v: _LABEL_CODES.get(v, -1) if isinstance(v, str) else -1)
    keys = _codes(periods, lambda v: _period_key(v) if isinstance(v, str) else -1)
    market_sets: dict[frozenset[str], int] = {}

    def market_code(tags) -> int:
        if not isinstance(tags, tuple) or not all(isinstance(t, str) for t in tags):
            return -1
        return market_sets.setdefault(frozenset(tags), len(market_sets))

    # a list of tags reads as a tuple, anything else as itself
    if set(map(type, markets)) <= {list}:
        tag_lists = list(map(tuple, markets))
    else:
        tag_lists = [tuple(v) if isinstance(v, list) else v for v in markets]
    market = _codes(tag_lists, market_code)
    families: dict[str, int] = {}
    family = _codes(
        [row.get("family") for row in rows],
        lambda v: -1 if v is None else families.setdefault(v, len(families)) if isinstance(v, str) else -2,
    )
    faults = (
        (~sha_ok, lambda e: f": sha256 {e['sha256']!r} is not 64 lowercase hex characters"),
        (label < 0, lambda e: f": label {e['label']!r} is not one of {', '.join(_LABEL_CODES)}"),
        (keys < 0, lambda e: f": period {e['period']!r} is not a YYYY or YYYY-MM period"),
        (market < 0, lambda e: f": markets {e['markets']!r} is not a list of strings"),
        (family < -1, lambda e: f": family {e['family']!r} is not null or a string"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in faults])
    if bad.any():
        i = int(bad.argmax())
        entry, at = entries[i], f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{at} must be an object")
        _require_keys(entry, _ENTRY_KEYS, at)
        describe = next(describe for mask, describe in faults if mask[i])
        raise FormatError(f"{at}{describe(entry)}")
    columns = {
        "sha256": sha256,
        "label": label,
        "period": keys // len(_GRANULARITIES),
        "granularity": keys % len(_GRANULARITIES),
        "markets": market,
        "family": family,
    }
    return columns, tuple(market_sets), tuple(families)


def _codes(values: list, code_of) -> np.ndarray:
    """code_of(value) of each value, called once per distinct value in first-seen
    order; an unhashable value (a list or an object, say) gets code_of(_MISSING)."""
    try:
        table = {value: code_of(value) for value in dict.fromkeys(values)}
    except TypeError:
        return np.array([code_of(_MISSING if _unhashable(v) else v) for v in values], dtype=np.int64)
    return np.fromiter(map(table.__getitem__, values), dtype=np.int64, count=len(values))


def _unhashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return True
    return False


def _period_key(text: str) -> int:
    """The key (see _period_of) of a YYYY or YYYY-MM text; -1 for any other text."""
    try:
        period = Period.parse(text)
    except ValueError:
        return -1
    return period.index * len(_GRANULARITIES) + _GRANULARITIES.index(period.granularity)


def _strata_of(strata, where: str) -> tuple[StratumFill, ...]:
    if not isinstance(strata, list):
        raise FormatError(f"{where} must be a list")
    fills = []
    for i, fill in enumerate(strata):
        at = f"{where}[{i}]"
        if not isinstance(fill, dict):
            raise FormatError(f"{at} must be an object")
        _require_keys(fill, ("requested", "sampled"), at)
        for key in ("requested", "sampled"):
            if isinstance(fill[key], bool) or not isinstance(fill[key], int):
                raise FormatError(f"{at}: {key} {fill[key]!r} is not an integer")
        period = label = None
        try:
            if fill.get("period"):
                period = Period.parse(fill["period"])
        except (AttributeError, ValueError):
            raise FormatError(f"{at}: period {fill['period']!r} is not null, a YYYY or a YYYY-MM period") from None
        if fill.get("label"):
            if not isinstance(fill["label"], str) or fill["label"] not in _LABEL_CODES:
                raise FormatError(f"{at}: label {fill['label']!r} is not null or one of {', '.join(_LABEL_CODES)}")
            label = ClassLabel(fill["label"])
        note = fill.get("note", "")
        if not isinstance(note, str):
            raise FormatError(f"{at}: note {note!r} is not a string")
        fills.append(StratumFill(period, label, fill["requested"], fill["sampled"], note))
    return tuple(fills)
