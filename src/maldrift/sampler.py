"""Reproducible stratified sampling with constraint verification.

Selection is input-order independent: candidates are keyed by sorted sha256,
shuffled with a generator derived from (seed, period, class), and taken as a
prefix. Identical population content, parameters, and seed therefore yield a
byte-identical manifest.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np

from .errors import FormatError
from .labeling import (
    CLASSES,
    GREYWARE,
    LabelRule,
    TimestampKind,
    TimestampPolicy,
    class_codes,
    market_consistency_from_pairs,
    timeline_dates,
)
from .model import ClassLabel, Granularity, Period, Population, format_timestamp, period_indices
from .sizing import PlanMode, SizingParams, SizingPlan, SizingResult, round_half_up
from .version import __version__

_GRAN_CODE = {Granularity.MONTH: 0, Granularity.YEAR: 1}
_CLASS_CODE = {None: 0, ClassLabel.GOODWARE: 1, ClassLabel.MALWARE: 2}
_GLOBAL_PERIOD_CODE = 10**6
_SHA256 = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class ManifestEntry:
    sha256: str
    label: ClassLabel
    period: Period
    markets: frozenset[str]
    family: Optional[str] = None


@dataclass(frozen=True)
class StratumFill:
    period: Optional[Period]
    label: Optional[ClassLabel]
    requested: int
    sampled: int
    note: str = ""

    @property
    def shortfall(self) -> int:
        return self.requested - self.sampled


@dataclass(frozen=True)
class DatasetManifest:
    """The reproducible output of a sampling run: entries plus full parameter echo."""

    entries: tuple[ManifestEntry, ...]
    spec: dict
    created: str
    strata: tuple[StratumFill, ...] = ()
    checks: tuple[dict, ...] = ()
    violations: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.sha256 in seen:
                raise ValueError(f"duplicate sha256 in manifest: {entry.sha256}")
            seen.add(entry.sha256)

    def hashes(self) -> set[str]:
        return {e.sha256 for e in self.entries}

    def by_period(self) -> dict[Period, list[ManifestEntry]]:
        out: dict[Period, list[ManifestEntry]] = {}
        for entry in self.entries:
            out.setdefault(entry.period, []).append(entry)
        return out


def build_spec_echo(
    rule: LabelRule,
    policy: TimestampPolicy,
    plan: Optional[SizingPlan],
    params: Optional[SizingParams],
    seed: int,
    snapshot_date: Optional[datetime] = None,
    market_filter: Optional[frozenset[str]] = None,
    extra: Optional[dict] = None,
) -> dict:
    echo = {
        "tool_version": __version__,
        "seed": seed,
        "rule": {"vtt": rule.vtt},
        "policy": {
            "kind": policy.kind.value,
            "fallback": policy.fallback.value if policy.fallback else None,
        },
        "plan": None
        if plan is None
        else {"mode": plan.mode.value, "spatial": plan.spatial, "ratio_malware": plan.ratio_malware},
        "params": None
        if params is None
        else {
            "confidence": params.confidence,
            "delta": params.delta,
            "p": params.p,
            "bonferroni_m": params.bonferroni_m,
        },
        "snapshot_date": format_timestamp(snapshot_date) if snapshot_date else None,
        "market_filter": sorted(market_filter) if market_filter else None,
    }
    if extra:
        echo.update(extra)
    return echo


def _stratum_rng(seed: int, granularity: Granularity, period: Optional[Period], cls: Optional[ClassLabel]) -> np.random.Generator:
    period_code = period.index if period is not None else _GLOBAL_PERIOD_CODE
    ss = np.random.SeedSequence([seed, _GRAN_CODE[granularity], period_code, _CLASS_CODE[cls]])
    return np.random.Generator(np.random.PCG64(ss))


def _candidates(
    pop: Population, rule: LabelRule, policy: TimestampPolicy, keep: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the labeled, datable records (within keep) in ascending sha256
    order, with their class codes and timeline dates."""
    classes = class_codes(pop, rule)
    dates = timeline_dates(pop, policy)
    eligible = (classes != GREYWARE) & ~np.isnat(dates)
    if keep is not None:
        eligible &= keep
    rows = pop.sha_order[eligible[pop.sha_order]]
    return rows, classes[rows], dates[rows]


def _take(count: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Positions drawn from a sha-sorted pool of size: all of it, or a seeded prefix of a permutation."""
    if count >= size:
        return np.arange(size)
    return rng.permutation(size)[:count]


def _entries(
    pop: Population, rows: np.ndarray, classes: np.ndarray, periods: np.ndarray, granularity: Granularity
) -> list[ManifestEntry]:
    """Manifest entries for the given rows, their class codes and period indices."""
    families = (*pop.families, None)  # code -1 picks the None
    period_of_index = {i: Period(granularity, i) for i in set(periods.tolist())}
    return [
        ManifestEntry(sha, CLASSES[cls], period_of_index[period], pop.market_sets[markets], families[family])
        for sha, cls, period, markets, family in zip(
            pop.sha256[rows].astype("U64").tolist(),
            classes.tolist(),
            periods.tolist(),
            pop.markets[rows].tolist(),
            pop.family[rows].tolist(),
        )
    ]


def _default_created(pop: Population) -> str:
    """Deterministic data-horizon stamp: the latest timestamp seen in the source.

    A wall-clock stamp would break byte-for-byte reproducibility of identical
    runs, so the manifest is dated by its data instead.
    """
    crawled = pop.crawl_date[~np.isnat(pop.crawl_date)]
    stamps = np.concatenate([crawled, pop.dex_date])
    return format_timestamp(stamps.max().item()) if stamps.size else "1970-01-01 00:00:00"


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
    keep = pop.carrying_any(market_filter) if market_filter else None
    rows, classes, dates = _candidates(pop, rule, policy, keep)
    if not rows.size:
        raise ValueError("empty candidate pool: no labeled, datable records to sample")
    periods = period_indices(dates, stratum_gran)
    pooled = plan.mode is PlanMode.GLOBAL
    # one key per stratum cell: its period (0 when global) and, when spatial, its class
    zeros = np.zeros_like(periods)
    keys = (zeros if pooled else periods) * len(CLASSES) + (classes if plan.spatial else zeros)
    by_key = np.argsort(keys, kind="stable")  # each cell's candidates stay sha-sorted
    sorted_keys = keys[by_key]

    fills: list[StratumFill] = []
    chosen: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    for stratum in sizing.strata:
        if plan.spatial:
            # echo the uncapped plan request so shortfalls stay visible here
            cells = [
                (ClassLabel.MALWARE, (stratum.malware or 0) + stratum.malware_shortfall),
                (ClassLabel.GOODWARE, (stratum.goodware or 0) + stratum.goodware_shortfall),
            ]
        else:
            cells = [(None, stratum.n)]
        period = stratum.period
        # a period the candidate pools cannot hold (a hand-built sizing) finds no candidates
        known = period is None if pooled else period is not None and period.granularity is stratum_gran
        for cls, requested in cells:
            lo = hi = 0
            if known:
                cell = (0 if pooled else period.index) * len(CLASSES) + (0 if cls is None else CLASSES.index(cls))
                lo, hi = np.searchsorted(sorted_keys, [cell, cell + 1])
            rng = _stratum_rng(seed, stratum_gran, period, cls)
            picks = by_key[lo:hi][_take(requested, int(hi - lo), rng)]
            fills.append(StratumFill(period, cls, requested, len(picks)))
            chosen.append(picks)
    picked = np.concatenate(chosen)
    # manifest order: period, label name (goodware < malware), sha256 (candidates are sha-sorted)
    picked = picked[np.lexsort((picked, classes[picked], periods[picked]))]
    entries = _entries(pop, rows[picked], classes[picked], periods[picked], stratum_gran)
    spec = build_spec_echo(
        rule, policy, plan, sizing.params, seed, pop.snapshot_date, market_filter
    )
    return DatasetManifest(
        entries=tuple(entries),
        spec=spec,
        created=created if created is not None else _default_created(pop),
        strata=tuple(fills),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    evidence: str


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
        bad = _misdated(manifest.entries, population, policy)
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


def _misdated(entries: tuple[ManifestEntry, ...], population: Population, policy: TimestampPolicy) -> list[str]:
    """Hashes of the entries the policy does not place in their recorded period
    (absent from the population, undated, or dated elsewhere), in entry order."""
    if not len(population):
        return [e.sha256 for e in entries]
    rows = population.positions([e.sha256 for e in entries])
    dates = timeline_dates(population, policy)[rows]
    ok = (rows >= 0) & ~np.isnat(dates)
    for granularity in Granularity:
        mine = ok & np.array([e.period.granularity is granularity for e in entries], dtype=bool)
        recorded = np.array([e.period.index for e in entries], dtype=np.int64)[mine]
        ok[mine] = period_indices(dates[mine], granularity) == recorded
    return [e.sha256 for e, good in zip(entries, ok.tolist()) if not good]


# (goodware GP, goodware 3PM, malware GP, malware 3PM) per train/test split.
# The proportional configuration's test malware follows the stated 10% test
# ratio and 5,000-sample test size (400 GP + 100 3PM).
MARKET_SCENARIOS: dict[str, tuple[tuple[int, int, int, int], tuple[int, int, int, int]]] = {
    "D_GP": ((10000, 0, 10000, 0), (4500, 0, 500, 0)),
    "D_3PM": ((0, 10000, 0, 10000), (0, 4500, 0, 500)),
    "D_EVEN": ((5000, 5000, 5000, 5000), (2250, 2250, 250, 250)),
    "D_PROP": ((8000, 2000, 8000, 2000), (3600, 900, 400, 100)),
    "D_GP3PM": ((10000, 0, 0, 10000), (4500, 0, 0, 500)),
    "D_3PMGP": ((0, 10000, 10000, 0), (0, 4500, 500, 0)),
}

DEFAULT_GP_TAGS = frozenset({"play.google.com"})


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
    rows, classes, dates = _candidates(pop, rule, policy)
    months = period_indices(dates, Granularity.MONTH)
    gp = pop.carrying_any(gp_tags)[rows]

    cell_order = [
        (ClassLabel.GOODWARE, "GP", train_cells[0], test_cells[0]),
        (ClassLabel.GOODWARE, "3PM", train_cells[1], test_cells[1]),
        (ClassLabel.MALWARE, "GP", train_cells[2], test_cells[2]),
        (ClassLabel.MALWARE, "3PM", train_cells[3], test_cells[3]),
    ]
    train_picks: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    test_picks: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    train_fills: list[StratumFill] = []
    test_fills: list[StratumFill] = []
    for cls, group, n_train, n_test in cell_order:
        if n_train + n_test == 0:
            continue
        pool = np.flatnonzero((classes == CLASSES.index(cls)) & (gp == (group == "GP")))  # sha-sorted
        if len(pool) < n_train + n_test:
            raise ValueError(
                f"insufficient population for cell ({group}, {cls.value}): "
                f"need {n_train + n_test}, have {len(pool)}"
            )
        # one shuffle per (class, group) cell keeps train/test disjoint
        code = 1 if group == "GP" else 2
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, code, _CLASS_CODE[cls]])))
        picks = pool[rng.permutation(len(pool))]
        train_picks.append(picks[:n_train])
        test_picks.append(picks[n_train : n_train + n_test])
        train_fills.append(StratumFill(None, cls, n_train, n_train, note=group))
        test_fills.append(StratumFill(None, cls, n_test, n_test, note=group))

    def entries_of(chosen: list[np.ndarray]) -> list[ManifestEntry]:
        picked = np.concatenate(chosen)
        picked = picked[np.lexsort((picked, classes[picked], months[picked]))]
        return _entries(pop, rows[picked], classes[picked], months[picked], Granularity.MONTH)

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
            entries=tuple(entries),
            spec=spec,
            created=_default_created(pop),
            strata=tuple(fills),
        )

    return build(entries_of(train_picks), train_fills, "train"), build(entries_of(test_picks), test_fills, "test")


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


def _check_spec(spec: dict, where: str) -> None:
    """The spec values verify_constraints reads: the timestamp policy and the plan ratio."""
    _require_keys(spec, ("policy",), where)
    policy = spec["policy"]
    if not isinstance(policy, dict):
        raise FormatError(f"{where}.policy must be an object")
    kinds = [k.value for k in TimestampKind]
    if policy.get("kind") not in kinds:
        raise FormatError(f"{where}.policy.kind {policy.get('kind')!r} is not one of {', '.join(kinds)}")
    if policy.get("fallback") not in (None, *kinds):
        raise FormatError(f"{where}.policy.fallback {policy['fallback']!r} is not null or one of {', '.join(kinds)}")
    plan = spec.get("plan")
    if plan is None:
        return
    if not isinstance(plan, dict):
        raise FormatError(f"{where}.plan must be an object or null")
    ratio = plan.get("ratio_malware")
    if isinstance(ratio, bool) or not isinstance(ratio, (int, float)) or not 0.0 < ratio < 1.0:
        raise FormatError(f"{where}.plan.ratio_malware {ratio!r} is not a number in (0,1)")


def _require_keys(data: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise FormatError(f"{where} missing key(s): {', '.join(missing)}")


def write_manifest_csv(manifest: DatasetManifest, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("sha256", "label", "period"))
    for entry in manifest.entries:
        writer.writerow((entry.sha256, entry.label.value, str(entry.period)))
