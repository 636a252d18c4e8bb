"""Reproducible stratified sampling with constraint verification.

Selection is input-order independent: candidates are keyed by sorted sha256,
shuffled with a generator derived from (seed, period, class), and taken as a
prefix. Identical population content, parameters, and seed therefore yield a
byte-identical manifest.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Union

import numpy as np

from . import ingest
from .errors import FormatError
from .ingest import _hashes, _spans, _write_chunks, _write_json
from .jsonstream import read_object
from .labeling import (
    CLASSES,
    MALWARE,
    MARKET_THRESHOLD,
    LabelRule,
    TimestampKind,
    TimestampPolicy,
    _coded_market_consistency,
    eligible,
    timeline_dates,
)
from .model import KEY_DTYPE, ClassLabel, Granularity, KeyedTable, Period, Population, _key_texts, format_timestamp, period_indices, round_half_up
from .sizing import PlanMode, SizingParams, SizingPlan, SizingResult
from .version import __version__

_CLASS_CODE = {None: 0, ClassLabel.GOODWARE: 1, ClassLabel.MALWARE: 2}
_GLOBAL_PERIOD_CODE = 10**6
# C3 passes when each period's malware count is within this of round(n * ratio)
C3_TOLERANCE = 1


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


# a manifest's granularity codes
_GRANULARITIES = (Granularity.MONTH, Granularity.YEAR)
# entry column -> dtype; the names follow ManifestEntry's fields
_ENTRY_COLUMNS = {
    "sha256": KEY_DTYPE,
    "label": np.int8,  # code into CLASSES
    "period": np.int64,  # Period.index
    "granularity": np.int8,  # code into _GRANULARITIES
    "markets": np.int32,  # code into DatasetManifest.market_sets
    "family": np.int32,  # code into DatasetManifest.families; -1 = no family
}


class DatasetManifest(KeyedTable):
    """The reproducible output of a sampling run: entries plus full parameter echo.

    The entries are numpy columns in manifest order (see _ENTRY_COLUMNS);
    markets and family are codes into the market_sets and families tables.
    ``DatasetManifest(entries, ...)``, ``entries``, ``by_period()`` and
    ``hashes()`` are a row view of ManifestEntry objects.
    """

    _COLUMNS = _ENTRY_COLUMNS
    _TABLES = ("market_sets", "families")
    _FIELDS = ("spec", "created", "strata", "checks", "violations")
    _WHAT = "manifest"
    strata: tuple[StratumFill, ...] = ()
    checks: tuple[dict, ...] = ()
    violations: tuple[dict, ...] = ()

    def __init__(
        self,
        entries: Iterable[ManifestEntry],
        spec: dict,
        created: str,
        strata: tuple[StratumFill, ...] = (),
        checks: tuple[dict, ...] = (),
        violations: tuple[dict, ...] = (),
    ):
        entries = tuple(entries)
        market_sets: dict[frozenset[str], int] = {}
        families: dict[str, int] = {}
        columns = {
            "sha256": [e.sha256 for e in entries],
            "label": [CLASSES.index(e.label) for e in entries],
            "period": [e.period.index for e in entries],
            "granularity": [_GRANULARITIES.index(e.period.granularity) for e in entries],
            "markets": [market_sets.setdefault(frozenset(e.markets), len(market_sets)) for e in entries],
            "family": [-1 if e.family is None else families.setdefault(e.family, len(families)) for e in entries],
        }
        self._init(columns, market_sets, families, spec, created, tuple(strata), tuple(checks), tuple(violations))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetManifest):
            return NotImplemented
        fields = ("entries", "spec", "created", "strata", "checks", "violations")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DatasetManifest({len(self)} entries, created={self.created!r})"

    @cached_property
    def entries(self) -> tuple[ManifestEntry, ...]:
        families = (*self.families, None)  # code -1 picks the None
        periods, period_of_entry = self._periods()
        return tuple(
            ManifestEntry(sha, CLASSES[label], periods[p], self.market_sets[m], families[f])
            for sha, label, p, m, f in zip(
                _key_texts(self.sha256),
                self.label.tolist(),
                period_of_entry.tolist(),
                self.markets.tolist(),
                self.family.tolist(),
            )
        )

    def hashes(self) -> set[str]:
        return set(_key_texts(self.sha256))

    def by_period(self) -> dict[Period, list[ManifestEntry]]:
        out: dict[Period, list[ManifestEntry]] = {}
        for entry in self.entries:
            out.setdefault(entry.period, []).append(entry)
        return out

    def _period_keys(self, rows: slice = slice(None)) -> np.ndarray:
        """The period of each entry in rows as one integer: see _period_of."""
        return self.period[rows] * len(_GRANULARITIES) + self.granularity[rows]

    def _periods(self) -> tuple[list[Period], np.ndarray]:
        """The distinct periods ordered by index (then first seen), and each entry's position in that list."""
        keys, first, inverse = np.unique(self._period_keys(), return_index=True, return_inverse=True)
        order = np.lexsort((first, keys // len(_GRANULARITIES)))
        rank = np.empty(len(keys), dtype=np.int64)
        rank[order] = np.arange(len(keys))
        return [_period_of(key) for key in keys[order].tolist()], rank[inverse]


def _period_of(key: int) -> Period:
    """The period whose index times the granularity count plus its granularity code is key."""
    return Period(_GRANULARITIES[key % len(_GRANULARITIES)], key // len(_GRANULARITIES))


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
    ss = np.random.SeedSequence([seed, _GRANULARITIES.index(granularity), period_code, _CLASS_CODE[cls]])
    return np.random.Generator(np.random.PCG64(ss))


def _candidates(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    granularity: Granularity,
    keep: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the eligible records (within keep) in ascending sha256 order,
    with their class codes and period indices under granularity."""
    view = eligible(pop, rule, policy)
    pool = view.pool if keep is None else view.pool & keep
    rows = pop.sha_order[pool[pop.sha_order]]
    return rows, view.classes[rows], view.periods(granularity)[rows]


def _take(count: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Positions drawn from a sha-sorted pool of size: all of it, or a seeded prefix of a permutation."""
    if count >= size:
        return np.arange(size)
    return rng.permutation(size)[:count]


def _default_created(pop: Population) -> str:
    """Deterministic data-horizon stamp: the latest timestamp seen in the source.

    A wall-clock stamp would break byte-for-byte reproducibility of identical
    runs, so the manifest is dated by its data instead.
    """
    crawled = pop.crawl_date[~np.isnat(pop.crawl_date)]
    stamps = np.concatenate([crawled, pop.dex_date])
    return format_timestamp(stamps.max().item()) if stamps.size else "1970-01-01 00:00:00"


def _manifest(
    pop: Population,
    rows: np.ndarray,
    classes: np.ndarray,
    periods: np.ndarray,
    granularity: Granularity,
    chosen: list[np.ndarray],
    spec: dict,
    fills: list[StratumFill],
) -> DatasetManifest:
    """The manifest of the candidates at the positions in chosen, candidates
    being pop's records at rows (sha-sorted) with their class codes and period
    indices. Entries are in period, label name (goodware < malware) and sha256
    order; markets and family stay codes into the population's tables. The
    candidates' ranks give the entries' sha256 order, so no key is sorted."""
    picked = np.concatenate([np.zeros(0, dtype=np.int64), *chosen])
    picked = picked[np.lexsort((picked, classes[picked], periods[picked]))]
    at = rows[picked]
    sha_order = np.argsort(picked)
    ranks = picked[sha_order]
    repeated = ranks[1:] == ranks[:-1]  # a stratum listed twice (a hand-built sizing) picks a candidate twice
    if repeated.any():  # the first repeat in sorted order is the smallest repeated hash
        raise ValueError(f"duplicate sha256 in manifest: {pop.sha256[rows[ranks[repeated.argmax()]]].decode()}")
    columns = {
        "sha256": pop.sha256[at],
        "label": classes[picked],
        "period": periods[picked],
        "granularity": np.full(len(at), _GRANULARITIES.index(granularity)),
        "markets": pop.markets[at],
        "family": pop.family[at],
    }
    return DatasetManifest._from_columns(
        columns, pop.market_sets, pop.families, spec=spec, created=_default_created(pop), strata=tuple(fills),
        sha_order=sha_order,
    )


def stratified_sample(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    sizing: SizingResult,
    seed: int,
    market_filter: Optional[frozenset[str]] = None,
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
    rows, classes, periods = _candidates(pop, rule, policy, stratum_gran, keep)
    if not rows.size:
        raise ValueError("empty candidate pool: no labeled, datable records to sample")
    pooled = plan.mode is PlanMode.GLOBAL
    # one key per stratum cell: its period (0 when global) and, when spatial, its class
    zeros = np.zeros_like(periods)
    keys = (zeros if pooled else periods) * len(CLASSES) + (classes if plan.spatial else zeros)
    by_key = np.argsort(keys, kind="stable")  # each cell's candidates stay sha-sorted
    sorted_keys = keys[by_key]

    fills: list[StratumFill] = []
    chosen: list[np.ndarray] = []
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
    spec = build_spec_echo(rule, policy, plan, sizing.params, seed, pop.snapshot_date, market_filter)
    return _manifest(pop, rows, classes, periods, stratum_gran, chosen, spec, fills)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    evidence: str


def verify_constraints(manifest: DatasetManifest, population: Optional[Population] = None) -> list[CheckResult]:
    """Check a manifest against the temporal/spatial/market constraints.

    C2: any period holding one class must hold the other (unless the plan
    requested zero). C3: per-period malware count within C3_TOLERANCE of
    round(n * ratio). Market consistency: TV distance between class market
    distributions at most MARKET_THRESHOLD. Timestamp policy: entries map
    into their recorded periods (full check needs the source population).
    """
    plan = manifest.spec.get("plan") or {}
    spatial = bool(plan.get("spatial"))
    ratio = float(plan.get("ratio_malware", 0.10))
    requested: dict[tuple[Optional[str], Optional[str]], int] = {}
    for fill in manifest.strata:
        key = (str(fill.period) if fill.period else None, fill.label.value if fill.label else None)
        requested[key] = fill.requested
    periods, period_of_entry = manifest._periods()
    totals = np.bincount(period_of_entry, minlength=len(periods)).tolist()
    malware = np.bincount(period_of_entry[manifest.label == MALWARE], minlength=len(periods)).tolist()

    c2_bad = []
    for period, n, mw in zip(periods, totals, malware):
        gw = n - mw
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
    for period, n, mw in zip(periods, totals, malware):
        expected = round_half_up(n * ratio)
        if abs(mw - expected) > C3_TOLERANCE:
            c3_bad.append(f"{period}: {mw} malware, expected {expected}±{C3_TOLERANCE}")
    checks.append(
        CheckResult(
            "C3",
            not c3_bad,
            f"per-period malware within ±{C3_TOLERANCE} of round(n·{ratio})"
            if not c3_bad
            else "; ".join(c3_bad[:5]),
        )
    )

    try:
        consistency = _coded_market_consistency(manifest.markets, manifest.label, manifest.market_sets)
        checks.append(
            CheckResult(
                "market_consistency",
                consistency.passed,
                f"tv_distance={consistency.tv_distance:.4f} (threshold {MARKET_THRESHOLD})",
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
        bad = _misdated(manifest, population, policy)
        checks.append(
            CheckResult(
                "timestamp_policy",
                not len(bad),
                "all entries dated by the declared policy"
                if not len(bad)
                else f"{len(bad)} entries mis-dated (e.g. {bad[0].decode()})",
            )
        )
    return checks


def _misdated(manifest: DatasetManifest, population: Population, policy: TimestampPolicy) -> np.ndarray:
    """Hashes of the entries the policy does not place in their recorded period
    (absent from the population, undated, or dated elsewhere), in entry order."""
    if not len(population):
        return manifest.sha256
    rows = population.positions(manifest.sha256)
    dates = timeline_dates(population, policy)[rows]
    ok = (rows >= 0) & ~np.isnat(dates)
    for code, granularity in enumerate(_GRANULARITIES):
        mine = ok & (manifest.granularity == code)
        ok[mine] = period_indices(dates[mine], granularity) == manifest.period[mine]
    return manifest.sha256[~ok]


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
) -> tuple[DatasetManifest, DatasetManifest]:
    """Build one of the fixed train/test market-composition experiments.

    Records carrying any of DEFAULT_GP_TAGS form the GP group; all others are
    third-party (3PM). Train and test are drawn disjointly from one shuffle
    per cell.
    """
    if name not in MARKET_SCENARIOS:
        raise ValueError(f"unknown market scenario {name!r}; choose from {sorted(MARKET_SCENARIOS)}")
    train_cells, test_cells = MARKET_SCENARIOS[name]
    rows, classes, months = _candidates(pop, rule, policy, Granularity.MONTH)
    gp = pop.carrying_any(DEFAULT_GP_TAGS)[rows]

    cell_order = [
        (ClassLabel.GOODWARE, "GP", train_cells[0], test_cells[0]),
        (ClassLabel.GOODWARE, "3PM", train_cells[1], test_cells[1]),
        (ClassLabel.MALWARE, "GP", train_cells[2], test_cells[2]),
        (ClassLabel.MALWARE, "3PM", train_cells[3], test_cells[3]),
    ]
    train_picks: list[np.ndarray] = []
    test_picks: list[np.ndarray] = []
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

    def build(chosen: list[np.ndarray], fills: list[StratumFill], split: str) -> DatasetManifest:
        extra = {"scenario": name, "split": split, "gp_tags": sorted(DEFAULT_GP_TAGS)}
        spec = build_spec_echo(rule, policy, None, None, seed, pop.snapshot_date, None, extra=extra)
        return _manifest(pop, rows, classes, months, Granularity.MONTH, chosen, spec, fills)

    return build(train_picks, train_fills, "train"), build(test_picks, test_fills, "test")


def _manifest_head(manifest: DatasetManifest) -> dict:
    """The manifest's JSON object without the entries."""
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
    }


def _pair_texts(manifest: DatasetManifest, render) -> Callable[[slice], list[str]]:
    """A function of a slice of the entries that gives render(label, period)
    of each entry in it; each distinct (label, period) pair is rendered once."""
    rendered: dict[int, str] = {}

    def texts(rows: slice) -> list[str]:
        pairs, inverse = np.unique(manifest._period_keys(rows) * len(CLASSES) + manifest.label[rows], return_inverse=True)
        for pair in pairs.tolist():
            if pair not in rendered:
                rendered[pair] = render(CLASSES[pair % len(CLASSES)].value, str(_period_of(pair // len(CLASSES))))
        return np.array([rendered[pair] for pair in pairs.tolist()], dtype=object)[inverse].tolist()

    return texts


def write_manifest_json(manifest: DatasetManifest, path: Union[str, Path]) -> None:
    """Write the manifest as JSON: json.dumps(head, indent=2) and a newline,
    where head is _manifest_head(manifest) plus an "entries" list of objects
    with sha256, label, period, sorted markets and family.

    Each table value and each (label, period) pair is rendered with json.dumps
    once; the entries join their renderings a chunk at a time (see
    ingest._write_json).
    """
    pairs = _pair_texts(
        manifest,
        lambda label, period: f'",\n      "label": {json.dumps(label)},\n      "period": {json.dumps(period)},'
        '\n      "markets": ',
    )
    markets = [json.dumps(sorted(tags), indent=2).replace("\n", "\n      ") for tags in manifest.market_sets]
    markets = np.array([f'{text},\n      "family": ' for text in markets], dtype=object)
    families = np.array([f"{json.dumps(name)}\n    }}" for name in (*manifest.families, None)], dtype=object)

    def entries(rows: slice) -> Iterator[str]:
        return map("".join, zip(
            repeat('    {\n      "sha256": "'),
            _key_texts(manifest.sha256[rows]),
            pairs(rows),
            markets[manifest.markets[rows]].tolist(),
            families[manifest.family[rows]].tolist(),  # code -1 picks the null
        ))

    _write_json(Path(path), {**_manifest_head(manifest), "entries": []}, len(manifest), entries)


def write_manifest_csv(manifest: DatasetManifest, stream: IO[str]) -> None:
    """The sha256,label,period CSV of the entries, as csv.writer writes it, written a chunk at a time."""
    stream.write("sha256,label,period\n")
    pairs = _pair_texts(manifest, lambda label, period: f",{label},{period}\n")
    _write_chunks(
        stream, len(manifest), lambda rows: map("".join, zip(_key_texts(manifest.sha256[rows]), pairs(rows)))
    )


def read_manifest_json(path: Union[str, Path]) -> DatasetManifest:
    """Load a manifest; a malformed file raises FormatError naming the bad key or value.

    The file is read a block of ingest._BLOCK_CHARS characters at a time and
    its entries are decoded and checked ingest._WRITE_ROWS at a time (see
    jsonstream.read_object), so what a read holds besides the manifest follows
    those sizes, not the file's. The manifest, or the error, is the one a
    json.loads of the whole text would give. Faults are raised in one order:
    the top-level keys, then the first bad entry, then the spec, then the
    strata.
    """
    where = str(path)
    data, entries = read_object(
        path, "entries", lambda: _Entries(f"{where}: entries"), ingest._BLOCK_CHARS, ingest._WRITE_ROWS
    )
    if not isinstance(data, dict):
        raise FormatError(f"{where}: manifest must be a JSON object, not {type(data).__name__}")
    _require_keys(data, ("spec", "created", "entries"), f"{where}: manifest")
    if not isinstance(data["spec"], dict) or not isinstance(data["entries"], list):
        raise FormatError(f"{where}: manifest 'spec' must be an object and 'entries' a list")
    columns = entries.columns()
    _check_spec(data["spec"], f"{where}: spec")
    strata = _strata_of(data.get("strata", []), f"{where}: strata")
    try:
        return DatasetManifest._from_columns(
            columns,
            tuple(entries.market_sets),
            tuple(entries.families),
            spec=data["spec"],
            created=data["created"],
            strata=strata,
            checks=tuple(data.get("checks", ())),
            violations=tuple(data.get("violations", ())),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {type(exc).__name__}: {exc}") from exc


class _Entries:
    """Entry columns built from decoded JSON entries, a chunk at a time.

    Each chunk is checked by _entry_columns_of, which codes its market sets
    and families into the manifest's tables in first-seen order. The columns
    grow in bytearrays that the manifest's arrays then view, so no column is
    ever held twice. After the first bad entry no chunk is coded; columns() raises
    that entry's FormatError.
    """

    def __init__(self, where: str):
        self.where = where
        self.data = {name: bytearray() for name in _ENTRY_COLUMNS}
        self.market_sets: dict[frozenset[str], int] = {}
        self.families: dict[str, int] = {}
        self.count = 0
        self.fault: Optional[FormatError] = None

    def add(self, entries: list) -> None:
        if entries and self.fault is None:
            try:
                columns = _entry_columns_of(entries, self.where, self.count, self.market_sets, self.families)
            except FormatError as exc:
                self.fault = exc
            else:
                for name, dtype in _ENTRY_COLUMNS.items():
                    self.data[name].extend(np.ascontiguousarray(columns[name], dtype=dtype))
        self.count += len(entries)

    def columns(self) -> dict[str, np.ndarray]:
        if self.fault is not None:
            raise self.fault
        return {name: np.frombuffer(self.data[name], dtype=dtype) for name, dtype in _ENTRY_COLUMNS.items()}


_MISSING = object()
_ENTRY_KEYS = ("sha256", "label", "period", "markets")
_LABEL_CODES = {label.value: code for code, label in enumerate(CLASSES)}


def _entry_columns_of(entries: list, where: str, first: int, market_sets: dict, families: dict) -> dict:
    """Entry columns of decoded JSON entries, the first of which is entry
    number first; market sets and families are coded into the market_sets
    and families tables, each new value added in first-seen order. Each value
    check runs over all entries, and the first entry failing any is named in
    the FormatError. A missing key or a non-object entry fails a value check
    too."""
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
        entry, at = entries[i], f"{where}[{first + i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{at} must be an object")
        _require_keys(entry, _ENTRY_KEYS, at)
        describe = next(describe for mask, describe in faults if mask[i])
        raise FormatError(f"{at}{describe(entry)}")
    return {
        "sha256": sha256,
        "label": label,
        "period": keys // len(_GRANULARITIES),
        "granularity": keys % len(_GRANULARITIES),
        "markets": market,
        "family": family,
    }


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
