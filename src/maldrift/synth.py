"""Synthetic metadata populations with controllable drift.

The generator exists to make properties assertable at desk scale, not to
model the real app ecosystem: family churn is a sliding birth/lifetime
window, markets and detection counts are drawn from small per-class models,
and every aggregate count is fixed by the config (seed-independent).
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Optional

import numpy as np

from .ingest import _write_json
from .model import COLUMNS, MAX_YEAR, ClassLabel, Period, Population, _WRITE_ROWS, _key_texts, round_half_up

_LAST_SECOND = np.datetime64(datetime.max, "s")
# the last second ingest's parser reads: later crawl dates are capped to it
_LAST_PARSED = np.datetime64(f"{MAX_YEAR + 1}-01-01", "s") - 1
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_CLASSES = tuple(ClassLabel)  # the class codes of TrueClass


@dataclass(frozen=True)
class LagModel:
    """Distribution of crawl_date - dex_date in days.

    kind "point" pins every lag to `days`; "lognormal" uses `days` as the
    median with shape `sigma`; "backfill" is lognormal plus a `late_fraction`
    of records crawled `late_days` after creation.
    """

    kind: str = "lognormal"
    days: float = 5.0
    sigma: float = 0.5
    late_fraction: float = 0.0
    late_days: float = 730.0

    def __post_init__(self) -> None:
        if self.kind not in ("point", "lognormal", "backfill"):
            raise ValueError(f"unknown lag model kind {self.kind!r}")
        if self.days < 0 or self.late_days < 0 or not 0.0 <= self.late_fraction <= 1.0:
            raise ValueError("invalid lag model parameters")


@dataclass(frozen=True)
class DetectionModel:
    """Per-class distribution of AV detection counts."""

    kind: str = "point"
    value: int = 0
    low: int = 4
    high: int = 40

    def __post_init__(self) -> None:
        if self.kind not in ("point", "uniform"):
            raise ValueError(f"unknown detection model kind {self.kind!r}")
        if self.kind == "uniform" and self.low > self.high:
            raise ValueError("uniform detection model needs low <= high")

    def support_min(self) -> int:
        return self.value if self.kind == "point" else self.low


@dataclass(frozen=True)
class SynthConfig:
    months: int = 24
    per_month: int = 400
    malware_fraction: float = 0.10
    family_pool: int = 20
    family_birth_rate: int = 0
    family_lifetime: Optional[int] = None  # None = immortal
    goodware_markets: dict[str, float] = field(default_factory=lambda: {"play.google.com": 1.0})
    malware_markets: dict[str, float] = field(default_factory=lambda: {"play.google.com": 1.0})
    lag: LagModel = LagModel()
    goodware_detections: DetectionModel = DetectionModel("point", value=0)
    malware_detections: DetectionModel = DetectionModel("uniform", low=4, high=40)
    design_vtt: int = 4
    start: str = "2014-01"
    seed: int = 0
    allow_label_noise: bool = False
    size_range: tuple[int, int] = (50_000, 50_000_000)

    def validate(self) -> None:
        if self.months < 1 or self.per_month < 1:
            raise ValueError("months and per_month must be positive")
        if not 0.0 <= self.malware_fraction <= 1.0:
            raise ValueError(f"malware_fraction must be in [0,1], got {self.malware_fraction}")
        for mixture in (self.goodware_markets, self.malware_markets):
            if not mixture or any(w < 0 for w in mixture.values()) or sum(mixture.values()) <= 0:
                raise ValueError("market mixtures must be non-empty with non-negative weights")
        if self.family_lifetime is not None and self.family_lifetime < 1:
            raise ValueError("family_lifetime must be >= 1 (or None for immortal)")
        if not self.allow_label_noise:
            gd = self.goodware_detections
            if not (gd.kind == "point" and gd.value == 0):
                raise ValueError("goodware detections must be all-zero unless label noise is allowed")
            if self.malware_detections.support_min() < self.design_vtt:
                raise ValueError(
                    "malware detection support must start at design_vtt unless label noise is allowed"
                )
        if self.monthly_malware() > 0 and not self._family_process_alive():
            raise ValueError("family process dies out: no active families for some generated month")
        if min(self.goodware_detections.support_min(), self.malware_detections.support_min()) < 0:
            raise ValueError("detection models must not draw negative counts")
        if self.size_range[0] < 0:
            raise ValueError(f"size_range must not start below 0, got {self.size_range}")

    def monthly_malware(self) -> int:
        return round_half_up(self.per_month * self.malware_fraction)

    def _family_process_alive(self) -> bool:
        return all(self._births_alive_at(m) for m in range(self.months))

    def _births_alive_at(self, m: int) -> bool:
        life = self.family_lifetime
        initial = self.family_pool > 0 and (life is None or m < life)
        fresh = self.family_birth_rate > 0 and m >= 1
        return initial or fresh


class TrueClass(Mapping[str, ClassLabel]):
    """The true class of each sha256 of pop, a read-only mapping in row
    (generation) order over the population's columns: codes[i] is the
    position in tuple(ClassLabel) of row i's class. Lookups go through
    pop.sha_order, so no copy of the hashes is made."""

    def __init__(self, pop: Population, codes: np.ndarray):
        self.pop, self.codes = pop, codes

    def __getitem__(self, sha: str) -> ClassLabel:
        at = self.pop.positions([sha])[0] if isinstance(sha, str) else -1
        if at < 0:
            raise KeyError(sha)
        return _CLASSES[self.codes[at]]

    def __iter__(self) -> Iterator[str]:
        return (sha.decode() for sha in self.pop.sha256)

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class GroundTruth:
    active_families: dict[Period, tuple[str, ...]]
    true_class: TrueClass


def write_ground_truth(truth: GroundTruth, config_echo: dict, path: Path) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline, where
    payload holds the config echo, the active families by period and the true
    class by sha256; the true classes are written a chunk at a time in sha256
    order, from the population's columns (hex hashes need no JSON escaping)."""
    classes = [json.dumps(cls.value) for cls in _CLASSES]
    sha256, order, codes = truth.true_class.pop.sha256, truth.true_class.pop.sha_order, truth.true_class.codes

    def render(rows: slice):
        at = order[rows]
        return (f'    "{sha}": {classes[code]}' for sha, code in zip(_key_texts(sha256[at]), codes[at].tolist()))

    payload = {
        "active_families": {str(p): list(fams) for p, fams in truth.active_families.items()},
        "config": config_echo,
        "true_class": {},  # sorts last
    }
    _write_json(path, payload, len(order), render, sort_keys=True)


def _family_births(config: SynthConfig) -> list[tuple[str, int]]:
    """(name, birth month) for every family ever born, in id order.

    Initial-pool birth months are staggered backwards so deaths spread out
    instead of the whole pool expiring at once.
    """
    births: list[tuple[str, int]] = []
    life = config.family_lifetime
    for i in range(config.family_pool):
        birth = -(i % life) if life is not None else 0
        births.append((f"fam{i:05d}", birth))
    next_id = config.family_pool
    for month in range(1, config.months):
        for _ in range(config.family_birth_rate):
            births.append((f"fam{next_id:05d}", month))
            next_id += 1
    return births


def _active_at(births: list[tuple[str, int]], month: int, lifetime: Optional[int]) -> list[str]:
    if lifetime is None:
        return [name for name, birth in births if birth <= month]
    return [name for name, birth in births if birth <= month < birth + lifetime]


def _draw_lags(model: LagModel, rng: np.random.Generator, n: int) -> np.ndarray:
    if model.kind == "point":
        return np.full(n, model.days)
    lags = rng.lognormal(mean=np.log(max(model.days, 1e-9)), sigma=model.sigma, size=n)
    if model.kind == "backfill" and model.late_fraction > 0:
        late = rng.random(n) < model.late_fraction
        lags = np.where(late, model.late_days, lags)
    return lags


def _draw_detections(model: DetectionModel, rng: np.random.Generator, n: int) -> np.ndarray:
    if model.kind == "point":
        return np.full(n, model.value, dtype=np.int64)
    return rng.integers(model.low, model.high + 1, size=n)


def _draw_markets(mixture: dict[str, float], rng: np.random.Generator, n: int) -> np.ndarray:
    """n positions in sorted(mixture), drawn by weight."""
    keys = sorted(mixture)
    weights = np.array([mixture[k] for k in keys], dtype=float)
    weights = weights / weights.sum()
    return rng.choice(len(keys), size=n, p=weights)


def _market_codes(mixture: dict[str, float], market_sets: dict[frozenset[str], int]) -> np.ndarray:
    """The code in market_sets of each key of sorted(mixture), read as ApkRecord reads a tag set."""
    tag_sets = (frozenset(filter(None, key.split("|"))) or frozenset({"unknown"}) for key in sorted(mixture))
    return np.array([market_sets.setdefault(tags, len(market_sets)) for tags in tag_sets])


def _generate_month(
    config: SynthConfig, month_offset: int, active: np.ndarray, gw_markets: np.ndarray, mw_markets: np.ndarray
) -> dict[str, np.ndarray]:
    """The month's columns but sha256, goodware rows first: active holds the
    family codes, and gw_markets and mw_markets the _market_codes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, month_offset])))
    month = np.datetime64(Period.parse(config.start).shifted(month_offset).start(), "M")
    month_start = month.astype("datetime64[s]")
    # from datetime64 arithmetic, not Period.successor: the calendar's last month has none
    month_seconds = int(((month + 1).astype("datetime64[s]") - month_start).astype(np.int64))
    n_mw = config.monthly_malware()
    n_gw = config.per_month - n_mw

    dex = month_start + rng.integers(0, month_seconds, size=config.per_month)
    with np.errstate(invalid="ignore"):  # a NaN or an overlong lag casts to NaT or wraps, refused below
        crawl = dex + (_draw_lags(config.lag, rng, config.per_month) * 86400).astype(np.int64)
    if not ((crawl >= dex) & (crawl <= _LAST_SECOND)).all():
        raise ValueError("lag model gives a crawl date past 9999-12-31")
    crawl = np.minimum(crawl, _LAST_PARSED)
    sizes = rng.integers(config.size_range[0], config.size_range[1] + 1, size=config.per_month)
    markets = (gw_markets[_draw_markets(config.goodware_markets, rng, n_gw)],
               mw_markets[_draw_markets(config.malware_markets, rng, n_mw)])
    detections = (_draw_detections(config.goodware_detections, rng, n_gw),
                  _draw_detections(config.malware_detections, rng, n_mw))
    family = np.full(config.per_month, -1)
    if n_mw and len(active):
        family[n_gw:] = active[rng.choice(len(active), size=n_mw)]
    return {
        "dex_date": dex,
        "crawl_date": crawl,
        "vt_scan_date": crawl,
        "vt_detection": np.concatenate(detections),
        "apk_size": sizes,
        "markets": np.concatenate(markets),
        "family": family,
    }


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
    family_code = {name: code for code, (name, _) in enumerate(births)}
    market_sets: dict[frozenset[str], int] = {}
    gw_markets = _market_codes(config.goodware_markets, market_sets)
    mw_markets = _market_codes(config.malware_markets, market_sets)
    per_month = config.per_month
    columns = {name: np.empty(config.months * per_month, dtype=dtype) for name, dtype in COLUMNS.items()}
    for m, active in enumerate(active_by_month):
        month = _generate_month(config, m, np.array([family_code[f] for f in active], dtype=int), gw_markets, mw_markets)
        for name, values in month.items():
            columns[name][m * per_month : (m + 1) * per_month] = values
    _hex_hashes(config, columns["sha256"])
    month_codes = np.full(per_month, _CLASSES.index(ClassLabel.GOODWARE), dtype=np.int8)
    month_codes[per_month - config.monthly_malware() :] = _CLASSES.index(ClassLabel.MALWARE)
    start = Period.parse(config.start)
    active_families = {start.shifted(m): tuple(active) for m, active in enumerate(active_by_month)}
    pop = Population.from_columns(columns, tuple(market_sets), tuple(family_code), f"synth(seed={config.seed})")
    return pop, GroundTruth(active_families, TrueClass(pop, np.tile(month_codes, config.months)))


def _hex_hashes(config: SynthConfig, out: np.ndarray) -> None:
    """Fill the S64 column out with the sha256 hexdigest of
    f"synth-{seed}-{month}-{i}" for row i of each month, _WRITE_ROWS rows at
    a time, so no Python object per record outlives a chunk: the digests'
    bytes go through a uint8 buffer and a 16-entry table of hex digits."""
    hexed = out.view(np.uint8).reshape(len(out), 64)
    per_month = config.per_month
    for at in range(0, len(out), _WRITE_ROWS):
        rows = range(at, min(at + _WRITE_ROWS, len(out)))
        digests = b"".join(
            hashlib.sha256(f"synth-{config.seed}-{r // per_month}-{r % per_month}".encode()).digest() for r in rows
        )
        digest = np.frombuffer(digests, dtype=np.uint8).reshape(len(rows), 32)
        hexed[at : rows.stop, 0::2] = _HEX_DIGITS[digest >> 4]
        hexed[at : rows.stop, 1::2] = _HEX_DIGITS[digest & 15]


def scenario_presets() -> dict[str, SynthConfig]:
    """Named configurations that reproduce the pathologies the toolkit checks for."""
    return {
        # no churn: one immortal family pool, overlap stays at 1
        "stable": SynthConfig(
            months=24,
            per_month=400,
            family_pool=8,
            family_birth_rate=0,
            family_lifetime=None,
            seed=7,
        ),
        # steady replacement: one family dies and one is born each month
        "churn": SynthConfig(
            months=36,
            per_month=500,
            family_pool=36,
            family_birth_rate=1,
            family_lifetime=36,
            seed=5,
        ),
        # goodware and malware from disjoint markets (spurious-correlation setup)
        "market-skew": SynthConfig(
            months=24,
            per_month=400,
            family_pool=8,
            goodware_markets={"play.google.com": 1.0},
            malware_markets={"VirusShare": 1.0},
            seed=11,
        ),
        # a third of records reach the crawler years after creation
        "late-backfill": SynthConfig(
            months=24,
            per_month=300,
            family_pool=12,
            family_birth_rate=1,
            family_lifetime=12,
            lag=LagModel("backfill", days=5.0, sigma=0.5, late_fraction=0.3, late_days=900.0),
            seed=13,
        ),
    }
