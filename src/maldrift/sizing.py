"""Minimum representative sample sizes: margin-of-error with finite population
correction, an optional Bonferroni-adjusted variant, and stratified plans
(global / yearly / monthly, with or without an enforced class ratio).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist
from typing import Optional

import numpy as np

from .labeling import GREYWARE, MALWARE, LabelRule, TimestampPolicy, eligible
from .model import Granularity, Period, Population, round_half_up


@dataclass(frozen=True)
class SizingParams:
    confidence: float = 0.99
    delta: float = 0.015
    p: float = 0.5
    bonferroni_m: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0,1), got {self.confidence}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if self.bonferroni_m is not None and self.bonferroni_m < 1:
            raise ValueError(f"bonferroni_m must be >= 1, got {self.bonferroni_m}")


class PlanMode(str, Enum):
    GLOBAL = "global"
    YEARLY = "yearly"
    MONTHLY = "monthly"


@dataclass(frozen=True)
class SizingPlan:
    mode: PlanMode = PlanMode.MONTHLY
    spatial: bool = False
    ratio_malware: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio_malware < 1.0:
            raise ValueError(f"ratio_malware must be in (0,1), got {self.ratio_malware}")

    def name(self, params: Optional[SizingParams] = None) -> str:
        base = "DaDa" if params is not None and params.bonferroni_m else "MoE"
        if self.spatial:
            base += "/Spatial"
            suffix = {PlanMode.GLOBAL: "", PlanMode.YEARLY: "/Year", PlanMode.MONTHLY: "/Month"}
        else:
            suffix = {PlanMode.GLOBAL: "", PlanMode.YEARLY: "/Yearly", PlanMode.MONTHLY: "/Monthly"}
        return base + suffix[self.mode]


def required_sample_size(population_size: int, params: SizingParams) -> int:
    """Smallest n whose margin of error stays within params.delta.

    n0 = z^2 * p(1-p) / delta^2, corrected for the finite population:
    n = n0 / (1 + (n0 - 1)/N), rounded up and clamped to N. With
    bonferroni_m set, confidence is tightened to 1 - (1-C)/m first.
    """
    if population_size < 1:
        raise ValueError(f"population size must be >= 1, got {population_size}")
    confidence = params.confidence
    if params.bonferroni_m:
        confidence = 1.0 - (1.0 - confidence) / params.bonferroni_m
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n0 = z * z * params.p * (1.0 - params.p) / (params.delta * params.delta)
    n = n0 / (1.0 + (n0 - 1.0) / population_size)
    return min(math.ceil(n), population_size)


@dataclass(frozen=True)
class StratumSize:
    """Planned counts for one (period) stratum; class split only when spatial."""

    period: Optional[Period]
    population: int
    n: int
    malware_available: int
    goodware_available: int
    malware: Optional[int] = None
    goodware: Optional[int] = None
    malware_shortfall: int = 0
    goodware_shortfall: int = 0


@dataclass(frozen=True)
class SizingResult:
    plan: SizingPlan
    params: SizingParams
    strata: tuple[StratumSize, ...]
    excluded_undated: int
    excluded_greyware: int
    warnings: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return sum(s.n for s in self.strata)


def _spatial_split(n: int, ratio: float, mw_avail: int, gw_avail: int) -> tuple[int, int, int, int]:
    want_mw = round_half_up(n * ratio)
    want_gw = n - want_mw
    mw = min(want_mw, mw_avail)
    gw = min(want_gw, gw_avail)
    return mw, gw, want_mw - mw, want_gw - gw


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
    granularity = Granularity.MONTH if plan.mode is not PlanMode.YEARLY else Granularity.YEAR
    periods, malware, excluded_undated, excluded_greyware = _eligible(pop, rule, policy, granularity)

    warnings: list[str] = []
    strata: list[StratumSize] = []
    if plan.mode is PlanMode.GLOBAL:
        groups = [(None, len(periods), int(malware.sum()))]
    else:
        first = int(periods.min())
        pool = np.bincount(periods - first).tolist()
        mw = np.bincount(periods[malware] - first, minlength=len(pool)).tolist()
        groups = [(Period(granularity, first + i), pool[i], mw[i]) for i in range(len(pool))]

    for period, size, mw_avail in groups:
        gw_avail = size - mw_avail
        if not size:
            warnings.append(f"stratum {period} has no eligible records")
            strata.append(StratumSize(period, 0, 0, 0, 0))
            continue
        n = required_sample_size(size, params)
        if plan.spatial:
            mw, gw, mw_short, gw_short = _spatial_split(n, plan.ratio_malware, mw_avail, gw_avail)
            strata.append(
                StratumSize(period, size, mw + gw, mw_avail, gw_avail, mw, gw, mw_short, gw_short)
            )
            if mw_short or gw_short:
                warnings.append(
                    f"stratum {period}: shortfall malware={mw_short} goodware={gw_short}"
                )
        else:
            strata.append(StratumSize(period, size, n, mw_avail, gw_avail))
    return SizingResult(plan, params, tuple(strata), excluded_undated, excluded_greyware, tuple(warnings))


def _eligible(
    pop: Population, rule: LabelRule, policy: TimestampPolicy, granularity: Granularity
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Period index and malware mask of the eligible pool (datable, not greyware),
    and the undated and greyware counts it excludes."""
    view = eligible(pop, rule, policy)
    pool, classes = view.pool, view.classes
    if not pool.any():
        raise ValueError("no records are datable under the timestamp policy")
    greyware = int(np.count_nonzero(classes == GREYWARE))
    periods = view.periods(granularity)[pool]
    return periods, classes[pool] == MALWARE, len(pop) - greyware - int(pool.sum()), greyware


@dataclass(frozen=True)
class PlanSummary:
    name: str
    total: int
    malware_per_month_mean: float
    malware_per_month_std: float


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
    months, malware, _, _ = _eligible(pop, rule, policy, Granularity.MONTH)
    first = int(months.min())
    month_pool = np.bincount(months - first).tolist()
    month_mw = np.bincount(months[malware] - first, minlength=len(month_pool)).tolist()
    span = [Period(Granularity.MONTH, first + i) for i in range(len(month_pool))]

    summaries = []
    for plan, params in plans:
        sizing = plan_sizes(pop, rule, policy, plan, params)
        expected = [0.0] * len(span)
        for stratum in sizing.strata:
            if stratum.population == 0:
                continue
            if stratum.period is None:
                covered = range(len(span))
            elif stratum.period.granularity is Granularity.YEAR:
                covered = [i for i, m in enumerate(span) if m.year == stratum.period.year]
            else:
                covered = [stratum.period.index - first]
            pool = sum(month_pool[i] for i in covered)
            mw_pool = sum(month_mw[i] for i in covered)
            for i in covered:
                if plan.spatial:
                    if mw_pool and stratum.malware:
                        expected[i] += stratum.malware * month_mw[i] / mw_pool
                elif pool:
                    expected[i] += stratum.n * month_mw[i] / pool
        mean = sum(expected) / len(expected)
        std = math.sqrt(sum((v - mean) ** 2 for v in expected) / len(expected))
        summaries.append(PlanSummary(plan.name(params), sizing.total, mean, std))
    return summaries
