"""Time-aware metric engine.

Per-period confusion metrics, the trapezoidal area-under-time summary, rolling
train/test windows, the (mean, population-std) aggregate over splits, and the
representation-free family-overlap measure. Everything here is pure and
deterministic; series are accumulated left-to-right over sorted periods so
results are bit-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MissingPredictionsError
from .labeling import CLASSES, GREYWARE, MALWARE, LabelRule, TimestampPolicy, eligible
from .model import ClassLabel, Granularity, Period, Population, _key_texts, _keys

if TYPE_CHECKING:  # the CLI loads this module for every command; ingest loads where it runs
    from .ingest import PredictionSet

METRIC_NAMES = ("f1", "fpr", "tpr", "precision", "recall")


@dataclass(frozen=True)
class MetricSeries:
    """An ordered (period, value) series; absent values are explicit Nones."""

    name: str
    points: tuple[tuple[Period, Optional[float]], ...]

    def __post_init__(self) -> None:
        last = None
        for period, value in self.points:
            if last is not None:
                if period.granularity is not last.granularity:
                    raise ValueError("series mixes period granularities")
                if period.index <= last.index:
                    raise ValueError("series periods must be strictly ascending")
            last = period
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"metric value {value} outside [0,1]")

    def values(self) -> list[Optional[float]]:
        return [v for _, v in self.points]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def metric(self, name: str) -> Optional[float]:
        tp, fp, tn, fn = self.tp, self.fp, self.tn, self.fn
        if name == "f1":
            return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else None
        if name == "fpr":
            return fp / (fp + tn) if (fp + tn) else None
        if name in ("tpr", "recall"):
            return tp / (tp + fn) if (tp + fn) else None
        if name == "precision":
            return tp / (tp + fp) if (tp + fp) else None
        raise ValueError(f"unknown metric {name!r}")


@dataclass(frozen=True)
class ConfusionReport:
    counts: dict[Period, ConfusionCounts]
    series: dict[str, MetricSeries]
    dropped: tuple[str, ...] = ()


TruthEntry = tuple[str, ClassLabel, Period]


def confusion_metrics(
    truth: Iterable[TruthEntry],
    preds: PredictionSet,
    granularity: Optional[Granularity] = None,
    lenient: bool = False,
) -> ConfusionReport:
    """Per-period confusion counts and derived metrics; positives are malware.

    truth is (sha256, label, period) triples. Every truth hash needs a
    prediction: missing ones raise (with the hash list, in truth order) unless
    lenient, in which case they are dropped and counted. Empty-denominator
    metrics are explicit absent values, never silent zeros.
    """
    rows = list(truth)
    hashes = _keys([sha for sha, _, _ in rows], strict=True)[0]
    classes = np.array([CLASSES.index(cls) for _, cls, _ in rows], dtype=np.int8)
    given: dict[Period, int] = {}
    codes = [given.setdefault(period, len(given)) for _, _, period in rows]  # one hash per row
    periods = [p.year_period() if granularity is Granularity.YEAR else p for p in given]
    ordered = sorted(dict.fromkeys(periods), key=lambda p: p.index)
    rank = {p: k for k, p in enumerate(ordered)}
    period_of = np.array([rank[p] for p in periods], dtype=np.int64)[codes]
    predicted = np.append(preds.predicted_class, -1)[preds.positions(hashes)]
    return _confusion(hashes, classes, period_of, ordered, predicted, lenient)


def _confusion(hashes, classes, period_of, periods: Sequence[Period], predicted, lenient: bool) -> ConfusionReport:
    """confusion_metrics over columns: each truth entry's key, class code, position in
    periods (distinct, ascending) and predicted class (-1 where the set lacks the key)."""
    greyware = classes == GREYWARE
    if greyware.any():
        raise ValueError(f"greyware entry {hashes[greyware.argmax()].decode()} cannot be scored")
    scored = predicted >= 0
    missing = _key_texts(hashes[~scored])
    if missing and not lenient:
        shown = ", ".join(missing[:10])
        raise MissingPredictionsError(
            f"{len(missing)} truth hashes lack predictions (e.g. {shown})", tuple(missing)
        )
    actual, positive = classes[scored] == MALWARE, predicted[scored] != 0
    cells = np.where(positive, np.where(actual, 0, 1), np.where(actual, 3, 2))  # tp fp tn fn
    at = period_of[scored]
    table = np.bincount(at * 4 + cells, minlength=4 * len(periods)).reshape(-1, 4).tolist()
    present = np.bincount(at, minlength=len(periods)).tolist()
    counts = {p: ConfusionCounts(*table[k]) for k, p in enumerate(periods) if present[k]}
    series = {
        name: MetricSeries(name, tuple((p, c.metric(name)) for p, c in counts.items()))
        for name in METRIC_NAMES
    }
    return ConfusionReport(counts, series, tuple(missing))


def aut(series: Union[MetricSeries, Sequence[float]]) -> float:
    """Trapezoidal mean of a unit-spaced series; the single-point case is the value itself.

    Absent values are refused rather than silently interpolated.
    """
    if isinstance(series, MetricSeries):
        values = series.values()
    else:
        values = list(series)
    if not values:
        raise ValueError("aut of an empty series")
    if any(v is None for v in values):
        raise ValueError("aut refuses series with absent values")
    if len(values) == 1:
        return float(values[0])
    acc = 0.0
    for left, right in zip(values, values[1:]):
        acc += (left + right) / 2.0
    return acc / (len(values) - 1)


@dataclass(frozen=True)
class Split:
    train: tuple[Period, ...]
    test: tuple[Period, ...]

    def label(self) -> str:
        if (
            len(self.train) == 12
            and len(self.test) == 12
            and self.train[0].month == 1
            and self.test[0].month == 1
        ):
            return f"{self.train[0].year}|{self.test[0].year}"
        return (
            f"{self.train[0]}..{self.train[-1]}|{self.test[0]}..{self.test[-1]}"
        )


@dataclass(frozen=True)
class SplitPlan:
    window_months: int
    splits: tuple[Split, ...]


def rolling_splits(
    start: Period, end: Period, window_months: int, allow_partial_last: bool = False
) -> SplitPlan:
    """Consecutive train/test windows of N months each, advancing by N.

    Training on [t, t+N) and testing on [t+N, t+2N); a trailing test window
    shorter than N months is included only when explicitly allowed.
    """
    if start.granularity is not Granularity.MONTH or end.granularity is not Granularity.MONTH:
        raise ValueError("rolling splits require month periods")
    if window_months < 1:
        raise ValueError(f"window must be >= 1 month, got {window_months}")
    span = end.index - start.index + 1
    if span < 2 * window_months:
        raise ValueError(
            f"range of {span} months cannot hold a {window_months}-month train/test pair"
        )
    splits = []
    t = start.index
    while t + 2 * window_months - 1 <= end.index:
        train = tuple(Period(Granularity.MONTH, i) for i in range(t, t + window_months))
        test = tuple(
            Period(Granularity.MONTH, i) for i in range(t + window_months, t + 2 * window_months)
        )
        splits.append(Split(train, test))
        t += window_months
    if allow_partial_last and t + window_months <= end.index:
        train = tuple(Period(Granularity.MONTH, i) for i in range(t, t + window_months))
        test = tuple(
            Period(Granularity.MONTH, i) for i in range(t + window_months, end.index + 1)
        )
        splits.append(Split(train, test))
    return SplitPlan(window_months, tuple(splits))


def a_aut(aut_values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation of per-split AUT scores."""
    values = list(aut_values)
    if not values:
        raise ValueError("a_aut of an empty list")
    if min(values) == max(values):
        return float(values[0]), 0.0  # exact for constant lists
    mu = sum(values) / len(values)
    sigma = math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))
    return mu, sigma


def family_overlap(families: Sequence[Optional[str]], ref_families: Iterable[Optional[str]]) -> float:
    """Fraction of a slice's samples whose family already exists in the reference.

    Samples without a family label cannot match.
    """
    if not families:
        raise ValueError("family overlap of an empty slice")
    known = {f for f in ref_families if f is not None}
    return sum(1 for f in families if f is not None and f in known) / len(families)


def malware_families_by_period(
    pop: Population,
    rule: LabelRule,
    policy: TimestampPolicy,
    granularity: Granularity = Granularity.MONTH,
) -> dict[Period, list[Optional[str]]]:
    """Family labels of every datable malware record, grouped by period.

    Periods come in order of their first record, and each list in record order.
    """
    view = eligible(pop, rule, policy)
    rows = np.flatnonzero(view.pool & (view.classes == MALWARE))
    periods = view.periods(granularity)[rows]
    names = np.array([*pop.families, None], dtype=object)  # code -1 picks the None
    families = names[pop.family[rows]]
    seen, first, counts = np.unique(periods, return_index=True, return_counts=True)
    lists = np.split(families[np.argsort(periods, kind="stable")], np.cumsum(counts)[:-1])
    groups = dict(zip(seen.tolist(), lists))
    return {Period(granularity, p): groups[p].tolist() for p in seen[np.argsort(first)].tolist()}


def overlap_series(
    families_by_period: Mapping[Period, Sequence[Optional[str]]],
    ref_period: Period,
    test_periods: Sequence[Period],
) -> MetricSeries:
    """Family overlap of each test period's malware against a reference period."""
    ref = families_by_period.get(ref_period)
    if not ref:
        raise ValueError(f"reference period {ref_period} has no malware")
    points = []
    for period in sorted(test_periods, key=lambda p: p.index):
        slice_families = families_by_period.get(period)
        if not slice_families:
            raise ValueError(f"test period {period} has no malware")
        points.append((period, family_overlap(slice_families, ref)))
    return MetricSeries("family_overlap", tuple(points))
