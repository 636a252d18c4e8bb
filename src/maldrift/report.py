"""Evaluation reports and rendering.

Builds the rolling-window evaluation grid (per-split AUT columns plus the
mean/std aggregate) from a manifest and prediction sets, or directly from
published per-split AUT values. Report floats are printed at 4 decimals with
a 2-decimal display column; prediction sets are ranked by mean descending,
ties broken by std ascending.
"""
from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field
from typing import IO, Optional, Sequence

import numpy as np

from .errors import MissingPredictionsError
from .ingest import PredictionSet
from .labeling import MALWARE
from .metrics import MetricSeries, _confusion, a_aut, aut, rolling_splits
from .model import Granularity, Period, _key_texts
from .sampler import DatasetManifest


def fmt4(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.4f}"


def fmt2(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.2f}"


@dataclass(frozen=True)
class PredsetResult:
    """Per-split AUT values and their aggregate for one prediction set."""

    name: str
    auts: tuple[float, ...]
    mu: float
    sigma: float
    auts_strict: tuple[Optional[float], ...] = ()
    strict_differs: bool = False


@dataclass(frozen=True)
class EvaluationReport:
    window_months: int
    split_labels: tuple[str, ...]
    results: tuple[PredsetResult, ...]
    window_series: dict[tuple[str, int], dict[str, MetricSeries]]
    # per split: overlap of each test month's malware families with the
    # training window's families (prediction-independent drift view)
    overlap_series: dict[int, MetricSeries] = field(default_factory=dict)


def _rank(results: list[PredsetResult]) -> tuple[PredsetResult, ...]:
    return tuple(sorted(results, key=lambda r: (-r.mu, r.sigma)))


def evaluate_manifest(
    manifest: DatasetManifest,
    predsets: Sequence[PredictionSet],
    window_months: int,
    metric: str = "f1",
    lenient: bool = False,
) -> EvaluationReport:
    """Rolling-window evaluation of prediction sets against a manifest.

    Each split's AUT is computed over the test months with a defined metric
    value; the all-months variant is reported alongside when it differs
    (it is refused, not interpolated, when a month is absent). The sets'
    names key the results and window series, so they must differ.
    """
    names = [preds.name for preds in predsets]
    if repeated := sorted({name for k, name in enumerate(names) if name in names[:k]}):
        raise ValueError(f"prediction sets share a name: {', '.join(map(repr, repeated))}")
    if not len(manifest):
        raise ValueError("manifest has no entries to evaluate")
    periods, _ = manifest._periods()
    if any(p.granularity is not Granularity.MONTH for p in periods):
        raise ValueError("temporal evaluation requires a monthly manifest")
    plan = rolling_splits(periods[0], periods[-1], window_months)
    by_month = np.argsort(manifest.period, kind="stable")  # entry order within a month
    months = manifest.period[by_month]

    def rows_in(span: tuple[Period, ...]) -> np.ndarray:
        """The entries of a run of consecutive months, month by month."""
        lo, hi = np.searchsorted(months, [span[0].index, span[-1].index + 1])
        return by_month[lo:hi]

    malware = manifest.label == MALWARE
    overlap: dict[int, MetricSeries] = {}
    for idx, split in enumerate(plan.splits):
        train = rows_in(split.train)
        known_names = {manifest.families[code] for code in set(manifest.family[train[malware[train]]].tolist()) - {-1}}
        known = np.array([name in known_names for name in manifest.families] + [False])  # code -1 picks the False
        test = rows_in(split.test)
        test = test[malware[test]]
        month = manifest.period[test] - split.test[0].index
        totals = np.bincount(month, minlength=len(split.test)).tolist()
        matched = np.bincount(month[known[manifest.family[test]]], minlength=len(split.test)).tolist()
        points = [(m, matched[k] / totals[k] if totals[k] else None) for k, m in enumerate(split.test)]
        overlap[idx] = MetricSeries("family_overlap", tuple(points))

    results = []
    window_series: dict[tuple[str, int], dict[str, MetricSeries]] = {}
    for preds in predsets:
        found = preds.positions(manifest.sha256)  # the one lookup of this set
        unresolved = np.ones(len(preds) + 1, dtype=bool)
        unresolved[found] = False  # an entry without a prediction clears the spare last slot
        extras = _key_texts(preds.sha256[preds.sha_order[unresolved[preds.sha_order]]])  # in hash order
        if extras and not lenient:
            shown = ", ".join(extras[:10])
            raise MissingPredictionsError(
                f"{len(extras)} prediction hashes do not resolve against the manifest (e.g. {shown})",
                tuple(extras),
            )
        predicted = np.append(preds.predicted_class, -1)[found]  # -1 where the set lacks the entry
        auts: list[float] = []
        stricts: list[Optional[float]] = []
        for idx, split in enumerate(plan.splits):
            truth = rows_in(split.test)
            if not len(truth):
                raise ValueError(f"split {split.label()} has no test entries")
            month_of = manifest.period[truth] - split.test[0].index
            report = _confusion(manifest.sha256[truth], manifest.label[truth], month_of, split.test, predicted[truth], lenient)
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
        del found, unresolved, predicted  # before the next set's lookup
        mu, sigma = a_aut(auts)
        strict_differs = any(
            s is None or abs(s - a) > 1e-12 for s, a in zip(stricts, auts)
        )
        results.append(
            PredsetResult(preds.name, tuple(auts), mu, sigma, tuple(stricts), strict_differs)
        )
    labels = tuple(split.label() for split in plan.splits)
    return EvaluationReport(window_months, labels, _rank(results), window_series, overlap)


def report_from_aut_table(
    rows: Sequence[tuple[str, Sequence[float]]], window_months: int = 12
) -> EvaluationReport:
    """Aggregate already-computed per-split AUT values, each a number in [0, 1], into the report grid."""
    if not rows:
        raise ValueError("empty AUT table")
    width = len(rows[0][1])
    if width == 0 or any(len(auts) != width for _, auts in rows):
        raise ValueError("all rows must carry the same non-zero number of AUT values")
    results = []
    for row, (name, auts) in enumerate(rows, 1):
        for column, value in enumerate(auts, 1):
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):  # false for NaN
                raise ValueError(f"AUT table row {row} ({name}), split{column}: {value!r} is not a number in [0, 1]")
        mu, sigma = a_aut(list(auts))
        results.append(PredsetResult(name, tuple(auts), mu, sigma))
    labels = tuple(f"split{i + 1}" for i in range(width))
    return EvaluationReport(window_months, labels, _rank(results), {})


def render_aut_markdown(report: EvaluationReport) -> str:
    """The rows of aut_table_rows as a markdown table."""
    header, rows = aut_table_rows(report)
    header[-2:] = ["mu", "sigma"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return "\n".join(lines + ["| " + " | ".join(cells) + " |" for cells in rows]) + "\n"


def aut_table_rows(report: EvaluationReport) -> tuple[list[str], list[list[str]]]:
    header = ["classifier", *report.split_labels, "mu_aut", "sigma_aut", "mu_2dp", "sigma_2dp"]
    rows = []
    for row in report.results:
        rows.append(
            [row.name, *(fmt4(v) for v in row.auts), fmt4(row.mu), fmt4(row.sigma), fmt2(row.mu), fmt2(row.sigma)]
        )
    return header, rows


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "window_months": report.window_months,
        "split_labels": list(report.split_labels),
        "family_overlap": {
            report.split_labels[idx]: [
                {"period": str(p), "value": None if v is None else round(v, 6)}
                for p, v in series.points
            ]
            for idx, series in sorted(report.overlap_series.items())
        },
        "results": [
            {
                "name": r.name,
                "aut_by_split": [round(v, 6) for v in r.auts],
                "mu_aut": round(r.mu, 6),
                "sigma_aut": round(r.sigma, 6),
                "mu_aut_2dp": float(fmt2(r.mu)),
                "sigma_aut_2dp": float(fmt2(r.sigma)),
                "aut_all_months": [None if v is None else round(v, 6) for v in r.auts_strict],
                "all_months_variant_differs": r.strict_differs,
            }
            for r in report.results
        ],
    }


def write_window_series_csv(report: EvaluationReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("predictions", "split", "period", "metric", "value"))
    for (name, split_idx), series_map in sorted(report.window_series.items()):
        for metric_name, series in sorted(series_map.items()):
            for period, value in series.points:
                writer.writerow((name, split_idx, str(period), metric_name, fmt4(value)))
