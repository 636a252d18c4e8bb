import re

import pytest

from maldrift.errors import MissingPredictionsError
from maldrift.ingest import PredictionRow, PredictionSet
from maldrift.labeling import LabelRule, TimestampKind, TimestampPolicy
from maldrift.model import ClassLabel, Period
from maldrift.report import (
    evaluate_manifest,
    render_aut_markdown,
    report_from_aut_table,
    report_to_dict,
)
from maldrift.sampler import DatasetManifest, ManifestEntry, build_spec_echo
from maldrift.sizing import PlanMode, SizingParams, SizingPlan

from helpers import sha_of

SPEC = build_spec_echo(
    LabelRule(4),
    TimestampPolicy(TimestampKind.CREATION_DEX),
    SizingPlan(PlanMode.MONTHLY, spatial=True),
    SizingParams(),
    seed=0,
)


def month_manifest(start: str, months: int, per_class: int = 2, skip_malware_in=()):
    entries = []
    base = Period.parse(start)
    for m in range(months):
        period = base.shifted(m)
        for i in range(per_class):
            entries.append(
                ManifestEntry(sha_of(f"g{m}-{i}"), ClassLabel.GOODWARE, period, frozenset({"play.google.com"}), None)
            )
            if str(period) not in skip_malware_in:
                entries.append(
                    ManifestEntry(sha_of(f"m{m}-{i}"), ClassLabel.MALWARE, period, frozenset({"play.google.com"}), "fam")
                )
    return DatasetManifest(tuple(entries), SPEC, created="2014-01-01 00:00:00")


def predictions(manifest, name="clf", accuracy=1.0, wrong_hashes=()):
    rows = {}
    for e in manifest.entries:
        truth = 1 if e.label is ClassLabel.MALWARE else 0
        predicted = 1 - truth if e.sha256 in wrong_hashes else truth
        rows[e.sha256] = PredictionRow(e.sha256, 0.9 if predicted else 0.1)
    return PredictionSet(name, rows)


def test_perfect_predictions_all_ones():
    manifest = month_manifest("2014-01", 24)
    report = evaluate_manifest(manifest, [predictions(manifest)], 12)
    row = report.results[0]
    assert row.auts == (1.0,)
    assert (row.mu, row.sigma) == (1.0, 0.0)
    assert not row.strict_differs


def test_ranking_mu_desc_sigma_asc():
    report = report_from_aut_table(
        [("wobbly", [0.5, 0.7]), ("steady", [0.6, 0.6]), ("best", [0.9, 0.9])]
    )
    assert [r.name for r in report.results] == ["best", "steady", "wobbly"]


def test_case_study_rows_three_decimals():
    report = report_from_aut_table([("drebin", [0.573, 0.488]), ("hcc", [0.620, 0.561])])
    by_name = {r.name: r for r in report.results}
    assert abs(by_name["drebin"].mu - 0.531) <= 5e-4 + 1e-9
    assert abs(by_name["drebin"].sigma - 0.043) <= 5e-4 + 1e-9
    assert abs(by_name["hcc"].mu - 0.590) <= 5e-4 + 1e-9
    assert abs(by_name["hcc"].sigma - 0.030) <= 5e-4 + 1e-9
    assert [r.name for r in report.results] == ["hcc", "drebin"]


def test_strict_variant_reported_when_months_differ():
    # one test month has no malware at all: its F1 is absent, so the
    # all-months AUT is refused while the defined-months AUT still exists
    manifest = month_manifest("2014-01", 24, skip_malware_in=("2015-06",))
    report = evaluate_manifest(manifest, [predictions(manifest)], 12)
    row = report.results[0]
    assert row.auts[0] == 1.0
    assert row.auts_strict[0] is None
    assert row.strict_differs


def test_missing_prediction_errors_and_lenient():
    manifest = month_manifest("2014-01", 24)
    preds = predictions(manifest)
    incomplete = PredictionSet("clf", dict(list(preds.rows.items())[:-1]))
    with pytest.raises(MissingPredictionsError):
        evaluate_manifest(manifest, [incomplete], 12)
    report = evaluate_manifest(manifest, [incomplete], 12, lenient=True)
    assert report.results


def test_unresolvable_prediction_hash_errors():
    manifest = month_manifest("2014-01", 24)
    preds = predictions(manifest)
    rows = dict(preds.rows)
    rows[sha_of("stranger")] = PredictionRow(sha_of("stranger"), 0.9)
    with pytest.raises(MissingPredictionsError):
        evaluate_manifest(manifest, [PredictionSet("clf", rows)], 12)


def test_markdown_contains_display_columns():
    report = report_from_aut_table([("clf", [0.573, 0.488])])
    text = render_aut_markdown(report)
    assert "0.5305" in text and "0.53" in text
    payload = report_to_dict(report)
    assert payload["results"][0]["mu_aut_2dp"] == 0.53


def test_window_series_populated():
    manifest = month_manifest("2014-01", 24)
    report = evaluate_manifest(manifest, [predictions(manifest)], 12)
    series = report.window_series[("clf", 0)]
    assert set(series) == {"f1", "fpr", "tpr", "precision", "recall"}
    assert len(series["f1"].points) == 12


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5, -0.1, "0.5", None])
def test_aut_table_refuses_values_outside_unit_interval(value):
    rows = [("good", [0.5, 0.6]), ("bad", [0.5, value])]
    with pytest.raises(ValueError, match=rf"^AUT table row 2 \(bad\), split2: {re.escape(repr(value))} is not a number in \[0, 1\]$"):
        report_from_aut_table(rows)
    assert report_from_aut_table([("edges", [0, 1.0])]).results[0].auts == (0, 1.0)
