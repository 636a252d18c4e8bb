import re

import pytest

from maldrift import model
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


def test_each_prediction_set_is_looked_up_once(monkeypatch):
    """Two sets over two splits: one key lookup per set, and no sub-manifest per split."""
    manifest = month_manifest("2014-01", 36)
    sets = [predictions(manifest, "a"), predictions(manifest, "b", wrong_hashes={sha_of("m20-0")})]
    calls = {"positions": [], "_replace": []}
    for name in calls:
        method = getattr(model.KeyedTable, name)

        def counting(table, *args, _name=name, _method=method, **kwargs):
            calls[_name].append(type(table).__name__)
            return _method(table, *args, **kwargs)

        monkeypatch.setattr(model.KeyedTable, name, counting)
    report = evaluate_manifest(manifest, sets, 12)
    assert len(report.split_labels) == 2
    assert calls == {"positions": ["PredictionSet", "PredictionSet"], "_replace": []}


def _without(preds, hashes):
    return PredictionSet(preds.name, {sha: row for sha, row in preds.rows.items() if sha not in hashes})


def test_missing_predictions_are_checked_split_by_split():
    """36 months, a 12-month window: months 1-12 are in no test window, months
    13-24 and 25-36 are the two splits' test windows. A hash missing outside
    every test window is never asked for; one missing in a window fails that
    split, naming exactly the missing hashes in entry order, or, lenient, drops
    out of that split's counts only."""
    manifest = month_manifest("2014-01", 36)
    full = predictions(manifest, wrong_hashes={sha_of(f"g{m}-0") for m in range(36)})  # fpr 1/2 each month
    assert evaluate_manifest(manifest, [_without(full, {sha_of("g2-0")})], 12).results == (
        evaluate_manifest(manifest, [full], 12).results
    )
    late = [sha_of(f"g{m}-0") for m in range(24, 36)]
    with pytest.raises(MissingPredictionsError, match="^12 truth hashes lack predictions") as raised:
        evaluate_manifest(manifest, [_without(full, set(late))], 12)
    assert raised.value.hashes == tuple(late)
    lenient = evaluate_manifest(manifest, [_without(full, set(late))], 12, lenient=True).window_series
    complete = evaluate_manifest(manifest, [full], 12).window_series
    assert lenient[("clf", 0)] == complete[("clf", 0)]
    assert complete[("clf", 1)]["fpr"].values() == [0.5] * 12
    assert lenient[("clf", 1)]["fpr"].values() == [0.0] * 12  # the false positives were the dropped hashes
