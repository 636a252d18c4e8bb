import pytest
from hypothesis import given
from hypothesis import strategies as st

from maldrift.errors import MissingPredictionsError
from maldrift.ingest import PredictionRow, PredictionSet
from maldrift.labeling import LabelRule, TimestampKind, TimestampPolicy
from maldrift.metrics import (
    MetricSeries,
    a_aut,
    aut,
    confusion_metrics,
    family_overlap,
    malware_families_by_period,
    overlap_series,
    rolling_splits,
)
from maldrift.model import ClassLabel, Granularity, Period
from maldrift.synth import SynthConfig, generate, scenario_presets

from helpers import sha_of

P = Period.parse
GW, MW = ClassLabel.GOODWARE, ClassLabel.MALWARE


def predset(scores: dict[str, float]) -> PredictionSet:
    return PredictionSet("test", {sha: PredictionRow(sha, score) for sha, score in scores.items()})


def entries(*specs):
    """specs: (tag, cls, period-str, predicted score)."""
    truth = [(sha_of(tag), cls, P(period)) for tag, cls, period, _ in specs]
    preds = predset({sha_of(tag): score for tag, _, _, score in specs})
    return truth, preds


def test_confusion_all_correct():
    truth, preds = entries(
        ("a", MW, "2015-01", 0.9),
        ("b", GW, "2015-01", 0.1),
        ("c", MW, "2015-02", 0.8),
        ("d", GW, "2015-02", 0.2),
    )
    report = confusion_metrics(truth, preds)
    assert all(v == 1.0 for _, v in report.series["f1"].points)
    assert all(v == 0.0 for _, v in report.series["fpr"].points)


def test_confusion_all_negative_predictions():
    truth, preds = entries(("a", MW, "2015-01", 0.1), ("b", GW, "2015-01", 0.1))
    report = confusion_metrics(truth, preds)
    assert report.series["f1"].points[0][1] == 0.0


def test_confusion_hand_algebra():
    specs = []
    specs += [(f"tp{i}", MW, "2015-01", 0.9) for i in range(8)]
    specs += [(f"fp{i}", GW, "2015-01", 0.9) for i in range(4)]
    specs += [(f"fn{i}", MW, "2015-01", 0.1) for i in range(2)]
    truth, preds = entries(*specs)
    report = confusion_metrics(truth, preds)
    assert report.series["f1"].points[0][1] == pytest.approx(2 * 8 / (2 * 8 + 4 + 2))


def test_confusion_absent_not_zero():
    # no positives in truth, none predicted: F1 and TPR have empty denominators
    truth, preds = entries(("a", GW, "2015-01", 0.1), ("b", GW, "2015-01", 0.2))
    report = confusion_metrics(truth, preds)
    assert report.series["f1"].points[0][1] is None
    assert report.series["tpr"].points[0][1] is None
    assert report.series["fpr"].points[0][1] == 0.0


def test_confusion_missing_prediction():
    truth = [(sha_of("a"), MW, P("2015-01")), (sha_of("b"), GW, P("2015-01"))]
    preds = predset({sha_of("a"): 0.9})
    with pytest.raises(MissingPredictionsError) as exc:
        confusion_metrics(truth, preds)
    assert sha_of("b") in exc.value.hashes
    report = confusion_metrics(truth, preds, lenient=True)
    assert report.dropped == (sha_of("b"),)


def test_confusion_rejects_greyware():
    truth = [(sha_of("a"), ClassLabel.GREYWARE, P("2015-01"))]
    with pytest.raises(ValueError):
        confusion_metrics(truth, predset({sha_of("a"): 0.9}))


def test_confusion_year_granularity():
    truth, preds = entries(("a", MW, "2015-01", 0.9), ("b", MW, "2015-07", 0.1))
    report = confusion_metrics(truth, preds, granularity=Granularity.YEAR)
    assert list(report.counts) == [P("2015")]
    assert report.counts[P("2015")].tp == 1
    assert report.counts[P("2015")].fn == 1


@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 4)), min_size=1, max_size=200))
def test_confusion_brute_force_equivalence(rows):
    truth = []
    scores = {}
    tally = {}
    for i, (actual, predicted, month) in enumerate(rows):
        sha = sha_of(f"bf{i}")
        period = P(f"2015-{month + 1:02d}")
        truth.append((sha, MW if actual else GW, period))
        scores[sha] = 0.9 if predicted else 0.1
        cell = tally.setdefault(period, {"tp": 0, "fp": 0, "tn": 0, "fn": 0})
        key = ("tp" if predicted else "fn") if actual else ("fp" if predicted else "tn")
        cell[key] += 1
    report = confusion_metrics(truth, predset(scores))
    for period, counts in report.counts.items():
        naive = tally[period]
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (
            naive["tp"],
            naive["fp"],
            naive["tn"],
            naive["fn"],
        )


def series(values, start="2015-01"):
    base = P(start)
    return MetricSeries("f1", tuple((base.shifted(i), v) for i, v in enumerate(values)))


def test_aut_examples():
    assert aut(series([1.0, 1.0, 1.0])) == 1.0
    assert aut(series([0.0, 1.0])) == 0.5
    assert aut(series([0.8, 0.6, 0.4])) == pytest.approx(0.6)  # ((0.7)+(0.5))/2
    assert aut(series([0.42])) == pytest.approx(0.42)


def test_aut_refuses_absent_and_empty():
    with pytest.raises(ValueError):
        aut(series([0.5, None, 0.7]))
    with pytest.raises(ValueError):
        aut(series([]))


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_aut_in_unit_interval(values):
    assert 0.0 <= aut(series(values)) <= 1.0


@given(st.floats(0.0, 1.0), st.floats(-0.02, 0.02), st.integers(2, 20))
def test_aut_linear_equals_mean(intercept, slope, k):
    values = [min(1.0, max(0.0, intercept + slope * i)) for i in range(k)]
    if values != [intercept + slope * i for i in range(k)]:
        return  # clipping broke linearity
    assert aut(series(values)) == pytest.approx(sum(values) / k)


def test_rolling_splits_appendix_anchor():
    plan = rolling_splits(P("2014-01"), P("2018-12"), 12)
    assert [s.label() for s in plan.splits] == [
        "2014|2015",
        "2015|2016",
        "2016|2017",
        "2017|2018",
    ]
    for split in plan.splits:
        assert len(split.train) == 12 and len(split.test) == 12
        assert max(p.index for p in split.train) < min(p.index for p in split.test)


def test_rolling_splits_exact_and_short_range():
    assert len(rolling_splits(P("2014-01"), P("2015-12"), 12).splits) == 1
    with pytest.raises(ValueError):
        rolling_splits(P("2014-01"), P("2015-11"), 12)


def test_rolling_splits_partial_last():
    strict = rolling_splits(P("2014-01"), P("2015-06"), 6)
    assert len(strict.splits) == 2
    partial = rolling_splits(P("2014-01"), P("2015-08"), 6, allow_partial_last=True)
    assert len(partial.splits) == 3
    assert len(partial.splits[-1].test) == 2


@pytest.mark.parametrize(
    "auts,expected",
    [
        ([0.69, 0.67, 0.79, 0.64], (0.70, 0.06)),
        ([0.66, 0.72, 0.52, 0.82], (0.68, 0.11)),
        ([0.45, 0.42, 0.53, 0.83], (0.56, 0.16)),
        ([0.90, 0.87, 0.87, 0.80], (0.86, 0.04)),
    ],
)
def test_a_aut_published_rows(auts, expected):
    mu, sigma = a_aut(auts)
    assert (round(mu, 2), round(sigma, 2)) == expected


def test_a_aut_singleton_and_errors():
    assert a_aut([0.42]) == (0.42, 0.0)
    with pytest.raises(ValueError):
        a_aut([])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), st.randoms())
def test_a_aut_permutation_invariant(values, rnd):
    mu1, s1 = a_aut(values)
    shuffled = list(values)
    rnd.shuffle(shuffled)
    mu2, s2 = a_aut(shuffled)
    assert mu1 == pytest.approx(mu2)
    assert s1 == pytest.approx(s2)


@given(st.floats(0.0, 1.0), st.integers(1, 20))
def test_a_aut_constant(c, k):
    mu, sigma = a_aut([c] * k)
    assert mu == pytest.approx(c)
    assert sigma == 0.0


def test_family_overlap_examples():
    assert family_overlap(["a", "b"], ["a", "b"]) == 1.0
    assert family_overlap(["a", "b"], ["c"]) == 0.0
    assert family_overlap(["a", "a", "b"], ["a"]) == pytest.approx(2 / 3)


def test_family_overlap_absent_families():
    assert family_overlap(["a", None, None], ["a"]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        family_overlap([], ["a"])


@given(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30),
    st.sets(st.sampled_from("abcdef")),
    st.sets(st.sampled_from("abcdef")),
)
def test_family_overlap_monotone_in_reference(d_families, ref, extra):
    base = family_overlap(d_families, ref)
    grown = family_overlap(d_families, ref | extra)
    assert grown >= base


def test_overlap_series_stable_is_one():
    pop, truth = generate(scenario_presets()["stable"])
    rule, policy = LabelRule(4), TimestampPolicy(TimestampKind.CREATION_DEX)
    fams = malware_families_by_period(pop, rule, policy, Granularity.MONTH)
    months = sorted(fams, key=lambda p: p.index)
    # reference the ground-truth active set so coverage gaps cannot matter
    mapping = dict(fams)
    mapping[months[0]] = list(truth.active_families[months[0]])
    result = overlap_series(mapping, months[0], months[1:])
    assert all(v == 1.0 for _, v in result.points)


def test_overlap_series_wholesale_replacement_is_zero():
    config = SynthConfig(
        months=6, per_month=120, family_pool=5, family_birth_rate=5, family_lifetime=1, seed=3
    )
    pop, _ = generate(config)
    fams = malware_families_by_period(
        pop, LabelRule(4), TimestampPolicy(TimestampKind.CREATION_DEX), Granularity.MONTH
    )
    months = sorted(fams, key=lambda p: p.index)
    result = overlap_series(fams, months[0], months[1:])
    assert all(v == 0.0 for _, v in result.points)


def test_overlap_series_errors_on_empty_slice():
    with pytest.raises(ValueError):
        overlap_series({P("2015-01"): ["a"]}, P("2015-02"), [P("2015-01")])
    with pytest.raises(ValueError):
        overlap_series({P("2015-01"): ["a"]}, P("2015-01"), [P("2015-03")])
