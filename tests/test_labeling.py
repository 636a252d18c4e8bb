import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maldrift import labeling
from maldrift.labeling import (
    DEFAULT_MARKET_PRIORITY,
    LabelRule,
    TimestampKind,
    TimestampPolicy,
    label,
    market_composition,
    market_consistency,
    market_sort_key,
    timeline_date,
    timestamp_lag_stats,
    tv_distance,
    vtt_coverage,
    vtt_market_heatmap,
)
from maldrift.model import COLUMNS, ClassLabel, Granularity, Population
from maldrift.sampler import stratified_sample
from maldrift.sizing import PlanMode, SizingParams, SizingPlan, compare_plans, plan_sizes

from helpers import make_population, make_record, sha_of


@pytest.mark.parametrize(
    "detections,vtt,expected",
    [
        (0, 4, ClassLabel.GOODWARE),
        (2, 4, ClassLabel.GREYWARE),
        (4, 4, ClassLabel.MALWARE),  # threshold is inclusive
        (14, 15, ClassLabel.GREYWARE),
    ],
)
def test_label_table(detections, vtt, expected):
    assert label(make_record("x", vt=detections), LabelRule(vtt)) is expected


def test_label_rule_validation():
    with pytest.raises(ValueError):
        LabelRule(0)


@given(st.integers(0, 60), st.integers(1, 40))
def test_labeling_partition(detections, vtt):
    cls = label(make_record("x", vt=detections), LabelRule(vtt))
    expected = (
        ClassLabel.GOODWARE
        if detections == 0
        else ClassLabel.MALWARE
        if detections >= vtt
        else ClassLabel.GREYWARE
    )
    assert cls is expected


@given(st.lists(st.integers(0, 40), min_size=1, max_size=40), st.integers(1, 39))
def test_vtt_monotonicity(detections, vtt):
    pop = make_population([make_record(i, vt=d) for i, d in enumerate(detections)])
    low = [label(r, LabelRule(vtt)) for r in pop]
    high = [label(r, LabelRule(vtt + 1)) for r in pop]
    assert sum(c is ClassLabel.MALWARE for c in high) <= sum(c is ClassLabel.MALWARE for c in low)
    assert sum(c is ClassLabel.GREYWARE for c in high) >= sum(c is ClassLabel.GREYWARE for c in low)


def test_timeline_date_policies():
    rec = make_record("x", dex="2014-01-01", crawl="2014-02-01")
    pub = TimestampPolicy(TimestampKind.PUBLICATION_CRAWL)
    assert timeline_date(rec, pub) == rec.crawl_date
    no_crawl = make_record("y", dex="2014-01-01")
    assert timeline_date(no_crawl, pub) is None
    with_fallback = TimestampPolicy(TimestampKind.PUBLICATION_CRAWL, TimestampKind.CREATION_DEX)
    assert timeline_date(no_crawl, with_fallback) == no_crawl.dex_date


def test_lag_stats_zero_and_median():
    pop = make_population([make_record(i, dex="2014-01-01", crawl="2014-01-01") for i in range(3)])
    stats = timestamp_lag_stats(pop, TimestampKind.CREATION_DEX, TimestampKind.PUBLICATION_CRAWL)
    assert stats.median_days == 0.0

    pop = make_population(
        [
            make_record(1, dex="2014-01-01", crawl="2014-01-02"),
            make_record(2, dex="2014-01-01", crawl="2014-01-06"),
            make_record(3, dex="2014-01-01", crawl="2014-04-11"),
        ]
    )
    stats = timestamp_lag_stats(pop, TimestampKind.CREATION_DEX, TimestampKind.PUBLICATION_CRAWL)
    assert stats.median_days == pytest.approx(5.0)
    assert stats.count == 3


def test_lag_stats_excludes_missing():
    pop = make_population([make_record(1, crawl="2014-01-20"), make_record(2)])
    stats = timestamp_lag_stats(pop, TimestampKind.CREATION_DEX, TimestampKind.PUBLICATION_CRAWL)
    assert stats.count == 1
    assert stats.excluded == 1
    with pytest.raises(ValueError):
        timestamp_lag_stats(
            make_population([make_record(9)]),
            TimestampKind.CREATION_DEX,
            TimestampKind.PUBLICATION_CRAWL,
        )


def _lag_population(lag_seconds: list[int]) -> Population:
    """Records whose crawl date follows the dex date by the given seconds."""
    n = len(lag_seconds)
    dex = np.datetime64("2015-06-01", "s") + np.arange(n) * 3600
    columns = {name: np.zeros(n, dtype=dtype) for name, dtype in COLUMNS.items()}
    columns.update(sha256=np.array([sha_of(i) for i in range(n)], dtype="S64"), dex_date=dex,
                   crawl_date=dex + np.array(lag_seconds), vt_scan_date=np.full(n, np.datetime64("NaT"), "M8[s]"))
    return Population.from_columns(columns, (frozenset({"play.google.com"}),), ())


def _seeded_lags(n: int, seed: int) -> list[int]:
    """n lags in seconds, from -3 to 30 days, with ties (draws from a small pool) and negative lags."""
    rng = random.Random(seed)
    pool = [rng.randint(-3 * 86400, 30 * 86400) for _ in range(n // 4 + 1)]
    return [rng.choice(pool) if rng.random() < 0.4 else rng.randint(-3 * 86400, 30 * 86400) for _ in range(n)]


@pytest.mark.parametrize("n", [*range(1, 10), 5000])
def test_lag_quartiles_equal_statistics(n):
    for seed in range(30 if n < 10 else 1):
        seconds = _seeded_lags(n, seed)
        stats = timestamp_lag_stats(_lag_population(seconds), TimestampKind.CREATION_DEX, TimestampKind.PUBLICATION_CRAWL)
        lags = [s / 86400.0 for s in seconds]
        q1, _, q3 = statistics.quantiles(lags, n=4) if n > 1 else [lags[0]] * 3
        assert (stats.q1_days, stats.median_days, stats.q3_days) == (q1, statistics.median(lags), q3)
        assert all(type(v) is float for v in (stats.q1_days, stats.median_days, stats.q3_days))
    stats = timestamp_lag_stats(_lag_population([86400, 2 * 86400]), TimestampKind.CREATION_DEX,
                                TimestampKind.PUBLICATION_CRAWL)
    assert stats.q1_days == 0.75  # statistics.quantiles clamps the cut below the first of two values


def test_market_composition_single_class():
    pop = make_population([make_record(i, vt=0, markets=("play.google.com",)) for i in range(2)])
    rows = market_composition(pop, LabelRule(4))
    assert rows == [row for row in rows if row.market == "play.google.com"]
    assert rows[0].goodware_pct == 100.0


def test_market_composition_multi_tag():
    pop = make_population([make_record(1, vt=10, markets=("play.google.com", "anzhi"))])
    rows = {r.market: r for r in market_composition(pop, LabelRule(4))}
    assert rows["play.google.com"].malware_pct == 100.0
    assert rows["anzhi"].malware_pct == 100.0


def test_market_composition_hand_count():
    # 10 malware, 4 of them tagged VirusShare -> 40%
    records = [
        make_record(i, vt=10, markets=("VirusShare",) if i < 4 else ("play.google.com",))
        for i in range(10)
    ]
    records.append(make_record("gw", vt=0))
    rows = {r.market: r for r in market_composition(make_population(records), LabelRule(4))}
    assert rows["VirusShare"].malware_pct == pytest.approx(40.0)


def test_market_consistency_identical_distributions():
    records = [make_record(f"g{i}", vt=0) for i in range(5)]
    records += [make_record(f"m{i}", vt=10) for i in range(5)]
    result = market_consistency(make_population(records), LabelRule(4))
    assert result.tv_distance == 0.0
    assert result.passed


def test_market_consistency_disjoint():
    records = [make_record(f"g{i}", vt=0, markets=("play.google.com",)) for i in range(4)]
    records += [make_record(f"m{i}", vt=10, markets=("VirusShare",)) for i in range(4)]
    result = market_consistency(make_population(records), LabelRule(4))
    assert result.tv_distance == 1.0
    assert not result.passed


def test_market_consistency_derived_tv():
    # gw {play: 0.8, anzhi: 0.2}, mw {play: 0.6, anzhi: 0.4} -> 0.5*(0.2+0.2)
    records = [
        make_record(f"g{i}", vt=0, markets=("play.google.com",) if i < 8 else ("anzhi",))
        for i in range(10)
    ]
    records += [
        make_record(f"m{i}", vt=10, markets=("play.google.com",) if i < 6 else ("anzhi",))
        for i in range(10)
    ]
    result = market_consistency(make_population(records), LabelRule(4))
    assert result.tv_distance == pytest.approx(0.2)
    assert not result.passed


def test_market_consistency_empty_class():
    with pytest.raises(ValueError):
        market_consistency(make_population([make_record(1, vt=0)]), LabelRule(4))


def test_attribute_market_priority():
    key = market_sort_key(DEFAULT_MARKET_PRIORITY)
    assert min(frozenset({"VirusShare", "anzhi"}), key=key) == "anzhi"
    assert min(frozenset({"zzz-market", "unknown"}), key=key) == "unknown"


@given(
    st.dictionaries(st.sampled_from("abcde"), st.floats(0.01, 1.0), min_size=1, max_size=5),
    st.dictionaries(st.sampled_from("abcde"), st.floats(0.01, 1.0), min_size=1, max_size=5),
)
def test_tv_distance_axioms(p_raw, q_raw):
    p = {k: v / sum(p_raw.values()) for k, v in p_raw.items()}
    q = {k: v / sum(q_raw.values()) for k, v in q_raw.items()}
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert d == pytest.approx(tv_distance(q, p))
    assert tv_distance(p, p) == 0.0


def test_vtt_coverage_hand_count():
    pop = make_population([make_record(i, vt=d) for i, d in enumerate((0, 1, 4, 20))])
    assert vtt_coverage(pop, 4) == pytest.approx(2 / 3)
    assert vtt_coverage(pop, 1) == 1.0


def test_vtt_coverage_empty_denominator():
    pop = make_population([make_record(i, vt=0) for i in range(3)])
    with pytest.raises(ValueError):
        vtt_coverage(pop, 4)


@given(st.lists(st.integers(0, 40), min_size=1, max_size=60))
def test_vtt_coverage_non_increasing(detections):
    pop = make_population([make_record(i, vt=d) for i, d in enumerate(detections)])
    if not any(d >= 1 for d in detections):
        return
    curve = [vtt_coverage(pop, v) for v in range(1, 8)]
    assert curve[0] == 1.0
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_vtt_market_heatmap():
    records = [make_record(i, vt=5, markets=("anzhi",)) for i in range(3)]
    records += [make_record(f"v{i}", vt=20, markets=("VirusShare",)) for i in range(2)]
    heat = vtt_market_heatmap(make_population(records), [1, 15, 30])
    assert heat[1]["anzhi"] == pytest.approx(60.0)
    assert heat[15] == {"VirusShare": 100.0}
    assert heat[30] is None  # absent row, not zeros


def test_vtt_market_heatmap_single_market():
    pop = make_population([make_record(i, vt=i + 1) for i in range(5)])
    heat = vtt_market_heatmap(pop, [1, 2])
    assert heat[1] == {"play.google.com": 100.0}
    assert heat[2] == {"play.google.com": 100.0}


SRC = Path(__file__).resolve().parents[1] / "src"

_TV_PROBE = """
from maldrift.labeling import tv_distance
tags = ["play.google.com", "anzhi", "appchina", "VirusShare", "mi.com", "fdroid", "unknown", "hiapk", "slideme"]
p = {t: (7 * i + 3) % 11 + 1 for i, t in enumerate(tags)}
q = {t: (5 * i + 2) % 13 + 1 for i, t in enumerate(tags[2:])}
p = {t: v / sum(p.values()) for t, v in p.items()}
q = {t: v / sum(q.values()) for t, v in q.items()}
print(repr(tv_distance(p, q)))
"""


def test_tv_distance_same_under_any_hash_seed():
    """The sum does not follow the string hash seed's set order."""
    outputs = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _TV_PROBE], capture_output=True, text=True, env=env, check=True)
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1, outputs


# the shared Eligible view: built once per population, rule and policy
_RULE = LabelRule(4)
_FALLBACK = TimestampPolicy(TimestampKind.PUBLICATION_CRAWL, TimestampKind.CREATION_DEX)


def _dated_population() -> Population:
    return make_population(
        make_record(
            i,
            dex=f"{2014 + i // 24}-{i % 12 + 1:02d}-15",
            vt=(0, 0, 2, 7)[i % 4],
            crawl=None if i % 5 == 0 else f"{2014 + i // 24}-{i % 12 + 1:02d}-20",
            markets=(("play.google.com",), ("anzhi",), ("appchina", "anzhi"))[i % 3],
        )
        for i in range(96)
    )


def _counting_views(monkeypatch) -> list:
    """The rules of the views built from now on (each build derives class codes once)."""
    builds, class_codes = [], labeling.class_codes

    def counting(pop, rule):
        builds.append(rule)
        return class_codes(pop, rule)

    monkeypatch.setattr(labeling, "class_codes", counting)
    return builds


def test_compare_plans_builds_one_view(monkeypatch):
    builds = _counting_views(monkeypatch)
    moe, dada = SizingParams(), SizingParams(bonferroni_m=30)
    plans = [(SizingPlan(mode, spatial), params) for mode in PlanMode for spatial, params in ((False, dada), (True, moe))]
    assert len(compare_plans(_dated_population(), _RULE, _FALLBACK, plans)) == 6
    assert builds == [_RULE]


def test_eligible_view_is_shared_and_read_only():
    pop = _dated_population()
    view = labeling.eligible(pop, _RULE, _FALLBACK)
    assert labeling.eligible(pop, _RULE, _FALLBACK) is view
    assert labeling.timeline_dates(pop, _FALLBACK) is view.dates  # what verify_constraints reads
    arrays = [*view, view.periods(Granularity.MONTH), view.periods(Granularity.YEAR)]
    assert not any(array.flags.writeable for array in arrays)
    assert view.periods(Granularity.MONTH)[~view.pool].tolist() == [-1] * int((~view.pool).sum())


def test_market_filter_leaves_the_view_unchanged():
    pop = _dated_population()
    before = [array.copy() for array in labeling.eligible(pop, _RULE, _FALLBACK)]
    result = plan_sizes(pop, _RULE, _FALLBACK, SizingPlan(PlanMode.GLOBAL), SizingParams())
    manifest = stratified_sample(pop, _RULE, _FALLBACK, result, seed=1, market_filter=frozenset({"appchina"}))
    assert 0 < len(manifest) < int(before[0].sum())
    assert all(np.array_equal(a, b) for a, b in zip(before, labeling.eligible(pop, _RULE, _FALLBACK)))


def test_a_selection_derives_afresh(monkeypatch):
    pop = _dated_population()
    view = labeling.eligible(pop, _RULE, _FALLBACK)
    months = view.periods(Granularity.MONTH)
    builds = _counting_views(monkeypatch)
    keep = np.arange(len(pop)) % 3 != 1
    fresh = labeling.eligible(pop.select(keep), _RULE, _FALLBACK)
    assert builds == [_RULE]
    assert all(np.array_equal(a, b[keep]) for a, b in zip(fresh, view))
    assert np.array_equal(fresh.periods(Granularity.MONTH), months[keep])
