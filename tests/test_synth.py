import dataclasses
import hashlib
import io
import math
import tracemalloc
from datetime import datetime, timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_rows as oracle

from maldrift.ingest import parse_metadata, snapshot_filter, write_metadata_csv
from maldrift.labeling import (
    LabelRule,
    TimestampKind,
    TimestampPolicy,
    label,
    market_consistency,
    timestamp_lag_stats,
)
from maldrift.metrics import malware_families_by_period, overlap_series
from maldrift.model import ClassLabel, Granularity, Period, parse_timestamp
from maldrift.synth import (
    DetectionModel,
    LagModel,
    SynthConfig,
    generate,
    scenario_presets,
)

DEX = TimestampPolicy(TimestampKind.CREATION_DEX)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(months=6, per_month=100, family_pool=5, seed=21),
        SynthConfig(months=8, per_month=150, family_pool=5, seed=22),
    ],
    ids=["6x100-seed21", "8x150-seed22"],
)
def test_generate_deterministic(config):
    pop1, truth1 = generate(config)
    pop2, truth2 = generate(config)
    assert pop1.records == pop2.records
    assert truth1 == truth2


def test_counts_exact_and_seed_independent():
    base = SynthConfig(months=5, per_month=97, malware_fraction=0.13, family_pool=4, seed=1)
    other = SynthConfig(months=5, per_month=97, malware_fraction=0.13, family_pool=4, seed=2)
    for config in (base, other):
        pop, truth = generate(config)
        assert len(pop) == 5 * 97
        per_month_malware = {}
        for rec in pop:
            if truth.true_class[rec.sha256] is ClassLabel.MALWARE:
                key = (rec.dex_date.year, rec.dex_date.month)
                per_month_malware[key] = per_month_malware.get(key, 0) + 1
        assert set(per_month_malware.values()) == {13}  # round(97*0.13)
    pop_a, _ = generate(base)
    pop_b, _ = generate(other)
    assert {r.sha256 for r in pop_a} != {r.sha256 for r in pop_b}


def test_round_trip_through_ingest():
    pop, _ = generate(SynthConfig(months=4, per_month=80, family_pool=4, seed=5))
    buf = io.StringIO()
    write_metadata_csv(pop, buf)
    buf.seek(0)
    assert set(parse_metadata(buf).population.records) == set(pop.records)


_backfill_lags = st.builds(
    LagModel,
    st.just("backfill"),
    days=st.floats(0, 40),
    sigma=st.floats(0, 2),
    late_fraction=st.floats(0, 1),
    late_days=st.floats(0, 2000),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(10, 12).flatmap(lambda month: st.tuples(st.just(month), st.integers(1, 13 - month))),
       _backfill_lags, st.integers(1, 40), st.integers(0, 2**32))
def test_generated_population_ingests_whole(span, lag, per_month, seed):
    """Every population generate gives ingests with no malformed row: crawl
    and scan dates past the parser's last second (2100-12-31 23:59:59) are
    capped to it."""
    month, months = span
    config = SynthConfig(months=months, per_month=per_month, family_pool=3, lag=lag, start=f"2100-{month}", seed=seed)
    pop, _ = generate(config)
    buf = io.StringIO()
    write_metadata_csv(pop, buf)
    buf.seek(0)
    result = parse_metadata(buf)
    assert (result.stats.malformed, result.stats.parsed) == (0, len(pop))
    assert result.population.records == pop.records


def test_true_class_is_in_generation_order():
    pop, truth = generate(SynthConfig(months=3, per_month=50, malware_fraction=0.2, family_pool=2, seed=4))
    hashes = [hashlib.sha256(f"synth-4-{m}-{i}".encode()).hexdigest() for m in range(3) for i in range(50)]
    classes = ([ClassLabel.GOODWARE] * 40 + [ClassLabel.MALWARE] * 10) * 3
    expected = dict(zip(hashes, classes))
    assert list(truth.true_class.items()) == list(expected.items())
    assert truth.true_class == expected
    assert pop.sha256.astype(str).tolist() == hashes
    for absent in ("0" * 64, hashes[0].upper(), "x", 5, None):
        assert absent not in truth.true_class
        with pytest.raises(KeyError):
            truth.true_class[absent]


def _generate_beyond_columns(months):
    tracemalloc.start()
    try:
        pop, _ = generate(SynthConfig(months=months, per_month=400, family_pool=20, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(column.nbytes for column in pop.columns().values()) - pop.sha_order.nbytes


def test_generate_holds_only_columns():
    """From 40k to 160k records, what generate holds beyond the population's
    columns and sort order grows by under 2 MB. A list of hex strings and a
    dict of classes (Python objects per record) grew it by 28 MB."""
    peaks = [_generate_beyond_columns(months) for months in (100, 400)]
    assert peaks[1] - peaks[0] < 2_000_000


def test_ground_truth_matches_design_labeling():
    config = SynthConfig(months=4, per_month=120, family_pool=4, design_vtt=4, seed=6)
    pop, truth = generate(config)
    rule = LabelRule(config.design_vtt)
    for rec in pop:
        assert label(rec, rule) is truth.true_class[rec.sha256]


def test_lognormal_lag_median_recoverable():
    config = SynthConfig(
        months=10,
        per_month=1200,
        family_pool=4,
        lag=LagModel("lognormal", days=5.0, sigma=0.6),
        seed=17,
    )
    pop, _ = generate(config)
    assert len(pop) >= 10_000
    stats = timestamp_lag_stats(pop, TimestampKind.CREATION_DEX, TimestampKind.PUBLICATION_CRAWL)
    assert abs(stats.median_days - 5.0) / 5.0 <= 0.10


def test_point_lag():
    config = SynthConfig(months=2, per_month=50, family_pool=4, lag=LagModel("point", days=3.0), seed=1)
    pop, _ = generate(config)
    for rec in pop:
        assert (rec.crawl_date - rec.dex_date).total_seconds() == pytest.approx(3 * 86400)


def test_multi_tag_market_mixture():
    config = SynthConfig(
        months=2,
        per_month=50,
        family_pool=4,
        goodware_markets={"play.google.com|anzhi": 1.0},
        seed=1,
    )
    pop, truth = generate(config)
    for rec in pop:
        if truth.true_class[rec.sha256] is ClassLabel.GOODWARE:
            assert rec.markets == frozenset({"play.google.com", "anzhi"})


def test_invalid_configs():
    with pytest.raises(ValueError):
        SynthConfig(family_lifetime=0).validate()
    with pytest.raises(ValueError):
        # pool dies after 3 months with no births to replace it
        generate(SynthConfig(months=12, per_month=50, family_pool=4, family_lifetime=3))
    with pytest.raises(ValueError):
        generate(SynthConfig(months=2, per_month=50, family_pool=0, family_birth_rate=0))
    with pytest.raises(ValueError):
        generate(
            SynthConfig(
                months=2,
                per_month=50,
                family_pool=4,
                malware_detections=DetectionModel("uniform", low=1, high=40),
            )
        )
    with pytest.raises(ValueError):
        generate(
            SynthConfig(
                months=2,
                per_month=50,
                family_pool=4,
                goodware_detections=DetectionModel("point", value=2),
            )
        )


def test_label_noise_opt_in():
    config = SynthConfig(
        months=2,
        per_month=50,
        family_pool=4,
        malware_detections=DetectionModel("uniform", low=1, high=40),
        allow_label_noise=True,
        seed=9,
    )
    pop, truth = generate(config)
    assert len(pop) == 100


def test_preset_market_skew_tv_one():
    pop, _ = generate(scenario_presets()["market-skew"])
    result = market_consistency(pop, LabelRule(4))
    assert result.tv_distance == 1.0
    assert not result.passed


def test_preset_late_backfill_snapshot_shrinks():
    pop, _ = generate(scenario_presets()["late-backfill"])
    result = snapshot_filter(pop, parse_timestamp("2015-01-01"))
    assert len(result.population) < len(pop)
    assert result.dropped_late >= 1


def test_preset_churn_frozen_decreasing_sequence():
    pop, _ = generate(scenario_presets()["churn"])
    fams = malware_families_by_period(pop, LabelRule(4), DEX, Granularity.YEAR)
    years = sorted(fams, key=lambda p: p.index)
    series = overlap_series(fams, years[0], years[1:])
    values = [v for _, v in series.points]
    assert values == pytest.approx([0.82, 0.48333333333333334])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_preset_stable_no_churn():
    pop, truth = generate(scenario_presets()["stable"])
    months = sorted(truth.active_families, key=lambda p: p.index)
    first = truth.active_families[months[0]]
    assert all(truth.active_families[m] == first for m in months)


def test_negative_detections_or_sizes_refused():
    base = SynthConfig(months=2, per_month=20, family_pool=2, allow_label_noise=True, design_vtt=-5)
    for change in (
        {"goodware_detections": DetectionModel("point", value=-3)},
        {"malware_detections": DetectionModel("uniform", low=-2, high=5)},
    ):
        with pytest.raises(ValueError, match="detection models must not draw negative counts"):
            generate(dataclasses.replace(base, **change))
    with pytest.raises(ValueError, match=r"size_range must not start below 0, got \(-1, 10\)"):
        generate(dataclasses.replace(base, size_range=(-1, 10)))


@pytest.mark.parametrize("days", [1e7, math.inf, math.nan])
def test_crawl_date_past_the_calendar_refused(days):
    config = SynthConfig(months=1, per_month=5, family_pool=1, lag=LagModel("point", days=days))
    with pytest.raises(ValueError, match="lag model gives a crawl date past 9999-12-31"):
        generate(config)


_MARKET_KEYS = ["play.google.com", "anzhi", "VirusShare", "a||b", "", "|", "a|b", "b|a", "unknown"]
_mixtures = st.dictionaries(
    st.sampled_from(_MARKET_KEYS), st.sampled_from([1, 2, 0.25, 3.5, 0]), min_size=1, max_size=4
)
_detections = st.one_of(
    st.builds(DetectionModel, st.just("point"), value=st.integers(0, 30)),
    st.integers(0, 12).flatmap(
        lambda low: st.builds(DetectionModel, st.just("uniform"), low=st.just(low), high=st.integers(low, 40))
    ),
)
_lags = st.builds(
    LagModel,
    st.sampled_from(["point", "lognormal", "backfill"]),
    days=st.floats(0, 40),
    sigma=st.floats(0, 2),
    late_fraction=st.floats(0, 1),
    late_days=st.floats(0, 2000),
)


@st.composite
def _configs(draw):
    noise = draw(st.booleans())
    return SynthConfig(
        months=draw(st.integers(1, 5)),
        per_month=draw(st.integers(1, 30)),
        malware_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0, 1)),
        family_pool=draw(st.integers(0, 5)),
        family_birth_rate=draw(st.integers(0, 3)),
        family_lifetime=draw(st.none() | st.integers(1, 4)),
        goodware_markets=draw(_mixtures),
        malware_markets=draw(_mixtures),
        lag=draw(_lags),
        goodware_detections=draw(_detections) if noise else DetectionModel("point", value=0),
        malware_detections=draw(_detections),
        design_vtt=draw(st.integers(0, 6)),
        start=draw(st.sampled_from(["2014-01", "2015-12", "1970-01", "2100-11"])),
        seed=draw(st.integers(0, 2**32)),
        allow_label_noise=noise,
        size_range=draw(st.sampled_from([(0, 0), (1, 10), (50_000, 50_000_000)] * 3 + [(7, 3)])),
    )


_LAST_MONTH = Period.parse("2100-12")  # the calendar's last month
_LAST_PARSED = datetime(2100, 12, 31, 23, 59, 59)  # the parser's last second


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
def test_generate_matches_row_oracle(config):
    """generate gives the records and ground truth of the record-at-a-time
    generator, or raises the error it raises. That generator took a month's
    length from the month after, so it refused 2100-12, the calendar's last
    month: a config that reaches it is compared with the same config a year
    earlier (2099 and 2100 have the same month lengths), its dates a year
    later and its crawl and scan dates capped at the parser's last second,
    and one that runs past it must name the first month outside."""
    first = Period.parse(config.start)
    late = first.index + config.months > _LAST_MONTH.index
    try:
        old_pop, old_truth = oracle.generate(dataclasses.replace(config, start=str(first.shifted(-12))) if late else config)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            generate(config)
        assert str(raised.value) == str(exc)
        return
    if first.index + config.months - 1 > _LAST_MONTH.index:
        with pytest.raises(ValueError, match=f"^period index {_LAST_MONTH.index + 1} outside supported calendar range$"):
            generate(config)
        return
    pop, truth = generate(config)
    year, months = (timedelta(days=365), 12) if late else (timedelta(0), 0)
    assert pop.records == tuple(
        dataclasses.replace(
            r,
            dex_date=r.dex_date + year,
            crawl_date=min(r.crawl_date + year, _LAST_PARSED),
            vt_scan_date=min(r.vt_scan_date + year, _LAST_PARSED),
        )
        for r in old_pop.records
    )
    assert pop.provenance == old_pop.provenance
    assert list(truth.true_class.items()) == list(old_truth.true_class.items())
    assert truth.active_families == {p.shifted(months): fams for p, fams in old_truth.active_families.items()}
