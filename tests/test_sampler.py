import dataclasses
import io
import json
import random

import pytest

from maldrift.labeling import GOODWARE, LabelRule, TimestampKind, TimestampPolicy
from maldrift.metrics import overlap_series
from maldrift.model import ClassLabel, Period, Population, _is_key_order
from maldrift.sampler import (
    read_manifest_json,
    stratified_sample,
    verify_constraints,
    write_manifest_csv,
    write_manifest_json,
)
from maldrift.sizing import PlanMode, SizingParams, SizingPlan, plan_sizes
from maldrift.synth import SynthConfig, generate, scenario_presets

from helpers import make_population, make_record

RULE = LabelRule(4)
DEX = TimestampPolicy(TimestampKind.CREATION_DEX)
PARAMS = SizingParams()


def one_month_pool(goodware=100, malware=100, greyware=0):
    records = [make_record(f"g{i}", dex="2014-01-10", vt=0) for i in range(goodware)]
    records += [make_record(f"m{i}", dex="2014-01-20", vt=10, family="fam") for i in range(malware)]
    records += [make_record(f"y{i}", dex="2014-01-15", vt=2) for i in range(greyware)]
    return make_population(records)


def spatial_sizing(pop, ratio=0.10):
    plan = SizingPlan(PlanMode.MONTHLY, spatial=True, ratio_malware=ratio)
    return plan_sizes(pop, RULE, DEX, plan, PARAMS)


def test_sample_deterministic_repeat():
    pop = one_month_pool()
    sizing = spatial_sizing(pop)
    a = stratified_sample(pop, RULE, DEX, sizing, seed=42)
    b = stratified_sample(pop, RULE, DEX, sizing, seed=42)
    assert a == b
    assert a.hashes() == b.hashes()


def test_manifest_key_order_comes_from_the_candidates():
    """A sample's sha_order, taken from the candidates' ranks, sorts its keys;
    a hand-built sizing that lists a stratum twice picks each of its
    candidates twice, and the manifest names the smallest repeated hash."""
    pop = one_month_pool(goodware=30, malware=30)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=42)
    assert len(manifest) and _is_key_order(manifest.sha256, manifest.sha_order)
    twice = dataclasses.replace(sizing, strata=sizing.strata * 2)
    with pytest.raises(ValueError, match=f"^duplicate sha256 in manifest: {min(manifest.hashes())}$"):
        stratified_sample(pop, RULE, DEX, twice, seed=42)


def test_sample_seed_changes_selection():
    pop = one_month_pool()
    sizing = spatial_sizing(pop)
    a = stratified_sample(pop, RULE, DEX, sizing, seed=42)
    b = stratified_sample(pop, RULE, DEX, sizing, seed=43)
    assert a.hashes() != b.hashes()


def test_sample_input_order_independent():
    pop = one_month_pool()
    shuffled_records = list(pop.records)
    random.Random(9).shuffle(shuffled_records)
    shuffled = Population(tuple(shuffled_records))
    sizing = spatial_sizing(pop)
    assert (
        stratified_sample(pop, RULE, DEX, sizing, seed=42).hashes()
        == stratified_sample(shuffled, RULE, DEX, sizing, seed=42).hashes()
    )


def test_sample_run_twice_identical():
    pop, _ = generate(SynthConfig(months=6, per_month=300, family_pool=6, seed=4))
    sizing = spatial_sizing(pop)
    first = stratified_sample(pop, RULE, DEX, sizing, seed=1)
    second = stratified_sample(pop, RULE, DEX, sizing, seed=1)
    assert first == second


def test_sample_never_contains_greyware():
    pop = one_month_pool(goodware=50, malware=50, greyware=80)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    grey_hashes = {r.sha256 for r in pop if r.vt_detection in (1, 2, 3)}
    assert not (manifest.hashes() & grey_hashes)
    assert all(e.label is not ClassLabel.GREYWARE for e in manifest.entries)


def test_sample_shortfall_takes_all_available():
    pop = one_month_pool(goodware=200, malware=6)
    plan = SizingPlan(PlanMode.MONTHLY, spatial=True, ratio_malware=0.10)
    sizing = plan_sizes(pop, RULE, DEX, plan, PARAMS)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    mw_fill = [f for f in manifest.strata if f.label is ClassLabel.MALWARE][0]
    stratum = sizing.strata[0]
    want_mw = (stratum.malware or 0) + stratum.malware_shortfall
    assert stratum.malware_shortfall > 0
    assert mw_fill.requested == want_mw
    assert mw_fill.sampled == 6
    assert mw_fill.shortfall == want_mw - 6
    assert sum(1 for e in manifest.entries if e.label is ClassLabel.MALWARE) == 6


def test_sample_shortfall_direct_request():
    # a plan asking for 10 malware when only 6 exist: take all, record shortfall 4
    from maldrift.sizing import SizingResult, StratumSize

    pop = one_month_pool(goodware=50, malware=6)
    plan = SizingPlan(PlanMode.MONTHLY, spatial=True, ratio_malware=0.10)
    stratum = StratumSize(
        period=Period.parse("2014-01"),
        population=56,
        n=56,
        malware_available=6,
        goodware_available=50,
        malware=10,
        goodware=46,
    )
    sizing = SizingResult(plan, PARAMS, (stratum,), 0, 0)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    mw_fill = [f for f in manifest.strata if f.label is ClassLabel.MALWARE][0]
    assert (mw_fill.requested, mw_fill.sampled, mw_fill.shortfall) == (10, 6, 4)


def test_sample_market_filter():
    records = [make_record(f"g{i}", vt=0, markets=("play.google.com",)) for i in range(20)]
    records += [make_record(f"a{i}", vt=0, markets=("anzhi",)) for i in range(20)]
    records += [make_record(f"m{i}", vt=9, markets=("play.google.com", "anzhi")) for i in range(10)]
    pop = make_population(records)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(
        pop, RULE, DEX, sizing, seed=0, market_filter=frozenset({"play.google.com"})
    )
    anzhi_only = {r.sha256 for r in pop if r.markets == frozenset({"anzhi"})}
    assert not (manifest.hashes() & anzhi_only)
    assert manifest.spec["market_filter"] == ["play.google.com"]


def test_sample_empty_pool_errors():
    pop = one_month_pool(goodware=0, malware=0, greyware=5)
    with pytest.raises(ValueError):
        sizing = spatial_sizing(pop)
    pop2 = one_month_pool(goodware=3, malware=3)
    sizing = spatial_sizing(pop2)
    with pytest.raises(ValueError):
        stratified_sample(pop2, RULE, DEX, sizing, seed=0, market_filter=frozenset({"nosuch"}))


def test_manifest_created_is_deterministic_data_horizon():
    pop = one_month_pool(goodware=10, malware=10)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    assert manifest.created == "2014-01-20 00:00:00"


def test_verify_constructive_manifest_passes():
    pop, _ = generate(SynthConfig(months=6, per_month=400, family_pool=6, seed=8))
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=5)
    checks = verify_constraints(manifest, population=pop)
    assert all(c.passed for c in checks), [(c.name, c.evidence) for c in checks]


def test_verify_c2_fails_when_class_missing():
    pop = one_month_pool(goodware=40, malware=10)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    gw_only = manifest._replace(rows=manifest.label == GOODWARE)
    checks = {c.name: c for c in verify_constraints(gw_only)}
    assert not checks["C2"].passed


def test_verify_market_skew_fails():
    pop, _ = generate(scenario_presets()["market-skew"])
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    checks = {c.name: c for c in verify_constraints(manifest)}
    assert not checks["market_consistency"].passed
    assert "tv_distance=1.0000" in checks["market_consistency"].evidence


def test_verify_timestamp_policy_against_population():
    pop = one_month_pool(goodware=30, malware=10)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    checks = {c.name: c for c in verify_constraints(manifest, population=pop)}
    assert checks["timestamp_policy"].passed
    # against a different population the entries cannot be resolved
    other = one_month_pool(goodware=1, malware=1)
    checks = {c.name: c for c in verify_constraints(manifest, population=other)}
    assert not checks["timestamp_policy"].passed


def test_manifest_json_round_trip(tmp_path):
    pop = one_month_pool(goodware=30, malware=10)
    sizing = spatial_sizing(pop)
    manifest = stratified_sample(pop, RULE, DEX, sizing, seed=0)
    write_manifest_json(manifest, tmp_path / "manifest.json")
    assert read_manifest_json(tmp_path / "manifest.json") == manifest


def test_manifest_without_a_plan_reads_and_verifies(tmp_path):
    """A manifest file whose spec has a null plan and params (outside input: no
    sampler of maldrift writes one) is read and verified."""
    pop = one_month_pool(goodware=30, malware=10)
    manifest = stratified_sample(pop, RULE, DEX, spatial_sizing(pop), seed=0)
    path = tmp_path / "manifest.json"
    write_manifest_json(manifest, path)
    data = json.loads(path.read_text())
    data["spec"]["plan"] = data["spec"]["params"] = None
    path.write_text(json.dumps(data))
    planless = read_manifest_json(path)
    assert planless.spec["plan"] is None and planless.hashes() == manifest.hashes()
    checks = {c.name: c.passed for c in verify_constraints(planless, population=pop)}
    assert checks == {c.name: c.passed for c in verify_constraints(manifest, population=pop)}


def test_manifest_csv_shape():
    pop = one_month_pool(goodware=30, malware=10)
    manifest = stratified_sample(pop, RULE, DEX, spatial_sizing(pop), seed=0)
    buf = io.StringIO()
    write_manifest_csv(manifest, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "sha256,label,period"
    assert len(lines) == len(manifest.entries) + 1
    assert lines[1].endswith(",2014-01")


def test_overlap_spread_across_iid_samples(churn_population):
    pop, _ = churn_population
    sizing = spatial_sizing(pop)
    ref = Period.parse("2014")
    tests = [Period.parse("2015"), Period.parse("2016")]
    series_by_seed = []
    for seed in range(5):
        manifest = stratified_sample(pop, RULE, DEX, sizing, seed=seed)
        fams: dict[Period, list] = {}
        for e in manifest.entries:
            if e.label is ClassLabel.MALWARE:
                fams.setdefault(e.period.year_period(), []).append(e.family)
        series_by_seed.append(dict(overlap_series(fams, ref, tests).points))
    for period in tests:
        values = [s[period] for s in series_by_seed]
        assert max(values) - min(values) <= 0.05, (str(period), values)
