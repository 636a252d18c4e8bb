import ast
import re
import tracemalloc
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import maldrift
from maldrift import model
from maldrift.ingest import PredictionRow, PredictionSet
from maldrift.metrics import confusion_metrics
from maldrift.model import (
    COLUMNS,
    ApkRecord,
    ClassLabel,
    Granularity,
    Period,
    Population,
    format_timestamp,
    format_timestamps,
    parse_timestamp,
    period_indices,
    period_of,
    period_range,
)
from maldrift.sampler import DatasetManifest, ManifestEntry

from helpers import make_population, make_record, sha_of


def test_period_of_month_identity():
    p = period_of(parse_timestamp("2014-01-15"), Granularity.MONTH)
    assert str(p) == "2014-01"


def test_period_of_year_boundary():
    p = period_of(parse_timestamp("2014-12-31 23:59:59"), Granularity.YEAR)
    assert str(p) == "2014"


def test_month_distance_2014_01_to_2018_06():
    # counted by hand: 4 full years (48) plus Jan->Jun (5)
    a = Period.parse("2014-01")
    b = Period.parse("2018-06")
    assert b.index - a.index == 53


def test_period_of_out_of_range():
    with pytest.raises(ValueError):
        period_of(datetime(1969, 12, 31), Granularity.MONTH)
    with pytest.raises(ValueError):
        period_of(datetime(2101, 1, 1), Granularity.YEAR)


def test_period_range_yearly():
    r = period_range(Period.parse("2014"), Period.parse("2018"))
    assert [str(p) for p in r] == ["2014", "2015", "2016", "2017", "2018"]


def test_period_range_monthly_and_singleton():
    assert len(period_range(Period.parse("2014-01"), Period.parse("2014-03"))) == 3
    assert period_range(Period.parse("2014"), Period.parse("2014")) == [Period.parse("2014")]


def test_period_range_mismatched_granularity():
    with pytest.raises(ValueError):
        period_range(Period.parse("2014-01"), Period.parse("2014"))


_ts = st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 12, 31))


@given(_ts)
def test_month_refines_year(ts):
    month = period_of(ts, Granularity.MONTH)
    year = period_of(ts, Granularity.YEAR)
    assert month.year_period() == year


@given(st.integers(0, 1500), st.integers(0, 60))
def test_period_range_length(start, extra):
    a = Period(Granularity.MONTH, start)
    b = Period(Granularity.MONTH, start + extra)
    assert len(period_range(a, b)) == extra + 1


def test_record_normalization():
    rec = make_record("x", markets=())
    assert rec.markets == frozenset({"unknown"})
    upper = ApkRecord(sha256=make_record("y").sha256.upper(), dex_date=parse_timestamp("2014-01-01"), vt_detection=0)
    assert upper.sha256 == upper.sha256.lower()
    assert make_record("z", family="  ").family is None


def test_record_validation():
    with pytest.raises(ValueError):
        ApkRecord(sha256="abc", dex_date=parse_timestamp("2014-01-01"), vt_detection=0)
    with pytest.raises(ValueError):
        make_record("neg").__class__(
            sha256=make_record("neg").sha256,
            dex_date=parse_timestamp("2014-01-01"),
            vt_detection=-1,
        )


def test_population_unique_sha():
    rec = make_record("dup")
    with pytest.raises(ValueError):
        Population((rec, rec))


def test_population_snapshot_invariant():
    rec = make_record("s", crawl="2016-05-01")
    Population((rec,), snapshot_date=parse_timestamp("2016-06-01"))
    with pytest.raises(ValueError):
        Population((rec,), snapshot_date=parse_timestamp("2016-04-01"))
    with pytest.raises(ValueError):
        Population((make_record("nocrawl"),), snapshot_date=parse_timestamp("2016-06-01"))


def test_timestamp_parsing_forms():
    assert parse_timestamp("2014-01-15") == datetime(2014, 1, 15)
    assert parse_timestamp("2014-01-15 10:22:03") == datetime(2014, 1, 15, 10, 22, 3)
    assert parse_timestamp("2014-01-15T10:22:03Z") == datetime(2014, 1, 15, 10, 22, 3)
    with pytest.raises(ValueError):
        parse_timestamp("not a date")


def test_population_columns_at_most_128_bytes_per_record():
    from maldrift.synth import SynthConfig, generate

    pop, _ = generate(SynthConfig(months=25, per_month=400, family_pool=10, seed=4))
    assert len(pop) == 10_000
    per_record = sum(a.nbytes for a in (*pop.columns().values(), pop.sha_order)) / len(pop)
    assert per_record <= 128, per_record


def test_population_row_view_round_trips_columns():
    records = [
        make_record(1, crawl="2014-02-01 10:00:00", family="dowgin", markets=("anzhi", "play.google.com")),
        make_record(2, vt=7, scan="2014-03-01"),
        make_record(3, markets=()),
    ]
    pop = make_population(records)
    assert pop.records == tuple(records)
    assert list(pop) == records
    assert pop.by_sha[sha_of(2)].vt_detection == 7
    assert pop.market_sets[pop.markets[2]] == frozenset({"unknown"})
    assert pop.family.tolist() == [0, -1, -1]


def test_population_select_keeps_tables_and_sha_order():
    pop = make_population([make_record(t, family=f"f{t % 2}") for t in range(8)])
    keep = [t % 3 != 0 for t in range(8)]
    picked = pop.select(np.array(keep))
    assert picked.records == tuple(r for r, k in zip(pop.records, keep) if k)
    assert picked.provenance == pop.provenance == "test"
    assert picked.sha256[picked.sha_order].tolist() == sorted(picked.sha256.tolist())
    assert picked.positions([sha_of(1), sha_of(3), "ab", "Z" * 64]).tolist() == [0, -1, -1, -1]


def test_positions_make_no_sorted_copy():
    """A lookup searches the hashes through sha_order: a sorted copy of 100k
    hashes would take 6.4 MB."""
    n = 100_000
    columns = {name: np.zeros(n, dtype=dtype) for name, dtype in COLUMNS.items()}
    columns["sha256"] = np.array([sha_of(i) for i in range(n)], dtype="S64")
    columns["family"] -= 1
    pop = Population.from_columns(columns, [frozenset({"unknown"})], [])
    tracemalloc.start()
    try:
        at = pop.positions([sha_of(5), sha_of(n - 1), sha_of("absent")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert at.tolist() == [5, n - 1, -1]
    assert peak < 640_000


def _from_columns_beyond_order(n):
    columns = {name: np.zeros(n, dtype=dtype) for name, dtype in COLUMNS.items()}
    columns["sha256"] = np.array([sha_of(i) for i in range(n)], dtype="S64")
    columns["family"] -= 1
    tracemalloc.start()
    try:
        pop = Population.from_columns(columns, [frozenset({"unknown"})], [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - pop.sha_order.nbytes


def test_duplicate_check_makes_no_sorted_copy():
    """From 40k to 160k records, what from_columns without a sha_order holds
    beyond the sort order it makes grows by under 2 MB: the duplicate check
    compares neighbours a chunk at a time. A sorted copy would add 7.7 MB."""
    peaks = [_from_columns_beyond_order(n) for n in (40_000, 160_000)]
    assert peaks[1] - peaks[0] < 2_000_000


def test_duplicate_names_the_smallest_repeated_hash():
    smallest = min(sha_of(2), sha_of(5))
    with pytest.raises(ValueError, match=f"^duplicate sha256 in population: {smallest}$"):
        make_population([make_record(t) for t in (5, 9, 2, 5, 2)])


_MONTH = Period.parse("2014-01")


def _predictions_of(key):
    return PredictionSet("clf", {key: PredictionRow(key, 0.9)})


def _manifest_of(key):
    return DatasetManifest([ManifestEntry(key, ClassLabel.MALWARE, _MONTH, frozenset({"play.google.com"}))], {}, "")


def _truth_of(key):
    return confusion_metrics([(key, ClassLabel.MALWARE, _MONTH)], _predictions_of("a" * 64))


@pytest.mark.parametrize("build", [_predictions_of, _manifest_of, _truth_of])
@pytest.mark.parametrize("key", ["a" * 64 + "zz", "é" * 64], ids=["66-characters", "non-ascii"])
def test_row_constructors_refuse_a_key_that_is_not_64_ascii_characters(build, key):
    """A longer key is not cut to 64 bytes (where it would score against
    another app's prediction), and a non-ASCII one is named, not encoded."""
    with pytest.raises(ValueError, match=f"^{re.escape(f'sha256 key {key!r} is not 64 ASCII characters')}$"):
        build(key)


def test_a_row_subset_by_positions_keeps_sha_order():
    pop = make_population([make_record(t) for t in range(8)])
    rows = np.array([5, 0, 7, 2])
    picked = pop._replace(rows)
    assert picked.sha256.tolist() == pop.sha256[rows].tolist()
    assert picked.sha256[picked.sha_order].tolist() == sorted(picked.sha256.tolist())
    assert picked.positions([sha_of(t) for t in (0, 2, 5, 7, 1)]).tolist() == [1, 3, 0, 2, -1]


_KEY_CODE = {"S64", "U64", "_hash_order", "_sorted_neighbours", "_sorted_positions"}


def test_the_key_format_lives_in_model():
    """The key dtypes and the calls of the key sort, neighbour and lookup
    helpers appear in model.py only: every other module goes through it."""
    found = []
    for path in sorted(Path(maldrift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in _KEY_CODE and path.name != "model.py":
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_key_runs_and_checks_across_chunk_edges(rows):
    """The neighbour comparisons behind the equal-key runs, the duplicate check
    and the sort-order check give the same answers at any chunk size."""
    rng = np.random.default_rng(rows)
    sha = np.array([sha_of(t) for t in rng.integers(0, 9, 40)], dtype="S64")
    with mock.patch.object(model, "_WRITE_ROWS", rows):
        first, last = model._key_runs(sha)
        unique, at, counts = np.unique(sha, return_index=True, return_counts=True)
        assert first.tolist() == at.tolist()
        assert last.tolist() == [len(sha) - 1 - sha[::-1].tolist().index(key) for key in unique.tolist()]
        assert model._is_key_order(sha, first) and not model._is_key_order(sha, np.argsort(sha, kind="stable"))
        with pytest.raises(ValueError, match=f"^duplicate sha256 in population: {unique[counts > 1][0].decode()}$"):
            Population.from_columns({**{n: np.zeros(len(sha), d) for n, d in COLUMNS.items()}, "sha256": sha}, [], [])


def test_population_carrying_any():
    a = make_population([make_record(1, markets=("anzhi",), family="x"), make_record(2)])
    assert a.carrying_any(frozenset({"anzhi", "slideme"})).tolist() == [True, False]


def test_population_columns_are_read_only():
    pop = make_population([make_record(1)])
    with pytest.raises(ValueError):
        pop.vt_detection[0] = 5


@given(st.lists(_ts, min_size=1, max_size=20), st.sampled_from(list(Granularity)))
def test_period_indices_and_format_timestamps_match_row_functions(stamps, granularity):
    values = np.array(stamps, dtype="datetime64[s]")
    assert period_indices(values, granularity).tolist() == [period_of(t, granularity).index for t in stamps]
    assert format_timestamps(values) == [format_timestamp(t) for t in stamps]
    assert format_timestamps(np.array(["NaT"], dtype="datetime64[s]")) == [""]


def test_period_indices_out_of_range_like_period_of():
    values = np.array(["2014-01-01", "1969-12-31"], dtype="datetime64[s]")
    with pytest.raises(ValueError, match="year 1969 outside supported range"):
        period_indices(values, Granularity.MONTH)


def _like_astype(values):
    for granularity, unit in ((Granularity.MONTH, "datetime64[M]"), (Granularity.YEAR, "datetime64[Y]")):
        assert np.array_equal(period_indices(values, granularity), values.astype(unit).astype(np.int64))


def test_period_indices_like_astype_on_random_seconds():
    end = np.datetime64("2101-01-01T00:00:00").astype(np.int64)
    _like_astype(np.random.default_rng(17).integers(0, end, 10**6).view("datetime64[s]"))


def test_period_indices_like_astype_at_month_edges():
    starts = np.arange(np.datetime64("1970-01"), np.datetime64("2101-01")).astype("datetime64[s]")
    lasts = starts[1:] - np.timedelta64(1, "s")
    edges = np.concatenate([starts, lasts, [np.datetime64("2100-12-31T23:59:59")]])
    _like_astype(edges)
    _like_astype(np.array(["2000-02-29", "2100-02-28T23:59:59", "2100-12-31T23:59:59"], dtype="datetime64[s]"))


def test_period_indices_first_out_of_range_value_names_its_year():
    values = np.array(["2014-01-01", "2101-01-01", "1969-12-31T23:59:59"], dtype="datetime64[s]")
    for granularity in Granularity:
        with pytest.raises(ValueError, match="^timestamp year 2101 outside supported range 1970-2100$"):
            period_indices(values, granularity)
