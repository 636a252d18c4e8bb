"""Differential tests: the columnar core against the row-at-a-time oracle.

Hypothesis writes small AndroZoo-shaped CSVs that mix canonical rows with
every form the fast path must hand to the row parser: offsets, fractional
seconds, padded and out-of-range fields, short and long rows, blank lines,
greyware, undated records, multi-tag and empty market fields, duplicate and
malformed rows, and the text csv.reader must take over: quoted fields, line
breaks inside quotes, CRLF rows and NUL. Each columnar function must return
exactly what tests/oracle_rows.py returns, or raise the same error with the
same message.
"""
import copy
import csv
import functools
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle_rows as oracle
from maldrift import ingest, labeling, metrics, report, sampler, sizing, synth
from maldrift.errors import FormatError
from maldrift.labeling import LabelRule, TimestampKind, TimestampPolicy
from maldrift.model import ClassLabel, Granularity
from maldrift.sizing import PlanMode, SizingParams, SizingPlan

from helpers import sha_of

_oracle_settings = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

SHAS = [sha_of(f"oracle-{i}") for i in range(40)]

_canonical_stamp = st.one_of(
    st.builds(
        "{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format,
        st.integers(2013, 2016), st.integers(1, 12), st.integers(1, 28),
        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    ),
    st.builds("{:04d}-{:02d}-{:02d}".format, st.integers(2013, 2016), st.integers(1, 12), st.integers(1, 31)),
)
# timestamps the field kernels leave to the row parser, or read only at an edge
ODD_STAMPS = [
    "2014-03-05T10:00:00Z",
    "2014-03-31 23:30:00+02:00",
    "2015-01-01 00:30:00+02:00",
    "2014-06-30T22:00:00-03:00",
    "2014-07-01 12:00:00.750",
    "2014-07-01T12:00:00",
    " 2014-08-02 ",
    "20140809",
    "2014-02-29",
    "2016-02-29 08:00:00",
    "2014-01",
    "NaT",
    "2015-13-45",
    "2014-05-01 24:00:00",
    "1601-01-01",
    "2101-03-01 10:00:00",
    "2014-05-01 10:60:00",
    "２０１４-01-01",
    "not a date",
    "2014-03-05 10:00:00.123456",
    "2014-03-05T10:00:00.5Z",
    "2014-03-05T10:00:00-00:00",
    "2014-03-05 10:00:00+23:59",
    "2014-03-05 10:00:00+24:00",
    "2014-03-05T10:00:00+0200",
    "2014-03-05t10:00:00",
    "2014-03-05T10:00:00z",
    "2014-03-05+02:00",
    "2100-12-31T23:30:00-02:00",
    "1970-01-01 01:00:00+02:00",
    "1969-12-31T23:30:00-02:00",
    "9999-12-31T23:30:00-02:00",
]
_odd_stamp = st.sampled_from(ODD_STAMPS)


def _mostly(good, odd):
    """Seven draws in eight from good, the rest from odd."""
    return st.integers(0, 7).flatmap(lambda k: odd if k == 0 else good)


_stamp = _mostly(_canonical_stamp, _odd_stamp)
_optional_stamp = _mostly(st.one_of(st.just(""), _canonical_stamp), st.one_of(st.just("   "), _odd_stamp))
_good_sha = st.sampled_from(SHAS)
_sha = _mostly(
    _good_sha,
    st.one_of(
        _good_sha.map(str.upper),
        _good_sha.map(lambda s: f" {s} "),
        st.sampled_from(["ab", "zz" * 32, SHAS[0][:63], ""]),
    ),
)
_vt = _mostly(
    st.sampled_from(["0", "0", "0", "1", "3", "4", "9", "25", "25"]),
    st.sampled_from(["007", " 5", "+3", "-2", "n/a", "", "٣", "99999999999999999999"]),
)
_markets = st.one_of(
    st.lists(st.sampled_from(["play.google.com", "anzhi", "appchina", "VirusShare", "zz,odd"]), max_size=3).map("|".join),
    st.sampled_from(["", "|anzhi|", " anzhi | appchina ", "unknown", "   "]),
)
_size = _mostly(st.sampled_from(["", "1000", "0", "123456789"]), st.sampled_from(["-5", "1e3", "99999999999999999999", " 42"]))
# a quoted family, ones with a LF or CRLF inside its quotes, and (csv.reader
# reads NUL from Python 3.11 on) one with a NUL
_family = st.sampled_from(
    ["", "", "fam1", "fam2", " fam3 ", "   ", 'odd,"fam"', "two\nlines", "two\r\nlines"]
    + ["nul\0fam"] * (sys.version_info >= (3, 11))
)


_row = st.tuples(_sha, _stamp, _vt, _markets, _optional_stamp, _optional_stamp, _size, _family)


@st.composite
def _listing(draw):
    """CSV text: a header (columns in any order, optional ones maybe absent) and rows,
    some of them short, long, blank or ending in CRLF."""
    dropped = draw(st.sets(st.sampled_from(ingest.OPTIONAL_COLUMNS), max_size=2))
    order = draw(st.permutations([c for c in ingest.CANONICAL_COLUMNS if c not in dropped]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    crlf = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(order)
    for _ in range(draw(st.integers(1, 60))):
        record = dict(zip(ingest.CANONICAL_COLUMNS, draw(_row)))
        fields = [record[c] for c in order]
        shape = draw(st.sampled_from(["full"] * 12 + ["short", "long", "blank"]))
        if shape == "short":
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
        elif shape == "long":
            fields.append("extra")
        elif shape == "blank":
            fields = []
        draw(st.sampled_from([writer] * 7 + [crlf])).writerow(fields)
    return buffer.getvalue()


def same(new, old, *args):
    """new(*args) returns what old(*args) returns, or raises the same error."""
    try:
        expected = old(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            new(*args)
        assert str(raised.value) == str(exc)
        return None
    got = new(*args)
    assert got == expected
    return got


@_oracle_settings
@given(_listing())
def test_parse_and_write_match_oracle(text):
    _check_parse_and_write(text)


# every line ends in CRLF: a blank line, an offset date, a short row, a bad date
_CRLF_LISTING = "\r\n".join(
    [
        ",".join(ingest.CANONICAL_COLUMNS),
        f"{SHAS[0]},2014-01-05,0,play.google.com|anzhi,2014-02-01 10:00:00,,100,",
        f"{SHAS[1]},2014-03-05T10:00:00+02:00,7,anzhi,,2014-04-01,,fam1",
        "",
        f"{SHAS[2]},2014-05-01,3",
        f"{SHAS[3]},2014-13-01,0,,,,,",
        f"{SHAS[0]},2015-01-05,9,appchina,2015-02-01,,200,fam2",
    ]
) + "\r\n"


# CRLF rows again, one with a CRLF inside a quoted family: csv.reader keeps that CRLF
_CRLF_QUOTED_LISTING = _CRLF_LISTING + f'{SHAS[4]},2016-01-05,2,anzhi,,,300,"two\r\nlines"\r\n'


@_oracle_settings
@given(_listing())
@example(_CRLF_LISTING)
@example(_CRLF_QUOTED_LISTING)
def test_parse_and_write_match_oracle_in_small_blocks(text):
    """Blocks of a few dozen characters: most reads end mid-line, quoted fields
    span block cuts, and csv.reader takes over mid-file. Writes of 7 rows a
    chunk: chunk cuts fall between rows of every kind."""
    with mock.patch.object(ingest, "_BLOCK_CHARS", 37), mock.patch.object(ingest, "_WRITE_ROWS", 7):
        _check_parse_and_write(text)


def _check_parse_and_write(text):
    got = ingest.parse_metadata(io.StringIO(text))
    want = oracle.parse_metadata(io.StringIO(text))
    assert got.stats == want.stats
    assert got.population.records == want.population.records
    try:
        oracle.parse_metadata(io.StringIO(text), strict=True)
    except FormatError as exc:
        with pytest.raises(FormatError) as raised:
            ingest.parse_metadata(io.StringIO(text), strict=True)
        assert str(raised.value) == str(exc)  # same line number, same message
    else:
        ingest.parse_metadata(io.StringIO(text), strict=True)
    written, expected = io.StringIO(), io.StringIO()
    ingest.write_metadata_csv(got.population, written)
    oracle.write_metadata_csv(want.population, expected)
    assert written.getvalue() == expected.getvalue()


@_oracle_settings
@given(_listing())
def test_sidecar_holds_what_parsing_the_cache_gives(text):
    """ingest's population.npz loads to the records that parsing its
    population.csv.gz gives, columns, tables and sort order alike."""
    # tags padded inside the field (" anzhi | appchina ") read back from the
    # CSV without their spaces, so such a population gets no sidecar
    pop = ingest.parse_metadata(io.StringIO(text.replace(" anzhi | appchina ", "anzhi|appchina"))).population
    with tempfile.TemporaryDirectory() as tmp:
        csv_gz, sidecar = Path(tmp, "population.csv.gz"), Path(tmp, ingest.SIDECAR)
        ingest.write_population(pop, csv_gz)
        ingest._write_sidecar(pop, sidecar, csv_gz)
        loaded = ingest._read_sidecar(sidecar, ingest._file_sha256(csv_gz))
        with ingest.open_text(csv_gz) as fh:
            parsed = ingest.parse_metadata(fh).population
    assert loaded.records == parsed.records == pop.records
    for name, column in loaded.columns().items():
        assert column.dtype == getattr(pop, name).dtype
        assert column.tobytes() == getattr(pop, name).tobytes()  # NaT equals NaT here
    assert loaded.sha_order.tobytes() == pop.sha_order.tobytes()
    assert (loaded.market_sets, loaded.families) == (pop.market_sets, pop.families)


_kinds = st.sampled_from(list(TimestampKind))
_policy = st.builds(TimestampPolicy, _kinds, st.one_of(st.none(), _kinds))
_plan = st.builds(SizingPlan, st.sampled_from(list(PlanMode)), st.booleans(), st.sampled_from([0.1, 0.3, 0.5]))
_params = st.builds(SizingParams, st.sampled_from([0.9, 0.99]), st.sampled_from([0.05, 0.2]))
_filter = st.one_of(st.none(), st.sets(st.sampled_from(["anzhi", "play.google.com", "unknown"]), min_size=1).map(frozenset))


@_oracle_settings
@given(
    _listing(),
    st.integers(1, 8),
    _policy,
    _plan,
    _params,
    st.integers(0, 3),
    _filter,
    _kinds,
    _kinds,
    st.sampled_from(list(Granularity)),
)
def test_population_functions_match_oracle(text, vtt, policy, plan, params, seed, market_filter, a, b, granularity):
    pop = ingest.parse_metadata(io.StringIO(text)).population
    rule = LabelRule(vtt)
    pool, classes, dates = labeling.eligible(pop, rule, policy)
    assert pool.tolist() == [
        labeling.label(rec, rule) is not ClassLabel.GREYWARE and labeling.timeline_date(rec, policy) is not None
        for rec in pop
    ]
    assert [labeling.CLASSES[code] for code in classes.tolist()] == [labeling.label(rec, rule) for rec in pop]
    assert dates.tolist() == [labeling.timeline_date(rec, policy) for rec in pop]
    sizing_result = same(sizing.plan_sizes, oracle.plan_sizes, pop, rule, policy, plan, params)
    plans = [(plan, params), (SizingPlan(PlanMode.YEARLY, spatial=True), params), (SizingPlan(PlanMode.GLOBAL), params)]
    same(sizing.compare_plans, oracle.compare_plans, pop, rule, policy, plans)
    if sizing_result is not None:
        manifest = same(
            sampler.stratified_sample, oracle.stratified_sample, pop, rule, policy, sizing_result, seed, market_filter
        )
        if manifest is not None:
            same(sampler.verify_constraints, oracle.verify_constraints, manifest, pop)
    same(labeling.timestamp_lag_stats, oracle.timestamp_lag_stats, pop, a, b)
    same(labeling.market_composition, oracle.market_composition, pop, rule)
    same(labeling.market_consistency, oracle.market_consistency, pop, rule)
    same(labeling.vtt_coverage, oracle.vtt_coverage, pop, vtt)
    same(labeling.vtt_market_heatmap, oracle.vtt_market_heatmap, pop, [1, vtt, 9])
    families = same(metrics.malware_families_by_period, oracle.malware_families_by_period, pop, rule, policy, granularity)
    if families is not None:
        assert list(families) == list(oracle.malware_families_by_period(pop, rule, policy, granularity))


_score = st.sampled_from(["0.9", "0.1", "0.5", "0", "1", "0.25", "0.9", "0.1"]) | st.sampled_from(
    ["", " 0.7", "1e-1", "nan", "inf", "1.5", "-0.1", "x", "1_0", "0.5\0"]
)
_label_text = st.sampled_from(["", "", "", "0", "1"]) | st.sampled_from([" 1", "01", "2", "x", "+1", "-0"])


@st.composite
def _predictions(draw, hashes):
    """Prediction CSV text over the given hashes: a header with or without a
    label column, in any column order, and rows that are short, long, blank,
    repeated, uppercase, padded, quoted, ending in CRLF, or hold a bad hash."""
    columns = draw(st.permutations(draw(st.sampled_from([["sha256", "score"], ["sha256", "score", "label"]]))))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    crlf = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    pool = list(hashes) + SHAS[:3]
    for _ in range(draw(st.integers(0, 40))):
        sha = draw(
            _mostly(
                st.sampled_from(pool),
                st.sampled_from(pool).map(str.upper)
                | st.sampled_from(pool).map(lambda h: f" {h} ")
                | st.sampled_from(["ab", "zz" * 32, "g" * 64, ""]),
            )
        )
        fields = dict(sha256=sha, score=draw(_score), label=draw(_label_text))
        row = [fields[c] for c in columns]
        shape = draw(st.sampled_from(["full"] * 10 + ["short", "long", "blank", "quoted"]))
        if shape == "short":
            row = row[:1]
        elif shape == "long":
            row.append("extra")
        elif shape == "blank":
            row = []
        elif shape == "quoted":
            row[0] = f'{row[0]},'
        draw(st.sampled_from([writer] * 7 + [crlf])).writerow(row)
    return buffer.getvalue()


def _parse_predictions_both(text, strict=False):
    """The columnar and the row parser on the same text: same stats, same rows, or the same error."""
    try:
        want, want_stats = oracle.parse_predictions(io.StringIO(text), strict=strict)
    except FormatError as exc:
        with pytest.raises(FormatError) as raised:
            ingest.parse_predictions(io.StringIO(text), strict=strict)
        assert str(raised.value) == str(exc)
        return None
    got, got_stats = ingest.parse_predictions(io.StringIO(text), strict=strict)
    assert got_stats == want_stats
    assert {k: repr(v) for k, v in got.rows.items()} == {k: repr(v) for k, v in want.rows.items()}  # nan != nan
    return got


@settings(_oracle_settings, max_examples=100)
@given(_listing(), st.integers(1, 8), _policy, _plan, _params, st.integers(0, 3), _filter, st.data())
def test_manifest_and_evaluation_match_oracle(text, vtt, policy, plan, params, seed, market_filter, data):
    """Manifest JSON and CSV writing, reading, verify, prediction parsing,
    confusion metrics and evaluation against the row-at-a-time oracle, on a
    sampled manifest and on the same entries shuffled into a hand-made order."""
    pop = ingest.parse_metadata(io.StringIO(text)).population
    rule = LabelRule(vtt)
    try:
        sized = sizing.plan_sizes(pop, rule, policy, plan, params)
        manifest = sampler.stratified_sample(pop, rule, policy, sized, seed, market_filter)
    except ValueError:
        assume(False)
    written, expected = io.StringIO(), io.StringIO()
    sampler.write_manifest_csv(manifest, written)
    oracle.write_manifest_csv(manifest, expected)
    assert written.getvalue() == expected.getvalue()

    shuffled = oracle.manifest_to_dict(manifest)
    order = data.draw(st.permutations(range(len(shuffled["entries"]))))
    shuffled["entries"] = [shuffled["entries"][i] for i in order]
    with tempfile.TemporaryDirectory() as tmp:
        new, old, hand = Path(tmp, "new.json"), Path(tmp, "old.json"), Path(tmp, "hand.json")
        sampler.write_manifest_json(manifest, new)
        oracle.write_manifest_json(manifest, old)
        assert new.read_bytes() == old.read_bytes()
        hand.write_text(json.dumps(shuffled))
        manifests = []
        for path in (new, hand):
            read = sampler.read_manifest_json(path)
            assert read == oracle.read_manifest_json(path)
            manifests.append(read)
    assert manifests[0] == manifest

    predictions = data.draw(_predictions(sorted(manifest.hashes())))
    preds = _parse_predictions_both(predictions)
    _parse_predictions_both(predictions, strict=True)
    lenient, window = data.draw(st.booleans()), data.draw(st.integers(1, 6))
    for read in manifests:
        for population in (None, pop):
            same(sampler.verify_constraints, oracle.verify_constraints, read, population)
        if preds is None:
            continue
        truth = [(e.sha256, e.label, e.period) for e in read.entries]
        for granularity in (None, Granularity.YEAR):
            same(metrics.confusion_metrics, oracle.confusion_metrics, truth, preds, granularity, lenient)
        same(report.evaluate_manifest, oracle.evaluate_manifest, read, [preds], window, "f1", lenient)


# every line ends in CRLF: a blank line, an uppercase hash, a bad score, a repeat, a raw score
_CRLF_PREDICTIONS = "\r\n".join(
    [
        "sha256,score,label",
        f"{SHAS[0]},0.9,",
        f"{SHAS[1].upper()},0.2,1",
        "",
        f"{SHAS[2]},x,",
        f"{SHAS[0]},0.1,0",
        f"{SHAS[3]},1.5,",
        f"{SHAS[4]},7.5,1",
    ]
) + "\r\n"


@settings(_oracle_settings, max_examples=100)
@given(_listing(), st.integers(1, 8), _policy, _plan, _params, st.integers(0, 3))
def test_manifest_writers_match_oracle_across_chunks(text, vtt, policy, plan, params, seed):
    """write_manifest_json and write_manifest_csv 3 entries a chunk (a sampled
    manifest here holds a few dozen entries at most), and the empty manifest."""
    pop = ingest.parse_metadata(io.StringIO(text)).population
    rule = LabelRule(vtt)
    try:
        manifest = sampler.stratified_sample(pop, rule, policy, sizing.plan_sizes(pop, rule, policy, plan, params), seed)
    except ValueError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_WRITE_ROWS", 3):
        new, old = Path(tmp, "new.json"), Path(tmp, "old.json")
        for entries in (manifest, manifest._replace(rows=slice(0, 0))):
            written, expected = io.StringIO(), io.StringIO()
            sampler.write_manifest_csv(entries, written)
            oracle.write_manifest_csv(entries, expected)
            assert written.getvalue() == expected.getvalue()
            sampler.write_manifest_json(entries, new)
            oracle.write_manifest_json(entries, old)
            assert new.read_bytes() == old.read_bytes()


@_oracle_settings
@given(_predictions(SHAS[5:20]))
@example(_CRLF_PREDICTIONS)
def test_parse_predictions_match_oracle_in_small_blocks(text):
    """Prediction files in blocks of a few dozen characters, as the metadata
    small-block test reads listings."""
    with mock.patch.object(ingest, "_BLOCK_CHARS", 37):
        _parse_predictions_both(text)
        _parse_predictions_both(text, strict=True)


@pytest.mark.parametrize(
    "parse, text, calls",
    [
        (ingest.parse_metadata, _CRLF_LISTING, 0),
        (ingest.parse_predictions, _CRLF_PREDICTIONS, 0),
        (ingest.parse_metadata, _CRLF_QUOTED_LISTING, 1),
        (ingest.parse_predictions, _CRLF_PREDICTIONS + f'"{SHAS[5]}",0.5,\r\n', 1),
    ],
    ids=["metadata-crlf", "predictions-crlf", "metadata-quoted", "predictions-quoted"],
)
def test_crlf_input_stays_on_the_bulk_path(parse, text, calls):
    """CRLF line ends are read in bulk; a quote hands the rest to csv.reader."""
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        parse(io.StringIO(text))
    assert reader.call_count == calls


@functools.lru_cache(maxsize=None)
def _sampled_manifest() -> dict:
    """The JSON object of a yearly spatial sample of a small synth population:
    about 150 entries over a few market sets and families."""
    config = synth.SynthConfig(
        months=24, per_month=60, malware_fraction=0.3, family_pool=6,
        malware_markets={"anzhi": 0.5, "appchina|anzhi": 0.3, "play.google.com": 0.2},
    )
    pop = synth.generate(config)[0]
    rule, policy = LabelRule(4), TimestampPolicy(TimestampKind.CREATION_DEX)
    plan = sizing.plan_sizes(pop, rule, policy, SizingPlan(PlanMode.YEARLY, spatial=True), SizingParams(0.9, 0.2))
    return oracle.manifest_to_dict(sampler.stratified_sample(pop, rule, policy, plan, seed=1))


_BAD_VALUES = {
    "sha256": ["x", 7, None, "A" * 64, ["a"]],
    "label": ["bad", 1, None, {}],
    "period": ["2014-13", "14", 2014, None],
    "markets": ["anzhi", [1], None, {"a": 1}],
    "family": [3, ["f"], {}],
}
# "}," inside a string: a run of elements decoded up to it fails
_GOOD_VALUES = {
    "family": ["fam\u00e9", None, "x\u2028y", "a},{b", "fam\U0001f600"],
    "markets": [["\u5e02\u573a", "anzhi"], [], ["anzhi", "anzhi"], ["}, "]],
}


@st.composite
def _manifest_json(draw) -> bytes:
    """A sampled manifest's JSON, serialised in one of many styles and maybe
    corrupted: a field, an entry, a top-level key or the bytes themselves."""
    data = copy.deepcopy(_sampled_manifest())
    entries = data["entries"]
    data["entries"] = entries = entries[: draw(st.integers(0, len(entries)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if not entries:
            break
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        if not isinstance(entry, dict):
            continue
        key = draw(st.sampled_from(sorted(_BAD_VALUES)))
        kind = draw(st.sampled_from(["bad", "good", "drop", "copy", "list"]))
        if kind == "bad":
            entry[key] = draw(st.sampled_from(_BAD_VALUES[key]))
        elif kind == "good" and key in _GOOD_VALUES:
            entry[key] = draw(st.sampled_from(_GOOD_VALUES[key]))
        elif kind == "drop":
            entry.pop(key, None)
        elif kind == "copy":  # a duplicate hash
            entries.append(dict(entry))
        elif kind == "list":
            entries[entries.index(entry)] = list(entry.values())
    if draw(st.sampled_from([False, False, True])):
        data["spec"]["nan"] = float("nan")
    head = draw(st.sampled_from([""] * 6 + ["spec", "created", "strata", "checks", "policy", "top"]))
    if head == "spec":
        data["spec"] = draw(st.sampled_from([[], "x", {}]))
    elif head == "created":
        del data["created"]
    elif head == "strata":
        data["strata"] = draw(st.sampled_from([{}, [1], [{"requested": 1}], [{"requested": 1, "sampled": "2"}]]))
    elif head == "checks":
        data["checks"] = draw(st.sampled_from([3, [{"name": "C1"}], "ab"]))
    elif head == "policy":
        data["spec"]["policy"] = draw(st.sampled_from([{"kind": "x"}, [], {"kind": "dex", "fallback": 1}]))
    elif head == "top":
        data = draw(st.sampled_from([data["entries"], 3, "x", None]))
    style = {
        "indent": draw(st.sampled_from([None, 0, 1, 4])),
        "sort_keys": draw(st.booleans()),
        "ensure_ascii": draw(st.booleans()),
        "separators": draw(st.sampled_from([None, (",", ":"), (" ,", " : "), (",\t", ":\n")])),
    }
    if isinstance(data, dict):
        members = list(data.items())
        members = [members[i] for i in draw(st.permutations(range(len(members))))]
        if draw(st.sampled_from([False, False, False, True])):  # a duplicate "entries": the last one wins
            first = draw(st.sampled_from([[{"sha256": "x"}], [], 5, data.get("entries", [])]))
            members.insert(draw(st.integers(0, len(members))), ("entries", first))
        gap = draw(st.sampled_from([", ", ",\n  ", ","]))
        text = "{" + gap.join(f"{json.dumps(k)}: {json.dumps(v, **style)}" for k, v in members) + "}"
    else:
        text = json.dumps(data, **style)
    text += draw(st.sampled_from(["", "\n", "  \n\n"]))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    raw = text.encode()
    if draw(st.sampled_from([False] * 5 + [True])):
        raw = b"\xef\xbb\xbf" + raw
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.sampled_from(["cut", "drop", "insert"]))
        if edit == "cut":
            raw = raw[:at]
        elif edit == "drop":
            raw = raw[:at] + raw[at + draw(st.integers(1, 40)) :]
        else:
            raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\x82", b"\xc3", b",", b"]", b"}", b"1", b'"', b"\r", b"\n", b"\x00"])) + raw[at:]
    return raw


def _manifest_or_error(read, path):
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


@settings(_oracle_settings, max_examples=300)
@given(_manifest_json(), st.sampled_from([1, 2, 5, 16, 37, 1000]), st.sampled_from([1, 3, 1024]))
def test_streamed_manifest_read_matches_whole_text_read(raw, block, rows):
    """read_manifest_json in blocks of a few characters and chunks of a few
    entries gives json.loads' manifest or error: same columns, tables and head,
    or the same exception and message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "manifest.json")
        path.write_bytes(raw)
        want = _manifest_or_error(oracle.read_manifest_json_whole, path)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block), mock.patch.object(ingest, "_WRITE_ROWS", rows):
            got = _manifest_or_error(sampler.read_manifest_json, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, sampler.DatasetManifest)
    for name, column in want.columns().items():
        assert getattr(got, name).dtype == column.dtype
        assert getattr(got, name).tobytes() == column.tobytes()
    assert (got.market_sets, got.families) == (want.market_sets, want.families)
    head = [json.dumps(sampler._manifest_head(m)) for m in (got, want)]  # NaN in spec renders as NaN
    assert head[0] == head[1]
