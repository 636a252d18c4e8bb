import ast
import gzip
import io
import json
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldrift import cli, ingest, model, synth
from maldrift.errors import FormatError
from maldrift.ingest import (
    join_families,
    parse_families,
    parse_metadata,
    parse_predictions,
    snapshot_filter,
    write_metadata_csv,
)
from maldrift.model import parse_timestamp
from maldrift.sampler import DatasetManifest, read_manifest_json, write_manifest_json

from helpers import make_population, make_record, sha_of

SRC = Path(__file__).resolve().parents[1] / "src"

HEADER = "sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size,family\n"


def _csv(rows):
    return io.StringIO(HEADER + "".join(rows))


def _row(tag, dex="2014-01-15", vt=0, markets="play.google.com", added="", scan="", size=100, family=""):
    return f"{sha_of(tag)},{dex},{vt},{markets},{added},{scan},{size},{family}\n"


def test_parse_three_rows():
    result = parse_metadata(_csv([_row(1), _row(2), _row(3)]))
    assert len(result.population) == 3
    assert result.stats.malformed == 0


def test_parse_duplicates_last_wins():
    rows = [_row(1, vt=0), _row(2), _row(1, vt=9)]
    result = parse_metadata(_csv(rows))
    assert len(result.population) == 2
    assert result.stats.duplicates == 1
    assert result.population.by_sha[sha_of(1)].vt_detection == 9


def test_parse_negative_detection_lenient_and_strict():
    rows = [_row(1), _row(2, vt=-1)]
    result = parse_metadata(_csv(rows))
    assert len(result.population) == 1
    assert result.stats.malformed == 1
    with pytest.raises(FormatError):
        parse_metadata(_csv(rows), strict=True)


@pytest.mark.parametrize("column", ["dex", "added", "scan"])
def test_parse_out_of_range_year_lenient_and_strict(column):
    rows = [_row(1), _row(2, **{column: "1601-01-01"}), _row(3, added="2101-03-01 10:00:00")]
    result = parse_metadata(_csv(rows))
    assert [r.sha256 for r in result.population] == [sha_of(1)]
    assert result.stats.malformed == 2
    with pytest.raises(FormatError, match="line 3.*year 1601"):
        parse_metadata(_csv(rows), strict=True)


def test_parse_missing_required_column():
    with pytest.raises(FormatError):
        parse_metadata(io.StringIO("sha256,vt_detection\nabc,0\n"))


def test_parse_empty_input():
    with pytest.raises(FormatError):
        parse_metadata(io.StringIO(""))


def test_round_trip():
    pop = make_population(
        [
            make_record(1, dex="2014-01-15 10:22:03", vt=5, crawl="2014-02-01", scan="2014-02-02", family="dowgin"),
            make_record(2, markets=("anzhi", "play.google.com")),
            make_record(3, markets=()),
        ]
    )
    buf = io.StringIO()
    write_metadata_csv(pop, buf)
    buf.seek(0)
    reparsed = parse_metadata(buf).population
    assert set(reparsed.records) == set(pop.records)


def test_parse_families_join():
    mapping, malformed = parse_families(io.StringIO(f"{sha_of(1)},dowgin\n{sha_of(9)},plankton\nbadline\n"))
    assert malformed == 1
    pop = make_population([make_record(1), make_record(2)])
    joined, stats = join_families(pop, mapping)
    assert joined.by_sha[sha_of(1)].family == "dowgin"
    assert joined.by_sha[sha_of(2)].family is None
    assert stats.matched == 1
    assert stats.unmatched == 1


def test_parse_families_empty_family_kept_absent():
    mapping, _ = parse_families(io.StringIO(f"{sha_of(1)},\n"))
    assert sha_of(1) not in mapping


def test_parse_predictions_threshold_inclusive():
    stream = io.StringIO(f"sha256,score\n{sha_of(1)},0.9\n{sha_of(2)},0.5\n{sha_of(3)},0.49\n")
    preds, stats = parse_predictions(stream)
    assert preds.predicted(sha_of(1)) == 1
    assert preds.predicted(sha_of(2)) == 1  # score == threshold is positive
    assert preds.predicted(sha_of(3)) == 0
    assert stats.parsed == 3


def test_parse_predictions_raw_scores_need_label():
    no_label = io.StringIO(f"sha256,score\n{sha_of(1)},3.7\n")
    preds, stats = parse_predictions(no_label)
    assert stats.malformed == 1
    with_label = io.StringIO(f"sha256,score,label\n{sha_of(1)},3.7,1\n")
    preds, stats = parse_predictions(with_label)
    assert stats.malformed == 0
    assert preds.predicted(sha_of(1)) == 1


@pytest.mark.parametrize(
    "key", ["a" * 64 + "zzz", "a" * 63, "é" * 64, "a" * 63 + "é"], ids=["long", "short", "not-ascii", "ascii-prefix"]
)
def test_predicted_reads_only_whole_ascii_hashes(key):
    """A key that is not 64 ASCII characters is a KeyError, as Population.positions
    reads it: not the prediction of its first 64 characters, nor an encoding error."""
    preds, _ = parse_predictions(io.StringIO(f"sha256,score\n{'a' * 64},0.9\n"))
    assert preds.predicted("a" * 64) == 1
    with pytest.raises(KeyError):
        preds.predicted(key)


@pytest.mark.parametrize("parse", [parse_metadata, parse_predictions], ids=["metadata", "predictions"])
def test_long_header_field_is_format_error(parse):
    header = "sha256,dex_date,vt_detection,score," + "x" * 200_000
    with pytest.raises(FormatError, match="unreadable .* header: field larger than field limit"):
        parse(io.StringIO(f'"{header}"\n'))


@pytest.mark.parametrize("parse", [parse_metadata, parse_predictions], ids=["metadata", "predictions"])
def test_long_unquoted_header_field_is_format_error(parse):
    """A header free of quotes is split in bulk, by csv.reader's field limit."""
    header = "sha256,dex_date,vt_detection,score," + "x" * 200_000
    with pytest.raises(FormatError, match="unreadable .* header: field larger than field limit"):
        parse(io.StringIO(f"{header}\n{sha_of(1)},2014-01-15,0,0.5,\n"))


def test_snapshot_filter_basic():
    pop = make_population(
        [make_record(1, crawl="2016-05-01"), make_record(2, crawl="2017-09-01")]
    )
    result = snapshot_filter(pop, parse_timestamp("2017-06-30"))
    assert len(result.population) == 1
    assert result.dropped_late == 1
    assert result.population.snapshot_date == parse_timestamp("2017-06-30")


def test_snapshot_filter_empty_and_missing_crawl():
    pop = make_population([make_record(1, crawl="2016-05-01"), make_record(2)])
    result = snapshot_filter(pop, parse_timestamp("2015-01-01"))
    assert len(result.population) == 0
    assert result.dropped_missing_crawl == 1


def test_snapshot_filter_idempotent_and_monotone():
    pop = make_population(
        [make_record(i, crawl=f"201{5 + i % 3}-0{1 + i % 9}-01") for i in range(12)]
    )
    cut1, cut2 = parse_timestamp("2016-06-30"), parse_timestamp("2017-06-30")
    once = snapshot_filter(pop, cut1).population
    twice = snapshot_filter(once, cut1).population
    assert set(once.records) == set(twice.records)
    bigger = snapshot_filter(pop, cut2).population
    assert {r.sha256 for r in once} <= {r.sha256 for r in bigger}


def test_snapshot_piecewise_emulation():
    # two sampling phases: early dex years snapshot mid-2017, late dex years
    # snapshot early 2019; expected membership worked out by hand
    early = [
        make_record("e1", dex="2014-03-01", crawl="2016-05-01"),
        make_record("e2", dex="2015-07-01", crawl="2017-09-01"),
        make_record("e3", dex="2016-01-01", crawl="2017-06-30"),
        make_record("e4", dex="2016-11-01"),
        make_record("e5", dex="2014-12-01", crawl="2015-01-01"),
    ]
    late = [
        make_record("l1", dex="2017-02-01", crawl="2018-06-01"),
        make_record("l2", dex="2018-05-01", crawl="2019-03-01"),
        make_record("l3", dex="2018-12-01", crawl="2019-01-31"),
        make_record("l4", dex="2017-08-01"),
        make_record("l5", dex="2017-01-01", crawl="2017-02-01"),
    ]
    pop = make_population(early + late)
    years = pop.dex_date.astype("datetime64[Y]").astype(int) + 1970
    phase1 = snapshot_filter(pop.select((years >= 2014) & (years <= 2016)), parse_timestamp("2017-06-30")).population
    phase2 = snapshot_filter(pop.select((years >= 2017) & (years <= 2018)), parse_timestamp("2019-01-31")).population
    union = {r.sha256 for r in phase1} | {r.sha256 for r in phase2}
    assert union == {sha_of(t) for t in ("e1", "e3", "e5", "l1", "l3", "l5")}


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30, unique=True))
def test_round_trip_property(tags):
    pop = make_population(
        [
            make_record(
                t,
                vt=t % 7,
                crawl="2015-03-01" if t % 2 else None,
                family=f"fam{t % 3}" if t % 3 else None,
                markets=("anzhi", "play.google.com") if t % 2 else ("VirusShare",),
            )
            for t in tags
        ]
    )
    buf = io.StringIO()
    write_metadata_csv(pop, buf)
    buf.seek(0)
    assert set(parse_metadata(buf).population.records) == set(pop.records)


_TAGS = ["play.google.com", "anzhi", "appchina", "mi.com", "VirusShare", "1mobile"]

# prints a parse's value tables and codes; market sets as sorted lists, since a
# frozenset's repr follows the hash seed
_TABLES = """
import io, json, sys
from maldrift.ingest import parse_metadata
pop = parse_metadata(io.StringIO(sys.stdin.read())).population
tables = [[sorted(tags) for tags in pop.market_sets], list(pop.families), pop.markets.tolist(), pop.family.tolist()]
print(json.dumps(tables))
"""


@pytest.mark.parametrize("quoted", [False, True], ids=["blocks", "csv-reader"])
def test_value_tables_same_under_any_hash_seed(quoted):
    rows = [
        _row(
            i,
            dex="2014-01-15T10:00:00+02:00" if i % 9 == 0 else "2014-01-15",  # some rows go through _parse_row
            markets="|".join(tag for j, tag in enumerate(_TAGS) if (i * 7 % 13 >> j) % 2),
            family=f"fam{i * 5 % 11}" if i % 4 else "",
        )
        for i in range(60)
    ]
    if quoted:  # csv.reader reads a listing with a quoted field
        rows.insert(1, _row("q", family='"fam,q"'))
    text = HEADER + "".join(rows)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    printed = {
        subprocess.run(
            [sys.executable, "-c", _TABLES], input=text, capture_output=True, text=True, check=True,
            env=env | {"PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    }
    assert len(printed) == 1
    market_sets, families, _, _ = json.loads(printed.pop())
    assert len(market_sets) >= 10 and len(families) >= 10  # enough for a set's order to show


def _write_listing(path, rows):
    """A seeded listing: multi-tag markets, families, 1% "Z" stamps and about 0.5% duplicate hashes."""
    rng = np.random.default_rng(rows)
    stamps = np.datetime64("2014-01-01T00:00:00") + rng.integers(0, 5 * 365 * 86400, rows).astype("timedelta64[s]")
    iso = np.datetime_as_string(stamps, unit="s").tolist()
    ids = np.where(rng.random(rows) < 0.005, 0, np.arange(rows)).tolist()
    vt = rng.integers(0, 30, rows).tolist()
    size = rng.integers(10_000, 50_000_000, rows).tolist()
    tags = rng.integers(1, 64, rows).tolist()
    lines = [
        f"{sha_of(i)},{t.replace('T', ' ')},{v},{'|'.join(m for j, m in enumerate(_TAGS) if k >> j & 1)},"
        f"{t + 'Z' if n % 100 == 0 else t},,{s},fam{v % 9}\n"
        for n, (i, t, v, k, s) in enumerate(zip(ids, iso, vt, tags, size))
    ]
    path.write_text(HEADER + "".join(lines))


def _bytes_beyond_columns(path):
    """Peak traced memory of a parse, numpy buffers included, less what the population keeps."""
    with open(path, newline="") as stream:
        tracemalloc.start()
        try:
            pop = parse_metadata(stream).population
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak - sum(column.nbytes for column in pop.columns().values()) - pop.sha_order.nbytes


_UTF8_CASES = {
    "metadata": (HEADER, lambda i: f"{sha_of(i)},2015-01-01 00:00:00,{i % 7},play.google.com,2015-02-01,,100,\n"),
    "predictions": ("sha256,score\n", lambda i: f"{sha_of(i)},0.5\n"),
    "families": ("sha256,family\n", lambda i: f"{sha_of(i)},fam{i % 9}\n"),
}


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("kind", ["metadata", "predictions", "families", "quoted", "quoted-long"])
def test_invalid_utf8_names_its_row(tmp_path, kind, suffix):
    """A byte that is not UTF-8 in data row 15,000 of 20,000 is reported after
    row 14999, in whichever block or csv.reader chunk it falls, and also when
    its field is longer than csv.field_size_limit()."""
    header, line = _UTF8_CASES.get(kind, _UTF8_CASES["metadata"])
    lines = [line(i) for i in range(20_000)]
    if kind.startswith("quoted"):  # a quote in the first block sends the rest to csv.reader
        lines[0] = lines[0].replace("play.google.com", '"play.google.com"')
    bad = b"x" * 200_000 * (kind == "quoted-long") + b"\xff"  # longer than csv.field_size_limit()
    data = (header + "".join(lines[:14_999])).encode() + bad + "".join(lines[14_999:]).encode()
    path = tmp_path / f"{kind}.csv{suffix}"
    path.write_bytes(gzip.compress(data) if suffix else data)
    parse = {"predictions": parse_predictions, "families": parse_families}.get(kind, parse_metadata)
    with ingest.open_text(path) as fh, pytest.raises(FormatError) as err:
        parse(fh)
    assert str(err.value) == f"{path}: invalid UTF-8 after row 14999 (byte 0xff: invalid start byte)"


def test_every_csv_reader_reads_the_block_lines():
    """Every csv.reader in maldrift reads _lines(...), the lines of ingest._blocks,
    so the block, UTF-8, gzip and CRLF rules of every CSV input are stated once."""
    readers, found = 0, []
    for path in sorted((SRC / "maldrift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr == "reader" and getattr(func.value, "id", None) == "csv":
                readers += 1
                source = node.args[0].func if node.args and isinstance(node.args[0], ast.Call) else None
                if getattr(source, "id", getattr(source, "attr", None)) != "_lines":
                    found.append(f"{path.name}:{node.lineno}")
    assert readers >= 3  # metadata and predictions, families, AUT tables
    assert found == []


def _families_of(path):
    with ingest.open_text(path) as fh:
        return parse_families(fh)


_BLOCK_CASES = {
    "families": (
        "sha256,family\r\n",
        lambda i: [f"{sha_of(i)},fam{i % 5}\r\n", f'{sha_of(i)},"fam, {i}"\n', "short\n", "\n",
                   f"{sha_of(i).upper()},\n", f'{sha_of(i)},"three\r\nline\r\nfamily"\r\n'][i % 6],
        _families_of,
    ),
    "aut-table": (
        "classifier,aut1,aut2\r\n",
        lambda i: [f"c{i},0.{i},0.5\r\n", "\n", f'"c, {i}",0.25,0.{i}\n', f'"c\r\n{i}\r\n",1,0\r\n'][i % 4],
        lambda path: cli._aut_rows(str(path)),
    ),
}


def _gzip_cut(data: bytes) -> bytes:
    """gzip data that holds data whole, then ends without its end-of-stream marker."""
    packer = zlib.compressobj(wbits=31)
    return packer.compress(data) + packer.flush(zlib.Z_SYNC_FLUSH)


def _outcome(read, path):
    try:
        return read(path)
    except FormatError as exc:
        return str(exc)


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("form", ["whole", "cut", "not-utf8"])
@pytest.mark.parametrize("kind", sorted(_BLOCK_CASES))
def test_line_inputs_read_alike_at_any_block_size(tmp_path, kind, form, suffix):
    """Family files and --aut-table files, plain or gzipped, whole, cut inside a
    line or holding a byte that is not UTF-8, give the same result or error
    text whatever the block size: a line a fault cut is never read, and the
    lines before a byte that is not UTF-8 are."""
    header, line, read = _BLOCK_CASES[kind]
    data = (header + "".join(line(i) for i in range(1, 40))).encode()
    if form == "not-utf8":
        data = data[:300] + b"\xff" + data[300:]
    if form == "cut":
        data = data[: data.index(b"\n", 300) - 3]
    path = tmp_path / f"{kind}.csv{suffix}"
    path.write_bytes(data if not suffix else _gzip_cut(data) if form == "cut" else gzip.compress(data))
    expected = _outcome(read, path)
    if form == "not-utf8":
        assert "invalid UTF-8" in expected
    elif form == "cut" and suffix:
        assert "unreadable gzip data" in expected
    else:  # a quoted field's CRLFs are its text
        texts = expected[0].values() if kind == "families" else [name for name, _ in expected]
        assert any(text.count("\r\n") == 2 for text in texts)
    for block in (1, 7, 37):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            assert _outcome(read, path) == expected, block


def test_parse_memory_follows_block_size(tmp_path):
    """From 40k to 160k rows, what a parse holds beyond its result grows by under
    4 MB: a block's text and arrays are gone before the next block is read, and
    only the dedupe's index arrays (about 20 B a row) grow with the rows. Holding
    the text, or a Python object per row, would add more than 20 MB."""
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    _write_listing(small, 40_000)
    _write_listing(large, 160_000)
    assert abs(_bytes_beyond_columns(large) - _bytes_beyond_columns(small)) < 4_000_000


class _Holding:
    """A text stream that keeps its last read alive, as a reader holding the read would."""

    def __init__(self, stream):
        self.stream, self.last = stream, None

    def read(self, size=-1):
        self.last = self.stream.read(size)
        return self.last

    def __getattr__(self, name):
        return getattr(self.stream, name)


def _largest_add_reading(stream):
    """The most traced memory on entry to _Columns.add while stream is parsed."""
    readings = []
    add = ingest._Columns.add

    def spy(self, *args):
        readings.append(tracemalloc.get_traced_memory()[0])
        return add(self, *args)

    with mock.patch.object(ingest._Columns, "add", spy):
        tracemalloc.start()
        try:
            parse_metadata(stream)
        finally:
            tracemalloc.stop()
    return max(readings)


def test_parse_drops_each_read_before_its_block_is_parsed(tmp_path):
    """While a block is parsed, the 1 MiB read it was cut from is gone: a
    stream that keeps its last read alive raises the largest traced reading on
    entry to _Columns.add by about a block. A gzipped listing is read in many
    small decoded chunks, so open_text's stream keeps none of a read itself."""
    plain, path = tmp_path / "listing.csv", tmp_path / "listing.csv.gz"
    _write_listing(plain, 28_000)  # four full blocks and about 0.1 MiB
    path.write_bytes(gzip.compress(plain.read_bytes()))
    with ingest.open_text(path) as fh:
        dropped = _largest_add_reading(fh)
    with ingest.open_text(path) as fh:
        held = _largest_add_reading(_Holding(fh))
    assert held - dropped >= 800_000


def _sidecar_bytes_beyond_columns(tmp_path, rows):
    """Peak traced memory of loading a sidecar of a parsed listing, numpy buffers
    included, less what the population keeps."""
    listing, csv_path, sidecar = tmp_path / "listing.csv", tmp_path / "population.csv.gz", tmp_path / "population.npz"
    _write_listing(listing, rows)
    with open(listing, newline="") as stream:
        pop = parse_metadata(stream).population
    csv_path.write_bytes(b"")
    ingest._write_sidecar(pop, sidecar, csv_path)
    del pop
    tracemalloc.start()
    try:
        pop = ingest._read_sidecar(sidecar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(column.nbytes for column in pop.columns().values()) - pop.sha_order.nbytes


def test_sidecar_load_makes_no_sorted_copy(tmp_path):
    """From 40k to 160k records, what loading a sidecar holds beyond its result
    grows by under 4 MB: the sort-order check compares neighbours a chunk at a
    time. A sorted copy of the hashes would add 7.7 MB."""
    peaks = [_sidecar_bytes_beyond_columns(tmp_path, rows) for rows in (40_000, 160_000)]
    assert peaks[1] - peaks[0] < 4_000_000


def _write_peak(write, *args):
    """Peak traced memory of write(*args), numpy buffers included; the input was made before tracing."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_population_gz_memory_follows_chunk_size(tmp_path):
    """From 40k to 160k rows, what writing population.csv.gz holds grows by
    under 4 MB: one chunk's text is gone before the next is rendered. Holding
    the whole CSV would add tens of MB."""
    peaks = [
        _write_peak(cli._write_population_gz, synth.generate(synth.SynthConfig(months=100, per_month=n))[0], tmp_path / "p.csv.gz")
        for n in (400, 1600)
    ]
    assert peaks[1] - peaks[0] < 4_000_000


def _manifest(n):
    """A manifest of n entries over 60 months, three market sets and a few families."""
    rng = np.random.default_rng(n)
    columns = {
        "sha256": np.array([sha_of(i) for i in range(n)], dtype="S64"),
        "label": rng.integers(0, 3, n),
        "period": rng.integers(528, 588, n),  # 2014-01 .. 2018-12
        "granularity": np.zeros(n),
        "markets": rng.integers(0, 3, n),
        "family": rng.integers(-1, 5, n),
    }
    market_sets = (frozenset({"play.google.com"}), frozenset({"anzhi", "appchina"}), frozenset({"unknown"}))
    families = tuple(f"fam{i}" for i in range(5))
    return DatasetManifest._from_columns(columns, market_sets, families, spec={"seed": 0}, created="")


def test_manifest_json_memory_follows_chunk_size(tmp_path):
    """From 40k to 160k entries, what writing manifest.json holds grows by under 4 MB."""
    peaks = [_write_peak(write_manifest_json, _manifest(n), tmp_path / "manifest.json") for n in (40_000, 160_000)]
    assert peaks[1] - peaks[0] < 4_000_000


def _read_beyond_columns(path):
    """Peak traced memory of read_manifest_json, numpy buffers included, less
    what the manifest keeps: its columns and their sort order."""
    tracemalloc.start()
    try:
        manifest = read_manifest_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(column.nbytes for column in manifest.columns().values()) - manifest.sha_order.nbytes


def test_manifest_json_read_memory_follows_chunk_size(tmp_path):
    """From 40k to 160k entries, what reading manifest.json holds beyond the
    manifest grows by under 4 MB: a block of text and a chunk of decoded
    entries at a time. Decoding the whole file with json.loads would add
    about 100 MB."""
    peaks = []
    for n in (40_000, 160_000):
        path = tmp_path / f"manifest-{n}.json"
        write_manifest_json(_manifest(n)._replace(spec={"policy": {"kind": "creation_dex"}}), path)
        peaks.append(_read_beyond_columns(path))
    assert peaks[1] - peaks[0] < 4_000_000



def test_manifest_duplicate_names_the_smallest_repeated_hash(tmp_path):
    """As a population's duplicate error does, even when the larger hash repeats first in row order."""
    low, high = sorted([sha_of(1), sha_of(2)])
    entry = {"label": "malware", "period": "2014-01", "markets": ["play.google.com"]}
    data = {"spec": {"policy": {"kind": "creation_dex"}}, "created": "",
            "entries": [{"sha256": sha, **entry} for sha in (high, low, high, low)]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=f"^{path}: ValueError: duplicate sha256 in manifest: {low}$"):
        read_manifest_json(path)


def test_hash_order_is_a_stable_sort_of_the_hashes():
    """Hashes sharing their first 16 hex characters, and repeated ones, sort as
    np.argsort(kind="stable") sorts them."""
    rng = np.random.default_rng(5)
    hexes = rng.choice(list("0123456789abcdef"), size=(400, 64))
    hexes[:300, :16] = list("0123456789abcdef")  # one shared prefix
    hexes[300:350, :16] = list("fedcba9876543210")
    hashes = np.array(["".join(h) for h in hexes], dtype="S64")
    hashes = np.concatenate([hashes, hashes[rng.integers(0, 400, 100)]])
    rng.shuffle(hashes)
    assert np.array_equal(model._hash_order(hashes), np.argsort(hashes, kind="stable"))
    assert np.array_equal(model._hash_order(hashes[:0]), np.zeros(0, dtype=np.int64))


def test_parse_shared_prefixes_keep_first_seen_order_and_last_row():
    prefix = "0123456789abcdef"
    hashes = [prefix + sha_of(i)[16:] for i in range(6)]
    rows = [f"{h},2014-01-15,{i},play.google.com,,,100,\n" for i, h in enumerate(hashes)]
    rows += [f"{hashes[4]},2014-01-15,40,play.google.com,,,100,\n", f"{hashes[1]},2014-01-15,10,play.google.com,,,100,\n"]
    rows += [f"{hashes[4]},2014-01-15,41,play.google.com,,,100,\n"]
    pop = parse_metadata(_csv(rows)).population
    assert [r.sha256 for r in pop] == hashes
    assert [r.vt_detection for r in pop] == [0, 10, 2, 3, 41, 5]
    assert np.array_equal(pop.sha_order, np.argsort(pop.sha256, kind="stable"))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=30),
    quoted=st.booleans(),
    block=st.sampled_from([37, 1 << 20]),
)
def test_every_reader_keeps_a_repeated_key_as_a_dict_does(rows, quoted, block):
    """Metadata, family and prediction files share one rule for a repeated
    sha256: each key once, at its first row's place, with its last row's values,
    the items a dict filled row by row gives (a blank family name maps nothing).
    A quote sends the rows through csv.reader; a small block gives many parts."""
    q = '"' if quoted else ""
    metadata, families, predictions = HEADER, "", "sha256,score\n"
    want: dict = {}
    named: dict = {}
    for i, (key, blank) in enumerate(rows):
        sha = sha_of(key)
        name = "" if blank else f"fam{i}"
        metadata += f"{sha},2014-01-15,{i},{q}play{q},,,{i},\n"
        families += f"{sha},{q}{name}{q}\n"
        predictions += f"{sha},{q}0.{i:02d}{q}\n"
        want[sha] = i
        if name:
            named[sha] = name
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        pop = parse_metadata(io.StringIO(metadata)).population
        mapping, _ = parse_families(io.StringIO(families))
        predset, _ = parse_predictions(io.StringIO(predictions))
    assert [(r.sha256, r.vt_detection, r.apk_size) for r in pop] == [(sha, i, i) for sha, i in want.items()]
    assert list(mapping.items()) == list(named.items())
    assert [(sha, row.score) for sha, row in predset.rows.items()] == [(sha, i / 100) for sha, i in want.items()]
    for table in (pop, mapping, predset):
        assert model._is_key_order(table.sha256, table.sha_order)
