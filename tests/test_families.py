"""The columnar family reader against the dict reader it replaced, kept here
as the reference, and KeyedTable.positions in key order against a search in
query order."""
import csv
import gzip
import io
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldrift import ingest
from maldrift.errors import FormatError
from maldrift.ingest import Families, join_families, parse_families
from maldrift.model import KEY_DTYPE, _keys

from helpers import make_population, make_record, sha_of


# parse_families as it was before it read columns: a dict filled row by row.


def _families_by_dict(stream):
    mapping: dict[str, str] = {}
    malformed = rows = 0
    try:
        for row in ingest._csv_rows(csv.reader(ingest._lines(ingest._blocks(stream)))):
            if not row or row == ["sha256", "family"]:
                continue
            rows += 1
            if isinstance(row, csv.Error) or len(row) < 2:
                malformed += 1
                continue
            sha, family = row[0].strip().lower(), row[1].strip()
            if len(sha) != 64:
                malformed += 1
                continue
            if family:
                mapping[sha] = family
    except (UnicodeDecodeError, *ingest._GZIP_ERRORS) as exc:
        raise ingest._unreadable(stream, "family input", rows, exc) from None
    return mapping, malformed


def _family_listing(form: str) -> bytes:
    """A family file with a header row mid-file, blank and whitespace names, a
    key named, then blank, then renamed, upper-case and space-padded keys,
    keys that are not hex, not ASCII or end in NUL, short and long rows, and a
    blank line; with CRLF line ends ("crlf"), a quoted name holding a comma
    ("quote"), a NUL in a name ("nul") or a 0xff byte ("ff")."""
    rows = [f"{sha_of(i)},fam{i % 6}" for i in range(60)]
    rows[5] = "sha256,family"
    rows[6] = f"{sha_of(6)},"
    rows[7] = f"{sha_of(7)},  \t "
    rows[8] = f"{sha_of(3)},"
    rows[9] = f"{sha_of(3)},renamed"
    rows[10] = f"{sha_of(10).upper()},fam10"
    rows[11] = f"  {sha_of(11)}  , padded name "
    rows[12] = "g" * 64 + ",not hex"
    rows[13] = "short"
    rows[14] = f"{sha_of(14)},three,fields"
    rows[15] = sha_of(0)
    rows[16] = sha_of(16)[:63] + ",one short"
    rows[17] = ""
    rows[18] = f"{sha_of(2)},fam2 again"
    rows[19] = "é" * 64 + ",not ascii"
    rows[20] = f"{sha_of(20)},sha256"
    rows[21] = f"{sha_of(21)},{'x' * 300}"  # longer than the text kernel reads
    rows[22] = f"{sha_of(4)},"
    if form == "quote":
        rows[40] = f'{sha_of(40)},"fam, 40"'
    if form == "nul":
        rows[41] = f"{sha_of(41)},f\0am"
        rows[42] = "a" * 63 + "\0,ends in NUL"
    end = "\r\n" if form == "crlf" else "\n"
    data = (end.join(rows) + end).encode()
    if form == "ff":
        at = data.index(sha_of(45).encode())
        data = data[:at] + b"\xff" + data[at:]
    return data


def _read(parse, path):
    try:
        with ingest.open_text(path) as fh:
            mapping, malformed = parse(fh)
    except FormatError as exc:
        return str(exc)
    return list(mapping.items()), list(mapping.values()), len(mapping), malformed


@pytest.mark.parametrize("block", [1, 7, 37, 1 << 20])
@pytest.mark.parametrize("form", ["lf", "crlf", "quote", "nul", "ff", "cut"])
@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_family_columns_match_the_dict_reader(tmp_path, block, form, suffix):
    """At any block size, plain or gzipped, whole or cut inside a line, the
    columnar reader gives the dict reader's items in its order, its length
    and malformed count, or its error text."""
    data = _family_listing(form)
    path = tmp_path / f"families.csv{suffix}"
    if form == "cut":
        data = data[: data.index(b"\n", len(data) // 2) + 20]
    if suffix and form == "cut":
        packer = zlib.compressobj(wbits=31)  # no end-of-stream marker after the data
        path.write_bytes(packer.compress(data) + packer.flush(zlib.Z_SYNC_FLUSH))
    else:
        path.write_bytes(gzip.compress(data) if suffix else data)
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        expected = _read(_families_by_dict, path)
        assert _read(parse_families, path) == expected
    if form == "ff" or form == "cut" and suffix:
        assert isinstance(expected, str)
    else:
        items = dict(expected[0])
        assert items[sha_of(3)] == "renamed" and sha_of(6) not in items and sha_of(10) in items
        assert ("a" * 63 + "\0" in items) == (form == "nul")


def test_families_read_as_a_dict():
    """A parsed mapping answers lookups, membership and equality as the dict does."""
    text = f"{sha_of(1)},dowgin\n{'é' * 64},odd\n{sha_of(2)},\n{sha_of(1)},plankton\n"
    mapping, malformed = parse_families(io.StringIO(text))
    expected, _ = _families_by_dict(io.StringIO(text))
    assert malformed == 0 and mapping == expected and dict(mapping) == expected
    assert mapping[sha_of(1)] == "plankton" and mapping["é" * 64] == "odd"
    assert sha_of(2) not in mapping and "ü" * 64 not in mapping and b"x" not in mapping
    assert mapping.get(sha_of(3)) is None
    assert Families.of(mapping) is mapping
    assert dict(Families.of({sha_of(5): None, "ab": "x"})) == {sha_of(5): None, "ab": "x"}


def test_join_accepts_parsed_and_plain_mappings():
    """join_families gives the same population and stats for a parsed mapping and its dict."""
    pop = make_population([make_record(t, family="fam0" if t % 2 else None) for t in range(8)])
    text = "".join(f"{sha_of(t)},{'fam' + str(t % 3) if t % 4 else ''}\n" for t in range(4, 12))
    mapping, _ = parse_families(io.StringIO(text))
    joined, stats = join_families(pop, mapping)
    by_dict, dict_stats = join_families(pop, dict(mapping))
    assert (joined.family.tolist(), joined.families, stats) == (by_dict.family.tolist(), by_dict.families, dict_stats)


@pytest.mark.parametrize("first", ["fam0", '"fam, 0"'], ids=["plain", "quoted"])
def test_first_family_line_is_a_row(first):
    """A family file has no header row: its first line is mapped, whether the
    first block is read in bulk or (holding a quote) by csv.reader."""
    mapping, malformed = parse_families(io.StringIO(f"{sha_of(0)},{first}\n{sha_of(1)},fam1\n"))
    assert (dict(mapping), malformed) == ({sha_of(0): first.strip('"'), sha_of(1): "fam1"}, 0)


@pytest.mark.parametrize("text", ["", "sha256,family\n"], ids=["empty", "header-only"])
def test_family_file_without_rows(text):
    mapping, malformed = parse_families(io.StringIO(text))
    assert (dict(mapping), malformed) == ({}, 0)


# KeyedTable.positions as it was before it searched in key order.


def _positions_in_query_order(table, hashes):
    keys, valid = _keys(hashes)
    if not len(table):
        return np.full(len(keys), -1, dtype=np.int64)
    at = table.sha_order[np.minimum(np.searchsorted(table.sha256, keys, sorter=table.sha_order), len(table) - 1)]
    return np.where(valid & (table.sha256[at] == keys), at, -1)


_ODD = ["", "ab", "Z" * 64, "é" * 64, "0" * 65, "f" * 63]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 40), unique=True, max_size=25),
    st.lists(st.one_of(st.integers(0, 60), st.sampled_from(_ODD)), max_size=40),
    st.booleans(),
)
def test_positions_in_key_order_match_query_order(tags, query, as_keys):
    """Random, repeated and absent hashes, and hashes that are not 64 ASCII
    characters, given as strings or as a KEY_DTYPE array, against tables of any
    size, the empty one too, and the empty query."""
    table = make_population([make_record(t) for t in tags])
    hashes = [sha_of(q) if isinstance(q, int) else q for q in query]
    if as_keys:
        hashes = _keys(hashes)[0]
    got = table.positions(hashes)
    assert got.dtype == np.int64 and got.tolist() == _positions_in_query_order(table, hashes).tolist()


def test_positions_of_an_empty_query():
    table = make_population([make_record(t) for t in range(3)])
    for hashes in ([], np.array([], dtype=KEY_DTYPE)):
        assert table.positions(hashes).tolist() == []
        assert make_population([]).positions(hashes).tolist() == []
