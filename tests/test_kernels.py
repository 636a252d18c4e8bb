"""The metadata field kernels against the row parser.

The kernels read the canonical fields of a chunk in bulk and hand every span
they refuse to ingest._parse_row. So a kernel may refuse more than it must,
but what it accepts must read exactly as parse_timestamp (or the hash rule)
reads it, and the canonical forms that real listings use must stay in bulk.
"""
import random
import re
from unittest import mock

import numpy as np

from maldrift import ingest
from maldrift.model import parse_timestamp

from helpers import sha_of
from test_oracle import ODD_STAMPS

_EDGE_CHARS = "0123456789-:T Z+.tz/a٣\t"


def _stamp(rng: random.Random, year: int, fields_in_range: bool) -> str:
    """A timestamp in one of the forms _stamps reads in bulk; its fields may be out of range."""
    if fields_in_range:
        month, day, hour, minute, second = (rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23),
                                            rng.randint(0, 59), rng.randint(0, 59))
        zone = (rng.randint(0, 23), rng.randint(0, 59))
    else:
        month, day, hour, minute, second = (rng.randint(0, 13), rng.randint(0, 32), rng.randint(0, 25),
                                            rng.randint(0, 61), rng.randint(0, 61))
        zone = (rng.randint(0, 25), rng.randint(0, 61))
    text = f"{year:04d}-{month:02d}-{day:02d}"
    if rng.random() < 0.15:
        return text
    text += rng.choice(" T") + f"{hour:02d}:{minute:02d}:{second:02d}" + rng.choice(["", "", ".750", ".123456"])
    return text + rng.choice(["", "", "Z", f"+{zone[0]:02d}:{zone[1]:02d}", f"-{zone[0]:02d}:{zone[1]:02d}"])


def _mutated(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.choice([1, 1, 2, 3])):
        op = rng.random()
        if op < 0.6 and chars:
            chars[rng.randrange(len(chars))] = rng.choice(_EDGE_CHARS)
        elif op < 0.8:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_EDGE_CHARS))
        elif chars:
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


def test_stamps_read_as_parse_timestamp():
    rng = random.Random(14)
    edge_years = [1969, 1970, 1971, 2099, 2100, 2101, 0, 9999]
    canonical = [_stamp(rng, rng.randint(1971, 2099), True) for _ in range(2_000)]
    texts = list(canonical)
    for _ in range(24_000):
        kind = rng.random()
        if kind < 0.3:
            text = _stamp(rng, rng.choice([rng.randint(1960, 2110), rng.choice(edge_years)]), rng.random() < 0.5)
        elif kind < 0.4:
            text = rng.choice(ODD_STAMPS)
        else:
            text = _mutated(rng, rng.choice([rng.choice(ODD_STAMPS), _stamp(rng, rng.randint(1960, 2110), True)]))
        texts.append(text)
    texts += ["", "1970-01-01", "2100-12-31 23:59:59", "1969-12-31T23:59:59-00:01", "2101-01-01T00:30:00+01:00",
              "2016-02-29", "2100-02-29", "2000-02-29 12:00:00", "1900-02-29"]
    buf, start, end = ingest._spans(tuple(texts))
    for required in (True, False):
        stamps, ok = ingest._stamps(buf, start, end, required=required)
        assert ok[: len(canonical)].all()  # what the bulk path must keep reading
        for k in np.flatnonzero(ok).tolist():
            if texts[k]:
                assert stamps[k] == np.datetime64(parse_timestamp(texts[k]), "s"), texts[k]
            else:
                assert not required and np.isnat(stamps[k])
        assert required or ok[[k for k, text in enumerate(texts) if not text]].all()
        assert 5_000 < ok.sum() < len(texts) - 5_000  # both verdicts are well covered


def test_hashes_accept_exactly_lowercase_hex():
    rng = random.Random(7)
    edges = b"/:`gABCDEF\0" + bytes([0x80, 0xFF])
    spans = []
    for _ in range(20_000):
        raw = bytearray(sha_of(rng.random()).encode())
        if rng.random() < 0.7:
            for _ in range(rng.randint(1, 3)):
                raw[rng.randrange(64)] = rng.choice(edges + b"0123456789abcdef")
        if rng.random() < 0.1:
            raw = raw[: rng.randint(0, 63)] if rng.random() < 0.5 else raw + b"a"
        spans.append(bytes(raw))
    lengths = np.array([len(raw) for raw in spans])
    end = np.cumsum(lengths)
    buf = np.frombuffer(b"".join(spans) + ingest._PAD, dtype=np.uint8)
    hashes, ok = ingest._hashes(buf, end - lengths, end)
    expected = [re.fullmatch(rb"[0-9a-f]{64}", raw) is not None for raw in spans]
    assert ok.tolist() == expected
    assert 1_000 < sum(expected) < len(spans) - 1_000
    assert hashes[ok].tolist() == [raw for raw, good in zip(spans, expected) if good]


# every form the bench's generator and AndroZoo's listing use for each field
_DEX = ["2014-01-15 10:20:30", "2014-01-15", "2014-01-15T10:20:30Z", "2014-01-15 10:20:30+02:00",
        "2014-01-15 10:20:30.750", "2014-01-15 10:20:30.123456"]
_CRAWL = _DEX + [""]
_MARKETS = ["play.google.com", "anzhi|appchina", "play.google.com|anzhi|VirusShare", "unknown"]
_SIZES = ["1000", "", "0", "123456789"]


def test_canonical_listing_parses_in_bulk(tmp_path):
    header = "sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size"
    rows = []
    for i in range(len(_DEX) * len(_CRAWL)):
        dex, crawl = _DEX[i % len(_DEX)], _CRAWL[i // len(_DEX)]
        scan = _CRAWL[(i + 3) % len(_CRAWL)]
        rows.append(f"{sha_of(i)},{dex},{i % 30},{_MARKETS[i % len(_MARKETS)]},{crawl},{scan},{_SIZES[i % len(_SIZES)]}")
    path = tmp_path / "listing.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    with mock.patch.object(ingest, "_parse_row", wraps=ingest._parse_row) as parse_row:
        with ingest.open_text(path) as fh:
            result = ingest.parse_metadata(fh, strict=True)
    assert parse_row.call_count == 0
    assert (result.stats.rows, result.stats.parsed, result.stats.malformed) == (len(rows), len(rows), 0)
    fields = header.split(",")
    expected = [ingest._parse_row(dict(zip(fields, row.split(",")))) for row in rows]
    assert list(result.population) == expected
