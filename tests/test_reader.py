"""The byte block reader (ingest._blocks) against the text reader it replaced,
the streams it reads as bytes or as text, what a parse holds while it reads,
and join_families against the loop it replaced."""
import gzip
import io
import os
import threading
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldrift import ingest
from maldrift.errors import FormatError
from maldrift.ingest import FamilyJoinStats, join_families, parse_metadata

from helpers import make_population, make_record, sha_of

HEADER = "sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size,family"


# The text reader that ingest._blocks was before it read bytes, kept as the reference.


def _undecodable(stream, text):
    if getattr(stream, "errors", None) == "surrogateescape" and not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            try:
                text[exc.start :].encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as error:
                return exc.start, error
    return -1, None


def _text_blocks(stream):
    pending, quoted = "", False
    while True:
        text = stream.read(ingest._BLOCK_CHARS) or stream.read(ingest._BLOCK_CHARS)
        cut = text.rfind("\n") + 1
        if text and not cut:
            pending += text
            continue
        block, pending, ended = pending + text[:cut], text[cut:], not text
        del text
        at, error = _undecodable(stream, block)
        if error:
            block = block[: block.rfind("\n", 0, at) + 1]
        quoted = quoted or '"' in block
        if not quoted and "\r" in block and block.count("\r") == block.count("\r\n"):
            block = block.replace("\r\n", "\n")
        if block:
            yield block
        if error:
            raise error
        if ended:
            return


def _as_byte_blocks(stream):
    """The text reader's blocks in the byte reader's form."""
    for block in _text_blocks(stream):
        data = block.encode("utf-8", "surrogatepass")
        yield np.frombuffer(data + ingest._PAD, dtype=np.uint8), len(data), not any(c in block for c in '"\r\0')


def _fault(exc):
    """What the error messages read of a fault: the bad byte and reason, or the gzip error."""
    if isinstance(exc, UnicodeDecodeError):
        return "utf-8", exc.object[exc.start : exc.start + 1], exc.reason
    return type(exc).__name__, str(exc)


def _read_blocks(blocks):
    """Each block's bytes and plain flag, taken before the next is read, and the fault that ended them."""
    got = []
    try:
        for buf, size, plain in blocks:
            assert not buf[size:].any() and len(buf) - size == len(ingest._PAD)
            got.append((buf[:size].tobytes(), plain))
    except (UnicodeDecodeError, *ingest._GZIP_ERRORS) as exc:
        return got, _fault(exc)
    return got, None


def _parsed(path):
    try:
        with ingest.open_text(path) as fh:
            result = parse_metadata(fh)
    except FormatError as exc:
        return str(exc)
    pop = result.population
    return result.stats, pop.market_sets, pop.families, {name: c.tolist() for name, c in pop.columns().items()}


def _listing(block: int, form: str) -> bytes:
    """A listing with a line longer than a block, and CRLF line ends ("crlf"),
    with a lone CR after the first block ("cr") or a quote after it ("quote"),
    or a NUL ("nul") or 0xff byte ("ff")."""
    end = "\r\n" if form in ("crlf", "cr", "quote") else "\n"
    rows = [
        f"{sha_of(i)},2015-01-{1 + i % 28:02d} 10:00:00,{i % 9},play.google.com|anzhi,2015-03-01,,{1000 + i},fam{i % 4}"
        for i in range(40)
    ]
    rows[3] = f"{sha_of(3)},2015-01-04,1,{'m' * (block + 100)},,,5,"  # longer than a block
    if form == "quote":
        rows[30] = rows[30].replace("play.google.com|anzhi", '"play.google.com|anzhi"')
    if form in ("cr", "nul"):
        rows[30] = rows[30].replace("fam", "f\ram" if form == "cr" else "f\0am")
    data = (end.join([HEADER, *rows]) + end).encode()
    if form == "ff":
        at = data.index(sha_of(30).encode())
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.mark.parametrize("block", [1, 7, 37, 1 << 20])
@pytest.mark.parametrize("form", ["lf", "crlf", "cr", "quote", "nul", "ff", "cut"])
@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_byte_blocks_match_the_text_reader(tmp_path, block, form, suffix):
    """At any block size, the byte reader gives the text reader's blocks, plain
    flags and fault, and a parse gives the same population or error text, for
    plain and gzipped listings, whole or cut inside a line."""
    data = _listing(block, form)
    if form == "cut":
        data = data[: data.index(b"\n", len(data) // 2) + 20]
    path = tmp_path / f"listing.csv{suffix}"
    if suffix and form == "cut":
        packer = zlib.compressobj(wbits=31)  # no end-of-stream marker after the data
        path.write_bytes(packer.compress(data) + packer.flush(zlib.Z_SYNC_FLUSH))
    else:
        path.write_bytes(gzip.compress(data) if suffix else data)
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        with ingest.open_text(path) as fh:
            expected = _read_blocks(_as_byte_blocks(fh))
        with ingest.open_text(path) as fh:
            assert _read_blocks(ingest._blocks(fh)) == expected
        with mock.patch.object(ingest, "_blocks", _as_byte_blocks):
            parsed_by_text = _parsed(path)
        assert _parsed(path) == parsed_by_text
    if form == "ff" or form == "cut" and suffix:
        assert expected[1] is not None and isinstance(parsed_by_text, str)
    elif form in ("cr", "quote", "nul"):
        assert any(not plain for _, plain in expected[0][1:])


def test_byte_blocks_of_multibyte_text(tmp_path):
    """Multi-byte UTF-8 text gives the text reader's bytes, whatever the block size."""
    rows = [f"{sha_of(i)},2015-01-02,{i % 9},{'é' * (i % 5)}play,,,{i},fàm{i % 3}\n" for i in range(60)]
    path = tmp_path / "listing.csv"
    path.write_text(HEADER + "\n" + "".join(rows), encoding="utf-8")
    for block in (1, 7, 37):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            with ingest.open_text(path) as fh:
                blocks, fault = _read_blocks(ingest._blocks(fh))
            assert fault is None and b"".join(b for b, _ in blocks) == path.read_bytes()
            with mock.patch.object(ingest, "_blocks", _as_byte_blocks):
                parsed_by_text = _parsed(path)
            assert _parsed(path) == parsed_by_text


class _TextOnly:
    """A proxy that counts the text reads of the stream it forwards, .buffer included."""

    def __init__(self, stream):
        self.stream, self.reads = stream, 0

    def read(self, size=-1):
        self.reads += 1
        return self.stream.read(size)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def _write_rows(path, rows):
    """A seeded listing of the given rows: multi-tag markets, families and a few duplicate hashes."""
    rng = np.random.default_rng(rows)
    stamps = np.datetime64("2014-01-01T00:00:00") + rng.integers(0, 5 * 365 * 86400, rows).astype("timedelta64[s]")
    iso = np.datetime_as_string(stamps, unit="s").tolist()
    ids = np.where(rng.random(rows) < 0.005, 0, np.arange(rows)).tolist()
    lines = [
        f"{sha_of(i)},{t.replace('T', ' ')},{i % 30},play.google.com|{'anzhi' if n % 3 else 'appchina'},"
        f"{t}Z,,{n},fam{n % 9}\n"
        for n, (i, t) in enumerate(zip(ids, iso))
    ]
    path.write_text(HEADER + "\n" + "".join(lines))


def test_open_text_streams_are_read_as_bytes(tmp_path):
    """A plain or gzipped stream of open_text is parsed with no call of its
    text read; io.StringIO and a proxy of an open_text stream, which forwards
    .buffer, are read as text, to the same population."""
    plain, packed = tmp_path / "listing.csv", tmp_path / "listing.csv.gz"
    _write_rows(plain, 3_000)
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    refuse = mock.Mock(side_effect=AssertionError("text read"))
    results = []
    with mock.patch.object(ingest._Text, "read", refuse), mock.patch.object(ingest._Text, "readline", refuse):
        for path in (plain, packed):
            with ingest.open_text(path) as fh:
                results.append(parse_metadata(fh).population.records)
    assert refuse.call_count == 0
    for path in (plain, packed):
        with ingest.open_text(path) as fh:
            proxy = _TextOnly(fh)
            assert proxy.buffer is fh.buffer
            results.append(parse_metadata(proxy).population.records)
        assert proxy.reads > 0
    text = _TextOnly(io.StringIO(plain.read_text(), newline=""))
    results.append(parse_metadata(text).population.records)
    assert text.reads > 0
    assert all(records == results[0] for records in results)
    # a stream whose text layer has read is read on as text, from where it stands
    headed = tmp_path / "headed.csv.gz"
    headed.write_bytes(gzip.compress(b"a line before the header\n" + plain.read_bytes()))
    with ingest.open_text(headed) as fh:
        fh.readline()
        assert parse_metadata(fh).population.records == results[0]


def test_a_pipe_is_read_as_text(tmp_path):
    """open_text of a pipe, whose binary layer cannot tell its place, is read
    as text, to the population of the same bytes in a file."""
    path = tmp_path / "listing.csv"
    _write_rows(path, 2_000)
    with ingest.open_text(path) as fh:
        expected = parse_metadata(fh).population.records
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_end, path.read_bytes()), os.close(write_end)))
    writer.start()
    try:
        with ingest.open_text(f"/dev/fd/{read_end}") as fh:
            assert fh.unread() is None
            records = parse_metadata(fh).population.records
    finally:
        writer.join(timeout=30)
        os.close(read_end)
    assert not writer.is_alive()
    assert records == expected


def _largest_reading_on_add(path):
    """The most traced memory on entry to _Columns.add while path is parsed."""
    readings = []
    add = ingest._Columns.add

    def spy(self, *args):
        readings.append(tracemalloc.get_traced_memory()[0])
        return add(self, *args)

    with mock.patch.object(ingest._Columns, "add", spy), ingest.open_text(path) as fh:
        tracemalloc.start()
        try:
            parse_metadata(fh)
        finally:
            tracemalloc.stop()
    return max(readings)


def test_plain_listing_holds_no_more_than_gzipped(tmp_path):
    """While a block is parsed, a plain listing holds what the same listing
    gzipped holds, within 0.2 MB: its stream keeps no decoded copy of a read."""
    plain, packed = tmp_path / "listing.csv", tmp_path / "listing.csv.gz"
    _write_rows(plain, 28_000)  # four full blocks and more
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    assert abs(_largest_reading_on_add(plain) - _largest_reading_on_add(packed)) <= 200_000


# join_families as a loop over the mapping, as it was written before it worked on arrays.


def _join_by_loop(pop, mapping):
    stats = FamilyJoinStats(mapped=len(mapping))
    hashes = list(mapping)
    rows = pop.positions(hashes)
    families = {name: i for i, name in enumerate(pop.families)}
    family = pop.family.copy()
    for sha, row in zip(hashes, rows.tolist()):
        name = mapping[sha]
        if row >= 0 and name is not None:
            stats.matched += 1
            family[row] = families.setdefault(name, len(families)) if name.strip() else -1
    stats.unmatched = int(np.count_nonzero(rows < 0))
    return family.tolist(), tuple(families), stats


_NAMES = ["fam0", "fam1", "new1", "new2", " new1 ", "", "  ", "\t", None]


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(0, 15), st.sampled_from(_NAMES), max_size=16))
def test_join_families_matches_the_loop(entries):
    """Unmatched hashes, blank and whitespace names, new names (in mapping
    order), names already in the population and None give the loop's
    families, codes and stats."""
    pop = make_population([make_record(t, family=f"fam{t % 3}" if t % 4 else None) for t in range(10)])
    mapping = {sha_of(t): name for t, name in entries.items()}
    joined, stats = join_families(pop, mapping)
    family, families, expected = _join_by_loop(pop, mapping)
    assert (joined.family.tolist(), joined.families, stats) == (family, families, expected)
    assert joined.sha256.tolist() == pop.sha256.tolist()
