"""Parse metadata/family/prediction/AUT-table files, load and write the population
cache (CSV and sidecar), write CSV outputs, emulate snapshots.

Column names follow the public AndroZoo metadata: "added" maps to the crawl
date and "markets" is a "|"-separated list. Lenient parsing (count and skip
malformed rows) is the default because real snapshots contain bad rows.
"""
from __future__ import annotations

import codecs
import contextlib
import csv
import gzip
import io
import itertools
import json
import os
import zipfile
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from datetime import datetime
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import FormatError
from .model import (
    COLUMNS,
    HEX_DTYPE,
    KEY_DTYPE,
    MAX_YEAR,
    MIN_YEAR,
    ApkRecord,
    KeyedTable,
    Population,
    _WRITE_ROWS,
    _is_key_order,
    _key_runs,
    _key_texts,
    format_timestamps,
    parse_timestamp,
)

REQUIRED_COLUMNS = ("sha256", "dex_date", "vt_detection")
OPTIONAL_COLUMNS = ("markets", "added", "vt_scan_date", "apk_size", "family")
CANONICAL_COLUMNS = ("sha256", "dex_date", "vt_detection", "markets", "added", "vt_scan_date", "apk_size", "family")


@dataclass
class ParseStats:
    rows: int = 0
    parsed: int = 0
    malformed: int = 0
    duplicates: int = 0


@dataclass(frozen=True)
class ParseResult:
    population: Population
    stats: ParseStats


def open_text(path: Union[str, Path]) -> IO[str]:
    """Open a possibly gzip-compressed UTF-8 text file for reading; a byte that is not
    UTF-8 reads as a lone surrogate. The parsers read its binary layer (_blocks),
    so they can name the row of such a byte. Gzip data that ends early or fails
    its check reads as ending there once (_GzipFile), so _blocks gives all the
    text before the fault."""
    path = str(path)
    binary = _GzipFile(path, "rb") if path.endswith(".gz") else open(path, "rb")
    return _Text(binary, encoding="utf-8", errors="surrogateescape", newline="")


class _Text(io.TextIOWrapper):
    """A text stream open_text made: _blocks reads the bytes of its binary layer."""

    def unread(self) -> Optional[IO[bytes]]:
        """The binary layer, while the text layer has read none of it; None once
        it has, or when the layer cannot tell its place (a pipe)."""
        try:
            return self.buffer if self.buffer.tell() == 0 else None
        except OSError:
            return None


class _GzipFile(gzip.GzipFile):
    """A GzipFile whose read1 and readinto1 return the data decoded before a
    fault: the fault reads as the end of the data once, and every read after
    raises it."""

    fault: Optional[Exception] = None

    def read1(self, size: int = -1) -> bytes:
        if self.fault is not None:
            raise self.fault
        try:
            return super().read1(size)
        except _GZIP_ERRORS as exc:
            self.fault = exc
            return b""

    def readinto1(self, b) -> int:
        data = self.read1(len(b))
        b[: len(data)] = data
        return len(data)


def _market_tags(text: str) -> frozenset[str]:
    """The market set a markets field names: its "|"-separated tags, blanks dropped."""
    return frozenset(m for m in text.strip().split("|") if m) or frozenset({"unknown"})


def _family_name(text: str) -> Optional[str]:
    """The family a family field names; None when it is blank."""
    return text.strip() or None


def _parse_row(row: dict[str, str]) -> ApkRecord:
    sha = (row.get("sha256") or "").strip()
    dex = parse_timestamp(row["dex_date"])
    vt = int((row.get("vt_detection") or "").strip())
    if vt < 0:
        raise ValueError(f"negative vt_detection: {vt}")
    crawl_raw = (row.get("added") or "").strip()
    scan_raw = (row.get("vt_scan_date") or "").strip()
    size_raw = (row.get("apk_size") or "").strip()
    return ApkRecord(
        sha256=sha,
        dex_date=dex,
        vt_detection=vt,
        crawl_date=parse_timestamp(crawl_raw) if crawl_raw else None,
        vt_scan_date=parse_timestamp(scan_raw) if scan_raw else None,
        markets=_market_tags(row.get("markets") or ""),
        apk_size=int(size_raw) if size_raw else 0,
        family=_family_name(row.get("family") or ""),
    )


# Rows per chunk of the csv.reader path.
_CHUNK_ROWS = 1 << 13
# Bytes (characters, of a stream read as text) per read of a parse block: what
# a parse holds at once follows this, not the file size.
_BLOCK_CHARS = 1 << 20
# Room for the line a block carries to the next in a new block buffer; a longer line grows it.
_LINE_ROOM = 1 << 16
# Market and family texts longer than this go through _parse_row.
_TEXT_BYTES = 256
# Zero bytes after each buffer, so a window of up to _TEXT_BYTES at any span start fits.
_PAD = bytes(_TEXT_BYTES)

_FIRST_SECOND = np.datetime64(f"{MIN_YEAR}-01-01", "s").astype(np.int64)
_END_SECOND = np.datetime64(f"{MAX_YEAR + 1}-01-01", "s").astype(np.int64)
# by month number: its days in a common year, and the day it starts on in a year counted from 1 March
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] + [0] * 243, dtype=np.uint8)
_MARCH_DAY = np.array([0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275] + [0] * 243, dtype=np.int32)
# the window of any width from _TEXT_BYTES - n on: 0xFF in the first n bytes, then 0
_KEEP = np.repeat(np.array([0xFF, 0], dtype=np.uint8), _TEXT_BYTES)

# The field kernels read spans (start, end) of a uint8 buffer that ends in _PAD;
# each returns the values and a mask of the spans in canonical form. Values
# outside the mask are junk: _parse_row judges those rows.


def _windows(buf: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes from each start, as an (n, width) uint8 array; numpy
    copies each window as one item of an overlapping void view."""
    items = np.ndarray((len(buf) - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))
    return items[start].view(np.uint8).reshape(len(start), width)


def _nonzero_rows(words: np.ndarray) -> np.ndarray:
    """Whether each row of a 2-D uint64 array holds a word other than 0."""
    return np.bitwise_or.reduce(np.ascontiguousarray(words.T), axis=0) != 0


def _planes(buf: np.ndarray, start: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The `width` bytes from each start as a (width, n) array, one row per position, and the
    same minus ord("0"): a digit reads as its value and any other byte as 10 or more."""
    chars = np.ascontiguousarray(_windows(buf, start, width).T)
    return chars, chars - np.uint8(ord("0"))


def _hashes(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys (KEY_DTYPE) of spans of 64 lowercase hex digits, and a mask of those spans."""
    chars = _windows(buf, start, 64)
    ok = end - start == 64
    for at in range(0, len(chars), _WRITE_ROWS):  # a mask of every byte at once is as large as the hashes
        part = chars[at : at + _WRITE_ROWS]
        # True for a byte outside "0".."9" (48..57) and "a".."f" (97..102)
        odd = (part - np.uint8(ord("0")) >= 10) & (part - np.uint8(ord("a")) >= 6)
        ok[at : at + _WRITE_ROWS] &= ~_nonzero_rows(odd.view(np.uint64))
    return chars.view(KEY_DTYPE).ravel(), ok


def _naturals(buf: np.ndarray, start: np.ndarray, end: np.ndarray, required: bool) -> tuple[np.ndarray, np.ndarray]:
    """int64 of spans of 1-18 ASCII digits, and a mask of those spans; an optional empty span is 0."""
    lengths = end - start
    width = int(np.clip(lengths.max(initial=1), 1, 18))  # a longer span is not read
    value = np.zeros(len(start), dtype=np.int64)
    ok = (lengths >= 1) & (lengths <= width)
    for at, digit in enumerate(_planes(buf, start, width)[1]):
        inside = lengths > at
        ok &= (digit < 10) | ~inside
        value = np.where(inside, value * 10 + digit, value)
    return value, ok if required else ok | (lengths == 0)


def _stamps(buf: np.ndarray, start: np.ndarray, end: np.ndarray, required: bool) -> tuple[np.ndarray, np.ndarray]:
    """datetime64[s] of spans that parse_timestamp reads, in the forms read in bulk,
    and a mask of those spans; an optional empty span is NaT.

    The forms: "YYYY-MM-DD", or "YYYY-MM-DD", " " or "T" and "HH:MM:SS", then
    maybe a 3- or 6-digit fraction (dropped), then maybe "Z" or "+HH:MM"/"-HH:MM"
    (HH <= 23, MM <= 59), converted to UTC; the UTC time must fall in the years
    MIN_YEAR..MAX_YEAR. fromisoformat reads these forms alike from Python 3.10
    on; other forms (a date with an offset, other fraction widths) are
    parse_timestamp's to judge. Dates are checked and counted in integers, from 1 March of year 0.
    """
    lengths = end - start
    c, d = _planes(buf, start, 26)
    tail, t = _planes(buf, np.maximum(end - 6, 0), 6)  # "+HH:MM", or ending in "Z"
    zone_hour, zone_minute = t[1] * np.uint8(10) + t[2], t[4] * np.uint8(10) + t[5]
    offset = ((tail[0] == ord("+")) | (tail[0] == ord("-"))) & (tail[3] == ord(":")) & (np.maximum.reduce(t[[1, 2, 4, 5]]) < 10)
    fraction = lengths - np.where(tail[5] == ord("Z"), 20, np.where(offset, 25, 19))  # "." and its digits
    hour, minute, second = (d[at] * np.uint8(10) + d[at + 1] for at in (11, 14, 17))
    clock = (lengths >= 19) & ((c[10] == ord(" ")) | (c[10] == ord("T"))) & (c[13] == ord(":")) & (c[16] == ord(":"))
    clock &= (np.maximum.reduce(d[[11, 12, 14, 15, 17, 18]]) < 10) & (hour <= 23) & (minute <= 59) & (second <= 59)
    digits3, digits6 = np.maximum.reduce(d[20:23]) < 10, np.maximum.reduce(d[20:26]) < 10
    clock &= (fraction == 0) | ((c[19] == ord(".")) & (((fraction == 4) & digits3) | ((fraction == 7) & digits6)))
    clock &= ~offset | ((zone_hour <= 23) & (zone_minute <= 59))
    year = ((d[0].astype(np.int32) * 10 + d[1]) * 10 + d[2]) * 10 + d[3]
    month, day = d[5] * np.uint8(10) + d[6], d[8] * np.uint8(10) + d[9]
    leap = (year & 3 == 0) & ((year % 100 != 0) | (year & 15 == 0))
    ok = ((lengths == 10) | clock) & (c[4] == ord("-")) & (c[7] == ord("-"))
    ok &= np.maximum.reduce(d[[0, 1, 2, 3, 5, 6, 8, 9]]) < 10
    ok &= (day >= 1) & (day <= _MONTH_DAYS[month] + ((month == 2) & leap))  # no month 13, no 30 February
    march_year = year - (month <= 2)  # years from 1 March: 0000-03-01 is day -719468 from 1970-01-01
    century = march_year // 100
    days = march_year * 365 + (march_year >> 2) - century + (century >> 2) + _MARCH_DAY[month] + day - 719469
    zone = np.where(offset, (zone_hour.astype(np.int32) * 60 + zone_minute) * np.where(tail[0] == ord("-"), -1, 1), 0)
    minutes = hour.astype(np.int32) * 60 + minute - zone
    seconds = days.astype(np.int64) * 86400 + np.where(clock, minutes * 60 + second, 0)
    ok &= (seconds >= _FIRST_SECOND) & (seconds < _END_SECOND)
    stamps = seconds.view("datetime64[s]")
    stamps[lengths == 0] = np.datetime64("NaT")
    return stamps, ok if required else ok | (lengths == 0)


def _span_chars(buf: np.ndarray, start: np.ndarray, end: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the spans under ok that are read, and their bytes zero-filled to a
    multiple of 8. A span longer than _TEXT_BYTES or holding a NUL is not read: it leaves ok."""
    rows = np.flatnonzero(ok)
    lengths = end[rows] - start[rows]
    width = -(-int(np.clip(lengths.max(initial=1), 1, _TEXT_BYTES)) // 8) * 8
    chars = _windows(buf, start[rows], width)
    kept = np.minimum(lengths, width)
    keep = _windows(_KEEP, _TEXT_BYTES - kept, width)
    chars &= keep  # zero past the span
    read = lengths <= _TEXT_BYTES
    if np.count_nonzero(chars) < kept.sum():  # a span holds a NUL
        read &= ~_nonzero_rows(((chars == 0) & (keep != 0)).view(np.uint64))
    ok[rows[~read]] = False
    return rows[read], chars[read]


def _text_codes(buf: np.ndarray, start: np.ndarray, end: np.ndarray, ok: np.ndarray, code_of) -> np.ndarray:
    """code_of(text) of the spans under ok that _span_chars reads, called once
    per distinct text in first-seen order."""
    rows, chars = _span_chars(buf, start, end, ok)
    words = chars.view(np.uint64)  # equal texts, equal rows of words
    order = np.lexsort(words.T)  # stable: each text's first row leads its run
    ordered = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = _nonzero_rows(ordered[1:] ^ ordered[:-1])
    text_of = np.empty(len(order), dtype=np.int64)
    text_of[order] = np.cumsum(new) - 1
    firsts = order[new]
    seen = np.argsort(firsts)
    table = np.empty(len(firsts), dtype=np.int32)
    table[seen] = [code_of(text) for text in chars[firsts[seen]].view(f"S{chars.shape[1]}").ravel().tolist()]
    codes = np.zeros(len(ok), dtype=np.int32)
    codes[rows] = table[text_of]
    return codes


def _spans(texts: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts as one UTF-8 buffer ending in _PAD, and each text's (start, end) in it."""
    joined = "".join(texts)
    if joined.isascii():  # one byte per character: encode once
        data, lengths = joined.encode("ascii"), np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    else:
        encoded = [text.encode("utf-8", "surrogatepass") for text in texts]
        data, lengths = b"".join(encoded), np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    end = np.cumsum(lengths)
    return np.frombuffer(data + _PAD, dtype=np.uint8), end - lengths, end


def _csv_rows(reader: Iterator) -> Iterator:
    """The reader's rows; a row it cannot read (say, a field longer than
    csv.field_size_limit()) comes as its csv.Error, and reading goes on."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            row = exc
        yield row


def _as_dict(header: list[str], row: list[str]) -> dict:
    """The row as csv.DictReader gives it: short rows padded with None, extra fields under None."""
    record: dict = dict(zip(header, row))
    if len(row) > len(header):
        record[None] = row[len(header):]
    for name in header[len(row):]:
        record[name] = None
    return record


def _not_utf8(stream: IO[str], default: str, rows: int, exc: UnicodeDecodeError) -> FormatError:
    """The error for input that is not UTF-8, naming the file and the rows read before it."""
    name = getattr(stream, "name", None) or default
    byte = exc.object[exc.start : exc.start + 1].hex()
    return FormatError(f"{name}: invalid UTF-8 after row {rows} (byte 0x{byte}: {exc.reason})")


# what reading a truncated or corrupt .gz stream raises
_GZIP_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error)


def _unreadable(stream: IO[str], default: str, rows: int, exc: Exception) -> FormatError:
    """The error for input that is not UTF-8 (_not_utf8) or not whole gzip
    data, naming the file and the rows read before it."""
    if isinstance(exc, UnicodeDecodeError):
        return _not_utf8(stream, default, rows, exc)
    name = getattr(stream, "name", None) or default
    return FormatError(f"{name}: unreadable gzip data after row {rows} ({exc})")


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    """The parts end to end. The first part grows in place (a realloc, which
    moves no rows where the allocator can remap them) by each next one, and
    each part leaves the list once copied, so the parts and the result never
    both hold all of the data."""
    parts.reverse()
    column = np.array(parts.pop() if parts else (), dtype=dtype)
    while parts:
        part = parts.pop()
        at = len(column)
        column.resize(at + len(part), refcheck=False)
        column[at:] = part
    return column


def _compact(column: np.ndarray, kept: np.ndarray) -> None:
    """Make column column[kept] in place, for ascending positions kept: kept[i] >= i,
    so each chunk reads only rows that no earlier chunk wrote."""
    for at in range(0, len(kept), _CHUNK_ROWS):
        rows = kept[at : at + _CHUNK_ROWS]
        column[at : at + len(rows)] = column[rows]
    column.resize(len(kept), refcheck=False)


def _fields(line: str) -> Union[list[str], csv.Error]:
    """The fields of a line free of quotes, CR and NUL as csv.reader reads them,
    or as _csv_rows gives a row it cannot read."""
    fields, limit = line.split(","), csv.field_size_limit()
    if len(line) > limit and max(map(len, fields)) > limit:
        return csv.Error(f"field larger than field limit ({limit})")  # as csv.reader says it
    return fields


def _block_chunk(buf: np.ndarray, size: int, width: int) -> tuple:
    """The rows of the whole lines in buf[:size], free of quotes, CR and NUL,
    which _PAD's zero bytes follow in buf: numpy finds the line ends and commas,
    and the rows of `width` fields are read as spans."""
    mark = buf[:size] == ord(",")  # one mask at a time: it is as large as the text
    mark |= buf[:size] == ord("\n")
    marks = np.append(np.flatnonzero(mark), size)  # the end ends a line
    line_end = np.flatnonzero(buf[marks] != ord(","))  # at a "\n", or at the end (the pad's 0)
    first = np.concatenate(([0], line_end[:-1] + 1))  # each line's first mark
    ends = marks[line_end]
    starts = np.concatenate(([0], ends[:-1] + 1))
    filled = ends > starts  # blank lines are skipped and not counted, as csv.DictReader does
    starts, ends, first, line_end = starts[filled], ends[filled], first[filled], line_end[filled]
    regular = (line_end - first == width - 1) & (ends - starts <= csv.field_size_limit())  # width - 1 commas
    every, last, nothing = regular.all(), len(marks) - 1, np.zeros(len(starts), dtype=np.int64)

    def span(at: Optional[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if at is None:
            return buf, nothing, nothing
        start = starts if at == 0 else marks[np.minimum(first + at - 1, last)] + 1
        end = marks[np.minimum(first + at, last)]
        return (buf, start, end) if every else (buf, np.where(regular, start, 0), np.where(regular, end, 0))

    def row(k: int) -> Union[list[str], csv.Error]:
        return _fields(buf[starts[k] : ends[k]].tobytes().decode("utf-8", "surrogatepass"))

    return len(starts), span, regular, row


def _rows_chunk(rows: list, width: int) -> tuple:
    """The rows from _csv_rows; a csv.Error stands for a row csv.reader could not read."""
    regular = np.array([isinstance(r, list) and len(r) == width for r in rows], dtype=bool)
    blank = ("",) * width  # stands in for the fields of an odd row
    table = list(zip(*(r if fits else blank for r, fits in zip(rows, regular.tolist()))))

    def span(at: Optional[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _spans(("",) * len(rows) if at is None else table[at])

    return len(rows), span, regular, rows.__getitem__


def _blocks(stream: IO[str]) -> Iterator[tuple[np.ndarray, int, bool]]:
    """The stream's bytes in blocks of whole lines, as (buf, size, plain): buf[:size]
    holds the lines and buf ends in _PAD, and plain says they hold no quote, CR or
    NUL, so a split on "\n" and "," reads them as csv.reader does. buf is a view of
    one buffer that every block reuses: it holds the line the last block carried,
    a read of up to _BLOCK_CHARS and _PAD. It is sized by the first read, and
    grows only for a larger read or a longer line. So a block is valid until
    the next is asked for. Each read is cut after its last line
    end, and the rest is carried to the next block.

    An open_text stream is read as bytes from its binary layer (readinto1, or
    read1 where buf has no room yet: a plain file's, or _GzipFile's, which
    keeps the rule for data before a fault),
    unless its text layer has read (_Text.unread). Any other stream is read as
    text, _BLOCK_CHARS characters at a time, and encoded. Every CSV input is
    read through here, so these rules hold for each:
    - A UTF-8 byte-order mark that starts the stream is dropped, as utf-8-sig
      reads it: the first block never holds it.
    - An empty read is read once more, which gives nothing at the end of the data
      and raises a fault of open_text's gzip data; so a line the fault cut is never given.
    - A block whose every CR starts a CRLF has its CRLFs read as LF, as csv.reader
      reads them, until the first quote: from there a CRLF may be a quoted field's text.
    - A byte that is not UTF-8 ends its block before its line, and its
      UnicodeDecodeError is raised once the lines before it are taken. Only a
      block that is not ASCII (it holds a byte over 0x7F) is decoded to find
      it. Streams that read such a byte as text raise the error themselves,
      except those that read it as a lone surrogate (errors="surrogateescape"),
      which are checked as open_text's are."""
    binary = stream.unread() if isinstance(stream, _Text) else None
    checked = binary is not None or getattr(stream, "errors", None) == "surrogateescape"
    errors = "surrogateescape" if checked else "surrogatepass"  # either gives back the bytes read
    buf, kept, quoted, first = bytearray(), 0, False, True  # buf[:kept] is the line carried to the next block

    def read() -> int:
        """Read up to _BLOCK_CHARS into buf after buf[:kept], leaving room for _PAD;
        the bytes read. A read buf has no room for is taken as bytes first and
        buf grown to fit it, so a small input gets a buffer of its size."""
        nonlocal buf
        if binary is not None and kept + _BLOCK_CHARS + len(_PAD) <= len(buf):
            into = memoryview(buf)[kept : kept + _BLOCK_CHARS]
            got = 0
            while got < len(into) and (n := binary.readinto1(into[got:])):
                got += n
            return got
        if binary is None:
            data = stream.read(_BLOCK_CHARS).encode("utf-8", errors)
        else:
            parts, got = [], 0
            while got < _BLOCK_CHARS and (part := binary.read1(_BLOCK_CHARS - got)):
                parts.append(part)
                got += len(part)
            data = b"".join(parts)
        need = kept + len(data) + len(_PAD)
        if need > len(buf):
            grown = bytearray(max(need + _LINE_ROOM, 2 * len(buf)))
            grown[:kept] = memoryview(buf)[:kept]
            buf = grown
        buf[kept : kept + len(data)] = data
        return len(data)

    while True:
        got = read() or read()
        size = kept + got
        cut = buf.rfind(b"\n", kept, size) + 1 if got else size  # at the end, the block is the last line
        if got and not cut:  # no line end read: the line goes on
            kept = size
            continue
        if first and buf.startswith(codecs.BOM_UTF8, 0, size):  # the first line is whole, and so is a mark
            buf[: size - 3] = buf[3:size]
            size, cut = size - 3, cut - 3
        first = False
        view, error = np.frombuffer(buf, dtype=np.uint8), None
        if checked and view[:cut].max(initial=0) >= 0x80:
            try:
                str(view[:cut], "utf-8")
            except UnicodeDecodeError as exc:
                error = exc
        carried = bytes(memoryview(buf)[cut:size])
        if error:
            cut = buf.rfind(b"\n", 0, error.start) + 1
        quote = buf.find(b'"', 0, cut) >= 0
        quoted = quoted or quote
        if not quoted and buf.find(b"\r", 0, cut) >= 0 and buf.count(b"\r", 0, cut) == buf.count(b"\r\n", 0, cut):
            lines = bytes(memoryview(buf)[:cut]).replace(b"\r\n", b"\n")
            cut = len(lines)
            buf[:cut] = lines
        view[cut : cut + len(_PAD)] = 0
        if cut:
            plain = not quote and buf.find(b"\r", 0, cut) < 0 and buf.find(b"\0", 0, cut) < 0
            yield view[: cut + len(_PAD)], cut, plain
        if error:
            raise error
        if not got:
            return
        buf[: len(carried)] = carried
        kept = len(carried)


def _text(buf: np.ndarray, size: int) -> str:
    """The text of buf[:size], bytes from _blocks."""
    return str(buf[:size], "utf-8", "surrogatepass")


def _lines(blocks: Iterable[tuple[np.ndarray, int, bool]]) -> Iterator[str]:
    """The lines of the blocks as a newline="" stream gives them; csv.reader reads only these."""
    for buf, size, _ in blocks:
        yield from io.StringIO(_text(buf, size), newline="")


def _read_csv(
    stream: IO[str], name: str, kind: type[_Rows], stats: ParseStats, strict: bool, header: Optional[list[str]] = None
) -> _Rows:
    """Read a CSV stream into kind(header, stats, strict), a _Rows, whose
    add(n, span, regular, row) takes the rows chunk by chunk. Returns that
    reader. The header is the stream's first row, unless it is given: the
    column names of a stream with no header row, whose rows may then be none.

    span(at) gives the n rows' fields in column at (None: an absent column) as
    (buf, start, end): spans of a uint8 buffer that ends in _PAD, empty where a
    row is not regular, that is, not of the header's width. row(k) gives row k
    as csv.reader reads it, or the csv.Error it raises. Blank lines are skipped
    and not counted, as csv.DictReader does. A chunk is an argument only, so
    its buffers are gone before the next block is read.

    Each block of _blocks is one chunk that numpy splits into rows and fields.
    The first block that is not plain (it holds a quote, NUL or CR) hands itself
    and the rest of the blocks to csv.reader, in chunks of _CHUNK_ROWS rows. A
    fault _blocks raises is a FormatError naming the stream (else name) and the
    stats.rows counted before it. Any other FormatError (a header kind refuses,
    no header, a row strict refuses) names the stream, when it has a name.
    """
    reader = None if header is None else kind(header, stats, strict)
    blocks = _blocks(stream)
    try:
        for block in blocks:
            buf, size, plain = block
            if not plain:
                rows = _csv_rows(csv.reader(_lines(itertools.chain([block], blocks))))
                del block, buf
                if reader is None:
                    reader = kind(next(rows, []), stats, strict)  # the block holds text, so a first row
                _add_rows(reader, rows)
                return reader
            if reader is None:
                ends = buf[:size] == ord("\n")
                line = int(ends.argmax()) if ends.any() else size
                reader = kind(_fields(_text(buf, line)), stats, strict)
                buf, size = buf[line + 1 :], max(size - line - 1, 0)
            if size:
                reader.add(*_block_chunk(buf, size, len(reader.header)))
        if reader is None:
            raise FormatError(f"empty {kind.what} input")
    except (UnicodeDecodeError, *_GZIP_ERRORS) as exc:
        raise _unreadable(stream, name, stats.rows, exc) from None
    except FormatError as exc:
        if not getattr(stream, "name", None):
            raise
        raise FormatError(f"{stream.name}: {exc}") from None
    return reader


def _add_rows(reader: _Rows, rows: Iterator) -> None:
    """Give reader.add the rows of _csv_rows in chunks of _CHUNK_ROWS, blank
    rows dropped. A fault raised where a row is read is raised once the rows
    before it are given."""
    while True:
        chunk, error = [], None
        try:
            for row in itertools.islice(rows, _CHUNK_ROWS):
                chunk.append(row)
        except (UnicodeDecodeError, *_GZIP_ERRORS) as exc:
            error = exc
        if filled := [row for row in chunk if row]:
            reader.add(*_rows_chunk(filled, len(reader.header)))
        if error:
            raise error
        if not chunk:
            return


class _Rows:
    """What reads the rows of a CSV stream for _read_csv: built from the header
    row, then given each chunk by add(n, span, regular, row), which counts the
    chunk's rows and keeps the well-formed ones' columns (keep); finish builds
    the table. A subclass names its input for messages in `what` and its
    KeyedTable in `table`."""

    table: type[KeyedTable]

    def __init__(self, header: Union[list[str], csv.Error], stats: ParseStats, strict: bool):
        if isinstance(header, csv.Error):
            raise FormatError(f"unreadable {self.what} header: {header}")
        self.header, self.stats, self.strict = header, stats, strict
        self.position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        self.parts: dict[str, list[np.ndarray]] = {name: [] for name in self.table._COLUMNS}

    def fallback(self, rejected: np.ndarray, row, parse) -> Iterator:
        """(k, parse(row k as csv.DictReader gives it)) for each rejected row k
        of a chunk. A row that parse or csv cannot read is malformed: a
        FormatError naming its line when strict, else counted and skipped."""
        for k in np.flatnonzero(rejected).tolist():
            fields = row(k)
            try:
                if isinstance(fields, csv.Error):
                    raise fields
                value = parse(_as_dict(self.header, fields))
            except (ValueError, KeyError, TypeError, AttributeError, csv.Error) as exc:
                if self.strict:
                    raise FormatError(f"malformed {self.what} row at line {self.stats.rows + k + 2}: {exc}") from exc
                self.stats.malformed += 1
                continue
            yield k, value

    def keep(self, rows: int, mask: np.ndarray, **columns: np.ndarray) -> None:
        """Count a chunk of rows in stats and keep those under mask, one array
        per column of the table."""
        self.stats.rows += rows
        self.stats.parsed += int(np.count_nonzero(mask))
        for name, column in columns.items():
            self.parts[name].append(column[mask])

    def finish(self, *values, **fields) -> KeyedTable:
        """The table of the kept rows, with the given tables and fields. The
        parts are joined one by one and repeated keys dropped in place
        (_last_wins, counted in stats.duplicates), so the step holds, besides
        the columns, index arrays only, each dropped once used."""
        columns = {name: _joined(self.parts.pop(name), dtype) for name, dtype in self.table._COLUMNS.items()}
        sha_order, self.stats.duplicates = _last_wins(columns)
        return self.table._from_columns(columns, *values, sha_order=sha_order, **fields)


def _last_wins(columns: dict[str, np.ndarray]) -> tuple[np.ndarray, int]:
    """Keep each sha256 once, in place: at its first row's place, with its last
    row's values. The one rule for a repeated key in every CSV input. Returns
    the sha_order of the kept rows and the number of rows dropped."""
    rows = len(columns["sha256"])
    first, last = _key_runs(columns["sha256"])
    dropped = rows - len(first)
    if not dropped:  # every row is kept, and first sorts them by hash
        return first.astype(np.int64), 0
    moved = np.flatnonzero(first != last)
    into, source = first[moved], last[moved]
    del moved, last
    kept = np.sort(first)
    at = np.empty(rows, dtype=np.int64)  # each kept row's place among them
    at[kept] = np.arange(len(kept))
    sha_order = at[first]
    del first, at
    for column in columns.values():
        column[into] = column[source]
        _compact(column, kept)
    return sha_order, dropped


class _Columns(_Rows):
    """The well-formed rows of a metadata CSV as column parts, plus the value
    tables. A value's code follows where it first shows up: chunk by chunk,
    the rows read in bulk first, then the rows _parse_row reads."""

    what = "metadata"
    table = Population

    def __init__(self, header: Union[list[str], csv.Error], stats: ParseStats, strict: bool):
        super().__init__(header, stats, strict)
        missing = [c for c in REQUIRED_COLUMNS if c not in self.position]
        if missing:
            raise FormatError(f"metadata input missing required columns: {', '.join(missing)}")
        self.market_sets: dict[frozenset[str], int] = {}
        self.families: dict[str, int] = {}
        self._market_text: dict[bytes, int] = {}
        self._family_text: dict[bytes, int] = {}

    def _market_code(self, raw: bytes) -> int:
        if raw not in self._market_text:
            tags = _market_tags(raw.decode("utf-8", "surrogatepass"))
            self._market_text[raw] = self.market_sets.setdefault(tags, len(self.market_sets))
        return self._market_text[raw]

    def _family_code(self, raw: bytes) -> int:
        if raw not in self._family_text:
            name = _family_name(raw.decode("utf-8", "surrogatepass"))
            self._family_text[raw] = self.families.setdefault(name, len(self.families)) if name else -1
        return self._family_text[raw]

    def add(self, n: int, span, regular: np.ndarray, row) -> None:
        """Parse a chunk of _read_csv: the regular rows' spans with the field
        kernels, and every row they reject with _parse_row."""
        at = self.position
        sha, ok = _hashes(*span(at["sha256"]))
        dex, dex_ok = _stamps(*span(at["dex_date"]), required=True)
        vt, vt_ok = _naturals(*span(at["vt_detection"]), required=True)
        crawl, crawl_ok = _stamps(*span(at.get("added")), required=False)
        scan, scan_ok = _stamps(*span(at.get("vt_scan_date")), required=False)
        size, size_ok = _naturals(*span(at.get("apk_size")), required=False)
        ok &= regular & dex_ok & vt_ok & crawl_ok & scan_ok & size_ok
        markets = _text_codes(*span(at.get("markets")), ok, self._market_code)
        family = _text_codes(*span(at["family"]), ok, self._family_code) if "family" in at else np.full(n, -1, np.int32)
        valid = ok.copy()
        for k, rec in self.fallback(~ok, row, _parse_row):
            valid[k] = True
            sha[k], dex[k], vt[k], size[k] = rec.sha256, rec.dex_date, rec.vt_detection, rec.apk_size
            crawl[k] = np.datetime64("NaT") if rec.crawl_date is None else rec.crawl_date
            scan[k] = np.datetime64("NaT") if rec.vt_scan_date is None else rec.vt_scan_date
            markets[k] = self.market_sets.setdefault(rec.markets, len(self.market_sets))
            family[k] = -1 if rec.family is None else self.families.setdefault(rec.family, len(self.families))
        self.keep(n, valid, sha256=sha, dex_date=dex, crawl_date=crawl, vt_scan_date=scan, vt_detection=vt,
                  apk_size=size, markets=markets, family=family)


def parse_metadata(stream: IO[str], strict: bool = False, provenance: str = "") -> ParseResult:
    """Parse an AndroZoo-shaped metadata CSV into a population.

    Duplicate hashes are last-wins (counted); malformed rows are counted and
    skipped unless strict, in which case they raise FormatError. The rows come
    from _read_csv: the field kernels parse canonical fields, and any other
    row goes through _parse_row, the one definition of a well-formed row.
    """
    stats = ParseStats()
    reader = _read_csv(stream, provenance or "metadata input", _Columns, stats, strict)
    return ParseResult(reader.finish(reader.market_sets, reader.families, provenance), stats)


def _csv_fields(texts: list[str], end: str = "") -> np.ndarray:
    """Each text as csv.writer writes it in a row (quoted when it must be), plus end."""
    fields = []
    for text in texts:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, ""])
        fields.append(buffer.getvalue()[:-2] + end)  # drop the empty field's "," and the "\n"
    return np.array(fields or [end], dtype=object)


def write_metadata_csv(pop: Population, stream: IO[str]) -> None:
    """Serialize a population in the same CSV schema parse_metadata consumes.

    The bytes are csv.writer's: market and family texts are quoted once per
    table entry, and rows are written a chunk at a time.
    """
    csv.writer(stream, lineterminator="\n").writerow(CANONICAL_COLUMNS)
    markets = _csv_fields(["|".join(sorted(tags)) for tags in pop.market_sets])
    families = _csv_fields([*pop.families, ""], end="\n")  # code -1 is the last entry

    def lines(rows: slice) -> Iterator[str]:
        return map(",".join, zip(
            _key_texts(pop.sha256[rows]),
            format_timestamps(pop.dex_date[rows]),
            pop.vt_detection[rows].astype("U20").tolist(),
            markets[pop.markets[rows]].tolist(),
            format_timestamps(pop.crawl_date[rows]),
            format_timestamps(pop.vt_scan_date[rows]),
            pop.apk_size[rows].astype("U20").tolist(),
            families[pop.family[rows]].tolist(),
        ))

    _write_chunks(stream, len(pop), lines)


def write_csv(path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _replacing(Path(path)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: Union[dict, list], n: int = 0, render=None, **dumps) -> None:
    """Write json.dumps(payload, indent=2, **dumps) and a newline. With n rows,
    payload's last member (its last after sort_keys) is an empty list or object
    that is written holding the texts render gives for rows 0..n-1 (see
    _write_chunks), one per line; each text carries its own indent."""
    text = json.dumps(payload, indent=2, **dumps)
    with _replacing(path) as fh:
        if not n:
            fh.write(text + "\n")
            return
        fh.write(text[: -len("]\n}")] + "\n")  # the text ends with "[]\n}" or "{}\n}"
        _write_chunks(fh, n, render, sep=",\n")
        fh.write(f"\n  {text[-3]}\n}}\n")


def _write_chunks(stream: IO[str], n: int, render, sep: str = "") -> None:
    """Write the texts of rows 0..n-1 joined by sep, _WRITE_ROWS rows at a
    time: render(rows) gives the texts of the rows in a slice."""
    for at in range(0, n, _WRITE_ROWS):
        stream.write((sep if at else "") + sep.join(render(slice(at, at + _WRITE_ROWS))))


@contextlib.contextmanager
def _replacing(path: Path, mode: str = "w") -> Iterator[IO]:
    """Open path's .part file for writing, and move it onto path when the
    block ends. On an error the .part file is removed, so path keeps what it
    held and no reader sees a truncated output. Text is UTF-8 with no newline
    translation, whatever the locale. Every output file is written through here."""
    part = path.with_name(path.name + ".part")
    text = "b" not in mode
    try:
        with open(part, mode, encoding="utf-8" if text else None, newline="" if text else None) as fh:
            yield fh
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


# population.npz beside population.csv.gz holds what ingest parsed, so later
# commands load columns instead of parsing the CSV again. The CSV stays the
# interchange format; the sidecar is used only while it records the digest of
# the CSV's bytes.
SIDECAR = "population.npz"
_SIDECAR_SCHEMA = 1
# the arrays the content digest covers, in its order
_SIDECAR_CONTENT = (*COLUMNS, "sha_order", "market_sets", "families")


def _file_sha256(path: Union[str, Path]) -> str:
    import hashlib  # here, not at the top: only sidecar I/O maps OpenSSL's libcrypto

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _content_digest(arrays: dict) -> str:
    """SHA-256 over the name, dtype, shape and bytes of each content array, in order."""
    import hashlib  # as in _file_sha256

    digest = hashlib.sha256()
    for name in _SIDECAR_CONTENT:
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.view(np.uint8))
    return digest.hexdigest()


def _write_sidecar(pop: Population, path: Path, csv_path: Path) -> None:
    """Write the population sidecar of pop, which csv_path holds as CSV.

    A population whose market or family texts would read back from the CSV
    otherwise (a family with edge spaces, say) or would not survive a
    fixed-width unicode array gets no sidecar, so loading never differs from
    parsing the CSV; a sidecar an earlier ingest left at path is removed.
    """
    markets = ["|".join(sorted(tags)) for tags in pop.market_sets]
    tables = {"market_sets": np.array(markets, dtype=str), "families": np.array(pop.families, dtype=str)}
    if (
        [_market_tags(text) for text in markets] != list(pop.market_sets)
        or any(_family_name(name) != name for name in pop.families)
        or tables["market_sets"].tolist() != markets
        or tables["families"].tolist() != list(pop.families)
    ):
        path.unlink(missing_ok=True)
        return
    arrays = {**pop.columns(), "sha_order": pop.sha_order, **tables}
    arrays["content_sha256"] = np.array(_content_digest(arrays))
    arrays["csv_sha256"] = np.array(_file_sha256(csv_path))
    arrays["schema"] = np.array(_SIDECAR_SCHEMA, dtype=np.int64)
    with _replacing(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_sidecar(
    path: Union[str, Path], csv_sha256: Optional[str] = None, provenance: str = ""
) -> Optional[Population]:
    """The population a sidecar holds. When csv_sha256 is given and the sidecar
    records another CSV digest, it is stale: None. Any other fault is a
    FormatError naming the file and the array."""
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise FormatError(f"{path}: not a readable population sidecar: not an .npz archive")
            with npz:
                return _sidecar_population(npz, str(path), csv_sha256, provenance)
    except FormatError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a readable population sidecar: {exc}") from None


def _sidecar_population(npz, path: str, csv_sha256: Optional[str], provenance: str) -> Optional[Population]:
    def read(name: str, dtype, shape: Optional[tuple] = None) -> np.ndarray:
        if name not in npz.files:
            raise FormatError(f"{path}: array {name!r} is missing")
        try:
            array = npz[name]
        except ValueError as exc:  # a pickled array, or a broken header
            raise FormatError(f"{path}: array {name!r}: {exc}") from None
        got = array.dtype.kind if isinstance(dtype, str) else array.dtype
        if got != dtype:
            raise FormatError(f"{path}: array {name!r} has dtype {array.dtype}, expected {dtype}")
        if shape is not None and array.shape != shape:
            raise FormatError(f"{path}: array {name!r} has shape {array.shape}, expected {shape}")
        return array

    schema = int(read("schema", np.dtype(np.int64), ()))
    if schema != _SIDECAR_SCHEMA:
        raise FormatError(f"{path}: array 'schema' is {schema}, expected {_SIDECAR_SCHEMA}")
    if csv_sha256 is not None and str(read("csv_sha256", np.dtype(HEX_DTYPE), ())) != csv_sha256:
        return None
    n = len(read("sha256", np.dtype(KEY_DTYPE)))
    arrays = {name: read(name, np.dtype(dtype), (n,)) for name, dtype in COLUMNS.items()}
    arrays["sha_order"] = read("sha_order", np.dtype(np.int64), (n,))
    for name in ("market_sets", "families"):
        arrays[name] = read(name, "U")
        if arrays[name].ndim != 1:
            raise FormatError(f"{path}: array {name!r} has shape {arrays[name].shape}, expected one dimension")
    if str(read("content_sha256", np.dtype(HEX_DTYPE), ())) != _content_digest(arrays):
        raise FormatError(f"{path}: array 'content_sha256' does not match the content digest")
    order = arrays["sha_order"]
    in_range = {
        "markets": (0, len(arrays["market_sets"])),
        "family": (-1, len(arrays["families"])),
        "sha_order": (0, n),
    }
    for name, (low, high) in in_range.items():
        if n and not low <= arrays[name].min() <= arrays[name].max() < high:
            raise FormatError(f"{path}: array {name!r} holds a value outside {low}..{high - 1}")
    if not _is_key_order(arrays["sha256"], order):
        raise FormatError(f"{path}: array 'sha_order' does not sort 'sha256' into unique ascending hashes")
    return Population.from_columns(
        {name: arrays[name] for name in COLUMNS},
        tuple(_market_tags(text) for text in arrays["market_sets"].tolist()),
        tuple(arrays["families"].tolist()),
        provenance,
        sha_order=order,
    )


def load_population(path: Union[str, os.PathLike]) -> Population:
    """The population of a .npz sidecar, or of a metadata CSV: read from the
    population.npz beside it when that records the digest of the CSV's bytes,
    and parsed otherwise (a stale sidecar is ignored)."""
    path = os.fspath(path)
    if path.endswith(".npz"):
        return _read_sidecar(path, provenance=path)
    sidecar = Path(path).with_name(SIDECAR)
    if sidecar.is_file():
        pop = _read_sidecar(sidecar, _file_sha256(path), provenance=path)
        if pop is not None:
            return pop
    with open_text(path) as fh:
        return parse_metadata(fh, provenance=path).population


def write_population(pop: Population, path: Path, sidecar: bool = False) -> None:
    """Write pop's CSV gzipped, a chunk at a time, through path's .part file;
    with sidecar, then the population.npz beside it (_write_sidecar)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fixed mtime keeps the bytes the same across runs. The chunks' UTF-8
    # bytes go straight to GzipFile.write, and nothing flushes the compressor
    # before close: a sync flush (as TextIOWrapper's flush, detach or close
    # sends) would change the bytes, and how the input is split does not
    with _replacing(path, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
        write_metadata_csv(pop, codecs.getwriter("utf-8")(gz))
    if sidecar:
        _write_sidecar(pop, path.with_name(SIDECAR), path)


@dataclass
class FamilyJoinStats:
    mapped: int = 0
    matched: int = 0
    unmatched: int = 0


class Families(KeyedTable, Mapping):
    """A read-only sha256 -> family mapping held as columns in mapping order:
    ``sha256`` (KEY_DTYPE) and ``name``, int32 codes into the ``names``
    table (-1 where the value is None). It reads as a dict of the same items.

    A key KEY_DTYPE cannot hold (not 64 ASCII characters, or ending in NUL)
    is held as a stand-in: 0xFF and its place in the ``odd`` table. Such a
    key matches no record, whose hash is 64 hex digits.
    """

    _COLUMNS = {"sha256": KEY_DTYPE, "name": np.int32}
    _TABLES = ("names", "odd")
    _WHAT = "family mapping"

    @staticmethod
    def _key(sha: str, odd: dict[str, int]) -> bytes:
        """The column value of key sha; a new odd key is added to odd."""
        if len(sha) == 64 and sha.isascii() and not sha.endswith("\0"):
            return sha.encode()
        return b"\xff%d" % odd.setdefault(sha, len(odd))

    @classmethod
    def of(cls, mapping: Mapping) -> "Families":
        """The mapping as Families; a Families is returned as it is."""
        if isinstance(mapping, Families):
            return mapping
        names: dict[str, int] = {}
        odd: dict[str, int] = {}
        columns = {
            "sha256": np.array([cls._key(sha, odd) for sha in mapping], dtype=KEY_DTYPE),
            "name": [-1 if name is None else names.setdefault(name, len(names)) for name in mapping.values()],
        }
        return cls._from_columns(columns, names, odd)

    def __iter__(self) -> Iterator[str]:
        if not self.odd:
            return iter(_key_texts(self.sha256))
        return (self.odd[int(key[1:])] if key[:1] == b"\xff" else key.decode() for key in self.sha256.tolist())

    def __getitem__(self, sha: str) -> Optional[str]:
        at = -1
        if isinstance(sha, str):  # a key not in odd gets a stand-in no row holds
            key = self._key(sha, {text: i for i, text in enumerate(self.odd)})
            at = int(self.positions(np.array([key], dtype=KEY_DTYPE))[0])
        if at < 0:
            raise KeyError(sha)
        code = int(self.name[at])
        return None if code < 0 else self.names[code]


class _FamilyRows(_Rows):
    """The rows of a family CSV as key and name-code columns; a row whose name
    is blank maps nothing and is not kept."""

    what = "family"
    table = Families

    def __init__(self, header: list[str], stats: ParseStats, strict: bool):
        super().__init__(header, stats, strict)
        self.names: dict[str, int] = {}
        self.odd: dict[str, int] = {}

    def _code(self, name: Optional[str]) -> int:
        return -1 if name is None else self.names.setdefault(name, len(self.names))

    def add(self, n: int, span, regular: np.ndarray, row) -> None:
        """Read a chunk as _Columns.add does: the hash and name kernels, then
        _family_row for every row they reject. A header row is neither kept nor counted."""
        sha, ok = _hashes(*span(0))
        ok &= regular
        name = _text_codes(*span(1), ok, lambda raw: self._code(_family_name(raw.decode("utf-8", "surrogatepass"))))
        headers = 0
        for k, fields in self.fallback(~ok, row, _family_row):
            if fields is None:
                headers += 1
                continue
            ok[k] = True
            sha[k], name[k] = Families._key(fields[0], self.odd), self._code(fields[1])
        self.keep(n - headers, ok & (name >= 0), sha256=sha, name=name)


def _family_row(row: dict) -> Optional[tuple[str, Optional[str]]]:
    """The key and name of one family row as csv.DictReader gives it (a short
    row's name is None); None for a header row."""
    if row == {"sha256": "sha256", "family": "family"}:
        return None
    sha = row["sha256"].strip().lower()
    if len(sha) != 64:
        raise ValueError(f"bad sha256 {sha!r}")
    return sha, _family_name(row["family"])


def parse_families(stream: IO[str]) -> tuple[Families, int]:
    """Parse a two-column sha256,family file; returns (mapping, malformed count).

    A sha256,family row anywhere is a header and is skipped. A key is stripped
    and lower-cased and must then be 64 characters, or its row is malformed;
    so is a row csv cannot read (say, a field over csv.field_size_limit()) and
    one with fewer than two fields. A blank name maps nothing. A repeated key
    keeps its last name, at the place of its first row (blank names aside).
    The file is read by _read_csv, as parse_metadata's is, with the column
    names given: its first line is a row, and it may hold none.
    """
    stats = ParseStats()
    reader = _read_csv(stream, "family input", _FamilyRows, stats, False, ["sha256", "family"])
    return reader.finish(reader.names, reader.odd), stats.malformed


def join_families(pop: Population, mapping: Mapping) -> tuple[Population, FamilyJoinStats]:
    """Attach family labels to matching records; unmatched hashes are counted.

    mapping (sha256 -> name) is read as Families. A None name sets nothing,
    a blank one sets no family, and new names are coded in the order their
    first matched hash comes in mapping.
    """
    table = Families.of(mapping)
    rows = pop.positions(table.sha256)
    found = rows >= 0
    named = found & (table.name >= 0)
    codes = table.name[named]
    families = {name: i for i, name in enumerate(pop.families)}
    family_of = np.full(len(table.names), -1, dtype=np.int32)
    distinct, first = np.unique(codes, return_index=True)
    for code in distinct[np.argsort(first)].tolist():
        name = table.names[code]
        family_of[code] = families.setdefault(name, len(families)) if name.strip() else -1
    family = pop.family.copy()
    family[rows[named]] = family_of[codes]
    stats = FamilyJoinStats(mapped=len(table), matched=len(codes), unmatched=int(np.count_nonzero(~found)))
    columns = pop.columns() | {"family": family}
    joined = Population.from_columns(
        columns, pop.market_sets, tuple(families), pop.provenance, pop.snapshot_date, sha_order=pop.sha_order
    )
    return joined, stats


@dataclass(frozen=True)
class PredictionRow:
    sha256: str
    score: float
    predicted_label: Optional[int] = None


class PredictionSet(KeyedTable):
    """One classifier's predictions as columns in the order given (parsed
    ones in first-seen order): ``sha256``, ``score`` and the explicit
    ``label`` (-1 where absent), and the ``predicted_class`` they give at threshold.
    ``PredictionSet(name, rows)`` and ``rows`` are a row view of PredictionRow
    objects.
    """

    _COLUMNS = {"sha256": KEY_DTYPE, "score": np.float64, "label": np.int64}
    _FIELDS = ("name", "threshold")
    _WHAT = "prediction set"

    def __init__(self, name: str, rows: dict[str, PredictionRow], threshold: float = 0.5):
        columns = {
            "sha256": list(rows),
            "score": [row.score for row in rows.values()],
            "label": [-1 if row.predicted_label is None else row.predicted_label for row in rows.values()],
        }
        self._init(columns, name, threshold)

    @cached_property
    def predicted_class(self) -> np.ndarray:
        return np.where(self.label >= 0, self.label, self.score >= self.threshold)

    @cached_property
    def rows(self) -> dict[str, PredictionRow]:
        """The predictions by hash, in row order."""
        return {
            sha: PredictionRow(sha, score, None if label < 0 else label)
            for sha, score, label in zip(_key_texts(self.sha256), self.score.tolist(), self.label.tolist())
        }

    def predicted(self, sha: str) -> int:
        """The predicted class of a hash; KeyError unless the set predicts it (see KeyedTable.positions)."""
        at = int(self.positions([sha])[0])
        if at < 0:
            raise KeyError(sha)
        return int(self.predicted_class[at])


def parse_predictions(
    stream: IO[str], name: str = "predictions", threshold: float = 0.5, strict: bool = False
) -> tuple[PredictionSet, ParseStats]:
    """Parse a prediction CSV with header sha256,score[,label].

    The rows come from _read_csv, as parse_metadata's do: the hash, score and
    label kernels read the regular rows, and every row they reject goes
    through _prediction_row. A repeated hash keeps its last row's values at
    its first row's place.
    """
    stats = ParseStats()
    return _read_csv(stream, name, _Predictions, stats, strict).finish(name, threshold), stats


class _Predictions(_Rows):
    """The well-formed rows of a prediction CSV as parts of keys, scores and labels (-1: none)."""

    what = "prediction"
    table = PredictionSet

    def __init__(self, header: Union[list[str], csv.Error], stats: ParseStats, strict: bool):
        super().__init__(header, stats, strict)
        if "sha256" not in self.position or "score" not in self.position:
            raise FormatError("prediction input must have columns sha256,score[,label]")

    def add(self, n: int, span, regular: np.ndarray, row) -> None:
        """Parse a chunk of _read_csv, as _Columns.add does, with _prediction_row."""
        at = self.position
        sha, ok = _hashes(*span(at["sha256"]))
        buf, start, end = span(at.get("label"))
        digit = buf[start].astype(np.int64) - ord("0")  # "" is -1, "0" and "1" are 0 and 1, and the rest -2
        label = np.where(start == end, -1, np.where((end - start == 1) & (digit >= 0) & (digit <= 1), digit, -2))
        ok &= regular & (label > -2)
        rows, chars = _span_chars(*span(at["score"]), ok)
        texts = chars.view(f"S{chars.shape[1]}").ravel().tolist()
        score = np.zeros(n)
        try:  # float() of bytes reads no text that float() of str reads otherwise
            score[rows] = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
        except ValueError:  # a score float() cannot read: the chunk goes row by row
            ok[:] = False
        ok &= (label >= 0) | ((score >= 0.0) & (score <= 1.0))
        for k, (sha[k], score[k], predicted) in self.fallback(~ok, row, _prediction_row):
            ok[k], label[k] = True, -1 if predicted is None else predicted
        self.keep(n, ok, sha256=sha, score=score, label=label)


def _prediction_row(row: dict) -> tuple[str, float, Optional[int]]:
    """The hash, score and explicit label of one row as csv.DictReader gives it."""
    sha = (row.get("sha256") or "").strip().lower()
    if len(sha) != 64 or not sha.isascii() or "\0" in sha:
        raise ValueError(f"bad sha256 {sha!r}")
    score = float(row["score"])
    raw_label = (row.get("label") or "").strip()
    predicted = None
    if raw_label:
        predicted = int(raw_label)
        if predicted not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {predicted}")
    elif not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0,1] without a label column")
    return sha, score, predicted


def _aut_value(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # false for nan
        raise ValueError(f"AUT value {text!r} is not a number in [0, 1]")
    return value


def read_aut_table(path: str) -> list[tuple[str, list[float]]]:
    """The (name, AUT values) rows of an AUT-table CSV (classifier,aut1,aut2,...).
    A value that is not a number in [0, 1], a row without values or of another
    width than the first, a table without rows, and text that csv, UTF-8 or
    gzip cannot read are FormatErrors naming the file and the line."""
    rows: list[tuple[str, list[float]]] = []
    with open_text(path) as fh:
        reader = csv.reader(_lines(_blocks(fh)))
        try:
            for row in _csv_rows(reader):
                if isinstance(row, csv.Error):
                    raise row
                if not row or row[0] == "classifier":
                    continue
                values = [_aut_value(v) for v in row[1:]]
                if not values:
                    raise ValueError("no AUT values")
                if rows and len(values) != len(rows[0][1]):
                    raise ValueError(f"width {len(values)} differs from the first row's {len(rows[0][1])} AUT values")
                rows.append((row[0], values))
        except UnicodeDecodeError as exc:  # raised by the line csv.reader would read next
            message = f"invalid UTF-8 (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            raise FormatError(f"{path}:{reader.line_num + 1}: {message}") from None
        except _GZIP_ERRORS as exc:
            raise FormatError(f"{path}:{reader.line_num + 1}: unreadable gzip data ({exc})") from None
        except (ValueError, csv.Error) as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}:{reader.line_num + 1}: empty AUT table")
    return rows


@dataclass(frozen=True)
class SnapshotResult:
    population: Population
    dropped_late: int
    dropped_missing_crawl: int


def snapshot_filter(pop: Population, cutoff: datetime) -> SnapshotResult:
    """Restrict to records crawled on or before the cutoff.

    Records lacking a crawl date are dropped (and counted): they cannot be
    placed before the cutoff. The result carries snapshot_date = cutoff.
    """
    missing = np.isnat(pop.crawl_date)
    late = pop.crawl_date > np.datetime64(cutoff)  # False for NaT
    snapped = pop.select(~missing & ~late, snapshot_date=cutoff)
    return SnapshotResult(snapped, int(late.sum()), int(missing.sum()))
