"""Parse metadata/family/prediction files, fetch remote metadata, emulate snapshots.

Column names follow the public AndroZoo metadata: "added" maps to the crawl
date and "markets" is a "|"-separated list. Lenient parsing (count and skip
malformed rows) is the default because real snapshots contain bad rows.
"""
from __future__ import annotations

import csv
import gzip
import io
import itertools
import shutil
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np

from .errors import FetchError, FormatError
from .model import COLUMNS, MAX_YEAR, MIN_YEAR, ApkRecord, Population, format_timestamps, parse_timestamp

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
    """Open a possibly gzip-compressed text file for reading."""
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", newline="")
    return open(path, "r", newline="")


def _parse_row(row: dict[str, str]) -> ApkRecord:
    sha = (row.get("sha256") or "").strip()
    dex = parse_timestamp(row["dex_date"])
    vt = int((row.get("vt_detection") or "").strip())
    if vt < 0:
        raise ValueError(f"negative vt_detection: {vt}")
    crawl_raw = (row.get("added") or "").strip()
    scan_raw = (row.get("vt_scan_date") or "").strip()
    size_raw = (row.get("apk_size") or "").strip()
    markets_raw = (row.get("markets") or "").strip()
    return ApkRecord(
        sha256=sha,
        dex_date=dex,
        vt_detection=vt,
        crawl_date=parse_timestamp(crawl_raw) if crawl_raw else None,
        vt_scan_date=parse_timestamp(scan_raw) if scan_raw else None,
        markets=frozenset(markets_raw.split("|")) if markets_raw else frozenset({"unknown"}),
        apk_size=int(size_raw) if size_raw else 0,
        family=(row.get("family") or "").strip() or None,
    )


# Rows per vectorised parse or write step: peak memory follows this, not the row count.
_CHUNK_ROWS = 1 << 13


def _characters(texts: tuple[str, ...], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each text's length, and its first `width` code points (NUL-padded) as an (n, width) array."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    chars = np.array(texts, dtype=f"U{width}").view(np.uint32).reshape(len(texts), width)
    return lengths, chars


def _digits(chars: np.ndarray, positions: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Whether the code points at positions are all ASCII digits, and their decimal value (0 if not)."""
    picked = chars[:, positions].astype(np.int64) - ord("0")
    ok = ((picked >= 0) & (picked <= 9)).all(axis=1)
    value = np.zeros(len(chars), dtype=np.int64)
    for column in picked.T:
        value = value * 10 + column
    return ok, np.where(ok, value, 0)


def _canonical_stamps(texts: tuple[str, ...], required: bool) -> tuple[np.ndarray, np.ndarray]:
    """datetime64[s] of "YYYY-MM-DD" and "YYYY-MM-DD HH:MM:SS" texts naming a real
    time in the supported years, and a mask of those texts; an optional "" is NaT
    and in the mask. Other texts are _parse_row's to judge."""
    lengths, chars = _characters(texts, 19)
    fields = [_digits(chars, positions) for positions in ([0, 1, 2, 3], [5, 6], [8, 9], [11, 12], [14, 15], [17, 18])]
    (year_ok, year), (month_ok, month), (day_ok, day), (hour_ok, hour), (minute_ok, minute), (second_ok, second) = fields
    clock = (chars[:, 10] == ord(" ")) & (chars[:, 13] == ord(":")) & (chars[:, 16] == ord(":"))
    clock &= hour_ok & minute_ok & second_ok & (hour <= 23) & (minute <= 59) & (second <= 59)
    ok = ((lengths == 10) | ((lengths == 19) & clock)) & (chars[:, 4] == ord("-")) & (chars[:, 7] == ord("-"))
    ok &= year_ok & month_ok & day_ok & (year >= MIN_YEAR) & (year <= MAX_YEAR)
    ok &= (month >= 1) & (month <= 12) & (day >= 1)
    months = np.where(ok, (year - MIN_YEAR) * 12 + month - 1, 0).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + np.where(ok, day - 1, 0)
    ok &= days.astype("datetime64[M]") == months  # no 30 February
    stamps = days.astype("datetime64[s]") + (hour * 3600 + minute * 60 + second)
    stamps[~ok] = np.datetime64("NaT")
    return stamps, ok if required else ok | (lengths == 0)


def _canonical_naturals(texts: tuple[str, ...], required: bool) -> tuple[np.ndarray, np.ndarray]:
    """int64 of texts of 1-18 ASCII digits, and a mask of those texts; an optional "" is 0."""
    lengths, chars = _characters(texts, 18)
    digits = chars.astype(np.int64) - ord("0")
    is_digit = (digits >= 0) & (digits <= 9)
    # NUL padding is no digit, so a text is all digits when its digit count is its length
    ok = (lengths >= 1) & (is_digit.sum(axis=1) == lengths)
    value = np.zeros(len(texts), dtype=np.int64)
    for position, column in enumerate(digits.T):
        value = np.where(ok & (position < lengths), value * 10 + column, value)
    return value, ok if required else ok | (lengths == 0)


def _canonical_hashes(texts: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """S64 of 64-character lowercase hex texts, and a mask of those texts."""
    lengths, chars = _characters(texts, 64)
    hexdigit = ((chars >= ord("0")) & (chars <= ord("9"))) | ((chars >= ord("a")) & (chars <= ord("f")))
    ok = (lengths == 64) & hexdigit.all(axis=1)
    return chars.astype(np.uint8).view("S64").ravel(), ok


class _ChunkedColumns:
    """The well-formed rows of a metadata CSV as column chunks, plus the value tables."""

    def __init__(self, header: list[str]):
        self.header = header
        position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        self.position = {name: position.get(name) for name in CANONICAL_COLUMNS}
        self.parts: list[dict[str, np.ndarray]] = []
        self.market_sets: dict[frozenset[str], int] = {}
        self.families: dict[str, int] = {}
        self._market_text: dict[str, int] = {}
        self._family_text: dict[str, int] = {}

    def _market_codes(self, texts: tuple[str, ...]) -> np.ndarray:
        for text in set(texts).difference(self._market_text):
            tags = frozenset(m for m in text.strip().split("|") if m) or frozenset({"unknown"})
            self._market_text[text] = self.market_sets.setdefault(tags, len(self.market_sets))
        return np.fromiter(map(self._market_text.__getitem__, texts), dtype=np.int32, count=len(texts))

    def _family_codes(self, texts: tuple[str, ...]) -> np.ndarray:
        for text in set(texts).difference(self._family_text):
            name = text.strip()
            self._family_text[text] = self.families.setdefault(name, len(self.families)) if name else -1
        return np.fromiter(map(self._family_text.__getitem__, texts), dtype=np.int32, count=len(texts))

    def _as_dict(self, row: list[str]) -> dict:
        """The row as csv.DictReader gives it: short rows padded with None, extra fields under None."""
        record: dict = dict(zip(self.header, row))
        if len(row) > len(self.header):
            record[None] = row[len(self.header):]
        for name in self.header[len(row):]:
            record[name] = None
        return record

    def add(self, rows: list[list[str]], stats: ParseStats, strict: bool) -> None:
        """Parse one chunk: canonical rows with numpy, every other row with _parse_row."""
        if not rows:
            return
        n, width = len(rows), len(self.header)
        regular = np.fromiter(map(len, rows), dtype=np.int64, count=n) == width
        padded = rows
        if not regular.all():  # pad or cut odd rows to the header's width; _parse_row judges them
            padded = [row if len(row) == width else (row + [""] * width)[:width] for row in rows]
        table = list(zip(*padded))

        def texts(name: str) -> tuple[str, ...]:
            at = self.position[name]
            return ("",) * n if at is None else table[at]

        sha, ok = _canonical_hashes(texts("sha256"))
        dex, dex_ok = _canonical_stamps(texts("dex_date"), required=True)
        vt, vt_ok = _canonical_naturals(texts("vt_detection"), required=True)
        crawl, crawl_ok = _canonical_stamps(texts("added"), required=False)
        scan, scan_ok = _canonical_stamps(texts("vt_scan_date"), required=False)
        size, size_ok = _canonical_naturals(texts("apk_size"), required=False)
        markets = self._market_codes(texts("markets"))
        family = self._family_codes(texts("family"))
        ok &= regular & dex_ok & vt_ok & crawl_ok & scan_ok & size_ok
        valid = ok.copy()
        for k in np.flatnonzero(~ok).tolist():
            try:
                rec = _parse_row(self._as_dict(rows[k]))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if strict:
                    raise FormatError(f"malformed metadata row at line {stats.rows + k + 2}: {exc}") from exc
                stats.malformed += 1
                continue
            valid[k] = True
            sha[k], dex[k], vt[k], size[k] = rec.sha256, rec.dex_date, rec.vt_detection, rec.apk_size
            crawl[k] = np.datetime64("NaT") if rec.crawl_date is None else rec.crawl_date
            scan[k] = np.datetime64("NaT") if rec.vt_scan_date is None else rec.vt_scan_date
            markets[k] = self.market_sets.setdefault(rec.markets, len(self.market_sets))
            family[k] = -1 if rec.family is None else self.families.setdefault(rec.family, len(self.families))
        stats.rows += n
        stats.parsed += int(valid.sum())
        chunk = dict(sha256=sha, dex_date=dex, crawl_date=crawl, vt_scan_date=scan, vt_detection=vt,
                     apk_size=size, markets=markets, family=family)
        self.parts.append({name: column[valid] for name, column in chunk.items()})

    def population(self, stats: ParseStats, provenance: str) -> Population:
        """Unique hashes in first-seen order, each with its last row's values."""
        columns = {
            name: np.concatenate([np.empty(0, dtype), *(part[name] for part in self.parts)])
            for name, dtype in COLUMNS.items()
        }
        sha = columns["sha256"]
        order = np.argsort(sha, kind="stable")
        ordered = sha[order]
        change = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        starts = np.concatenate(([0], change))[: len(sha)]
        ends = np.concatenate((change, [len(sha)]))[: len(sha)]
        first, last = order[starts], order[ends - 1]
        appearance = np.argsort(first)
        rows = last[appearance]
        sha_order = np.empty_like(appearance)
        sha_order[appearance] = np.arange(len(appearance))
        stats.duplicates = len(sha) - len(rows)
        return Population.from_columns(
            {name: column[rows] for name, column in columns.items()},
            tuple(self.market_sets),
            tuple(self.families),
            provenance,
            sha_order=sha_order,
        )


def parse_metadata(stream: IO[str], strict: bool = False, provenance: str = "") -> ParseResult:
    """Parse an AndroZoo-shaped metadata CSV into a population.

    Duplicate hashes are last-wins (counted); malformed rows are counted and
    skipped unless strict, in which case they raise FormatError. Rows are read
    in chunks: canonical fields are parsed with numpy, and any other row goes
    through _parse_row, the one definition of a well-formed row.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise FormatError("empty metadata input")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"metadata input missing required columns: {', '.join(missing)}")
    stats = ParseStats()
    parsed = _ChunkedColumns(header)
    while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
        # blank lines are skipped and not counted, as csv.DictReader does
        parsed.add([row for row in chunk if row], stats, strict)
    return ParseResult(parsed.population(stats, provenance), stats)


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
    table entry, and rows are joined a chunk at a time.
    """
    csv.writer(stream, lineterminator="\n").writerow(CANONICAL_COLUMNS)
    markets = _csv_fields(["|".join(sorted(tags)) for tags in pop.market_sets])
    families = _csv_fields([*pop.families, ""], end="\n")  # code -1 is the last entry
    for start in range(0, len(pop), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        fields = zip(
            pop.sha256[rows].astype("U64").tolist(),
            format_timestamps(pop.dex_date[rows]),
            pop.vt_detection[rows].astype("U20").tolist(),
            markets[pop.markets[rows]].tolist(),
            format_timestamps(pop.crawl_date[rows]),
            format_timestamps(pop.vt_scan_date[rows]),
            pop.apk_size[rows].astype("U20").tolist(),
            families[pop.family[rows]].tolist(),
        )
        stream.write("".join(map(",".join, fields)))


@dataclass
class FamilyJoinStats:
    mapped: int = 0
    malformed: int = 0
    matched: int = 0
    unmatched: tuple[str, ...] = ()


def parse_families(stream: IO[str]) -> tuple[dict[str, str], int]:
    """Parse a two-column sha256,family file; returns (mapping, malformed count)."""
    reader = csv.reader(stream)
    mapping: dict[str, str] = {}
    malformed = 0
    for row in reader:
        if not row:
            continue
        if row == ["sha256", "family"]:
            continue
        if len(row) < 2:
            malformed += 1
            continue
        sha, family = row[0].strip().lower(), row[1].strip()
        if len(sha) != 64:
            malformed += 1
            continue
        if family:
            mapping[sha] = family
    return mapping, malformed


def join_families(pop: Population, mapping: dict[str, str]) -> tuple[Population, FamilyJoinStats]:
    """Attach family labels to matching records; unmatched hashes are reported."""
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
    stats.unmatched = tuple(sorted(sha for sha, row in zip(hashes, rows.tolist()) if row < 0))
    columns = pop.columns() | {"family": family}
    joined = Population.from_columns(
        columns, pop.market_sets, tuple(families), pop.provenance, pop.snapshot_date, pop.sha_order
    )
    return joined, stats


@dataclass(frozen=True)
class PredictionRow:
    sha256: str
    score: float
    predicted_label: Optional[int] = None

    def resolve(self, threshold: float = 0.5) -> int:
        """Predicted class: explicit label, else score >= threshold (inclusive)."""
        if self.predicted_label is not None:
            return self.predicted_label
        return 1 if self.score >= threshold else 0


@dataclass(frozen=True)
class PredictionSet:
    name: str
    rows: dict[str, PredictionRow]
    threshold: float = 0.5

    def __len__(self) -> int:
        return len(self.rows)

    def predicted(self, sha: str) -> int:
        return self.rows[sha].resolve(self.threshold)


def parse_predictions(
    stream: IO[str], name: str = "predictions", threshold: float = 0.5, strict: bool = False
) -> tuple[PredictionSet, ParseStats]:
    """Parse a prediction CSV with header sha256,score[,label]."""
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise FormatError("empty prediction input")
    if "sha256" not in reader.fieldnames or "score" not in reader.fieldnames:
        raise FormatError("prediction input must have columns sha256,score[,label]")
    has_label = "label" in reader.fieldnames
    stats = ParseStats()
    rows: dict[str, PredictionRow] = {}
    for lineno, row in enumerate(reader, start=2):
        stats.rows += 1
        try:
            sha = (row.get("sha256") or "").strip().lower()
            if len(sha) != 64:
                raise ValueError(f"bad sha256 {sha!r}")
            score = float(row["score"])
            raw_label = (row.get("label") or "").strip() if has_label else ""
            predicted = None
            if raw_label:
                predicted = int(raw_label)
                if predicted not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {predicted}")
            elif not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0,1] without a label column")
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise FormatError(f"malformed prediction row at line {lineno}: {exc}") from exc
            stats.malformed += 1
            continue
        if sha in rows:
            stats.duplicates += 1
        rows[sha] = PredictionRow(sha, score, predicted)
        stats.parsed += 1
    return PredictionSet(name, rows, threshold), stats


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


def fetch_metadata(
    url: str,
    destination: Union[str, Path],
    resume: bool = False,
    attempts: int = 3,
    backoff: float = 0.5,
    timeout: float = 30.0,
) -> Path:
    """Download a metadata file with retry/backoff and optional byte-range resume.

    When the URL ends in .gz and the destination does not, the payload is
    transparently decompressed.
    """
    # the HTTP modules load on first fetch: urllib.request pulls in ssl and
    # email, which no other command needs
    import http.client

    destination = Path(destination)
    part = destination.with_name(destination.name + ".part")
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            _download(url, part, resume, timeout)
            break
        except (FetchError, OSError, http.client.HTTPException) as exc:
            last_error = exc
    else:
        raise FetchError(f"fetch of {url} failed after {attempts} attempts: {last_error}")
    destination.parent.mkdir(parents=True, exist_ok=True)
    if url.split("?")[0].endswith(".gz") and not destination.name.endswith(".gz"):
        with gzip.open(part, "rb") as src, open(destination, "wb") as dst:
            shutil.copyfileobj(src, dst)
        part.unlink()
    else:
        part.replace(destination)
    return destination


def _download(url: str, part: Path, resume: bool, timeout: float) -> None:
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url)
    mode = "wb"
    if resume and part.exists() and part.stat().st_size > 0:
        request.add_header("Range", f"bytes={part.stat().st_size}-")
        mode = "ab"
    try:
        resp = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as err:
        err.close()
        if err.code == 416 and mode == "ab":
            return  # already complete
        raise FetchError(f"HTTP {err.code} for {url}") from None
    with resp:
        if resp.status == 200 and mode == "ab":
            mode = "wb"  # server ignored the range request; restart
        if resp.status not in (200, 206):
            raise FetchError(f"HTTP {resp.status} for {url}")
        expected = resp.headers.get("Content-Length")
        received = 0
        part.parent.mkdir(parents=True, exist_ok=True)
        with open(part, mode) as out:
            while chunk := resp.read(1 << 16):
                out.write(chunk)
                received += len(chunk)
    # a connection closed early ends the read without an error
    if expected is not None and received != int(expected):
        raise FetchError(f"short read from {url}: {received} of {expected} bytes")
