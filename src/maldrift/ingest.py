"""Parse metadata/family/prediction files, fetch remote metadata, emulate snapshots.

Column names follow the public AndroZoo metadata: "added" maps to the crawl
date and "markets" is a "|"-separated list. Lenient parsing (count and skip
malformed rows) is the default because real snapshots contain bad rows.
"""
from __future__ import annotations

import csv
import gzip
import shutil
import time
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import IO, Optional, Union

from .errors import FetchError, FormatError
from .model import ApkRecord, Population, format_timestamp, parse_timestamp

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


def parse_metadata(stream: IO[str], strict: bool = False, provenance: str = "") -> ParseResult:
    """Parse an AndroZoo-shaped metadata CSV into a population.

    Duplicate hashes are last-wins (counted); malformed rows are counted and
    skipped unless strict, in which case they raise FormatError.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise FormatError("empty metadata input")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise FormatError(f"metadata input missing required columns: {', '.join(missing)}")
    stats = ParseStats()
    by_sha: dict[str, ApkRecord] = {}
    order: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        stats.rows += 1
        try:
            rec = _parse_row(row)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            if strict:
                raise FormatError(f"malformed metadata row at line {lineno}: {exc}") from exc
            stats.malformed += 1
            continue
        if rec.sha256 in by_sha:
            stats.duplicates += 1
        else:
            order.append(rec.sha256)
        by_sha[rec.sha256] = rec
        stats.parsed += 1
    population = Population(tuple(by_sha[s] for s in order), provenance=provenance)
    return ParseResult(population, stats)


def write_metadata_csv(pop: Population, stream: IO[str]) -> None:
    """Serialize a population in the same CSV schema parse_metadata consumes."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    for rec in pop:
        writer.writerow(
            (
                rec.sha256,
                format_timestamp(rec.dex_date),
                rec.vt_detection,
                "|".join(sorted(rec.markets)),
                format_timestamp(rec.crawl_date) if rec.crawl_date else "",
                format_timestamp(rec.vt_scan_date) if rec.vt_scan_date else "",
                rec.apk_size,
                rec.family or "",
            )
        )


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
    records = []
    for rec in pop:
        fam = mapping.get(rec.sha256)
        if fam is not None:
            stats.matched += 1
            rec = replace(rec, family=fam)
        records.append(rec)
    stats.unmatched = tuple(sorted(set(mapping) - pop.by_sha.keys()))
    return Population(tuple(records), pop.provenance, pop.snapshot_date), stats


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
    kept = []
    dropped_late = dropped_missing = 0
    for rec in pop:
        if rec.crawl_date is None:
            dropped_missing += 1
        elif rec.crawl_date > cutoff:
            dropped_late += 1
        else:
            kept.append(rec)
    snapped = Population(tuple(kept), pop.provenance, snapshot_date=cutoff)
    return SnapshotResult(snapped, dropped_late, dropped_missing)


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
