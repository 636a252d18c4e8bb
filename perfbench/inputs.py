"""Seeded AndroZoo-shaped inputs for the benchmark, with their exact truth.

The generator is numpy-only and independent of ``maldrift.synth``: it adds
greyware, multi-tag rows, offset timestamps, malformed rows and duplicate
hashes, none of which ``synth`` produces, and the inputs stay the same when
``synth`` changes. Every count the output checks need is returned exactly.
"""
from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MONTHS = 60
START = np.datetime64("2014-01", "M")
SECONDS_PER_DAY = 86_400

# The 17 tags of maldrift's market priority list. Weights do not depend on
# class, so goodware and malware share one market distribution.
TAGS = (
    "angeeks", "anzhi", "apk_bang", "appchina", "fdroid", "freewarelovers", "genome",
    "hiapk", "mi.com", "PlayDrone", "play.google.com", "praguard", "proandroid",
    "slideme", "unknown", "VirusShare", "1mobile",
)
TAG_WEIGHTS = np.array(
    [0.01, 0.20, 0.01, 0.06, 0.01, 0.005, 0.005, 0.02, 0.02, 0.01, 0.55, 0.005, 0.005,
     0.01, 0.03, 0.02, 0.02]
)
TAGS_PER_ROW = (0.70, 0.22, 0.08)  # share of rows carrying 1, 2, 3 tags

GOODWARE, GREYWARE, MALWARE = 0, 1, 2
CLASS_SHARES = (0.85, 0.05, 0.10)
CLASS_NAMES = ("goodware", "greyware", "malware")

CRAWL_BLANK_SHARE = 0.03
LAG_MEDIAN_DAYS = 2.0
LAG_SIGMA = 0.8
DATE_ONLY_SHARE = 0.10
OFFSET_SHARE = 0.04  # half "Z", half "+02:00"
FAMILY_LIFETIME = 12  # months
FAMILY_BIRTHS_PER_MONTH = 2
UNMATCHED_FAMILY_ROWS = 10


@dataclass(frozen=True)
class Truth:
    """What a correct pipeline must report for one generated input."""

    rows: int  # data rows in the metadata CSV
    records: int  # unique, well-formed records
    malformed: int
    duplicates: int
    family_rows: int  # data rows in the family CSV
    families_matched: int
    families_unmatched: int
    top_tags: tuple[str, str]  # the two tags carried by most records
    detections: np.ndarray  # vt_detection per record
    # sha256 -> (class name under vtt 4, "YYYY-MM" under crawl with dex fallback)
    expected: dict[str, tuple[str, str]]


def _month_label(index: int) -> str:
    return f"{1970 + index // 12:04d}-{index % 12 + 1:02d}"


def _format(seconds: np.ndarray, style: np.ndarray) -> list[str]:
    """Render UTC epoch seconds in the style chosen per row.

    Style 0 is ``YYYY-MM-DD HH:MM:SS``, 1 date-only, 2 ISO with ``Z`` and 3
    the local time of a ``+02:00`` zone.
    """
    stamps = seconds.astype("datetime64[s]")
    plain = np.char.replace(np.datetime_as_string(stamps, unit="s"), "T", " ")
    day = np.datetime_as_string(stamps, unit="D")
    zulu = np.char.add(np.datetime_as_string(stamps, unit="s"), "Z")
    plus2 = np.char.add(
        np.char.replace(np.datetime_as_string(stamps + np.timedelta64(7200, "s"), unit="s"), "T", " "),
        "+02:00",
    )
    return np.choose(style, [plain, day, zulu, plus2]).tolist()


def _styles(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.random(n)
    style = np.zeros(n, dtype=np.int64)
    style[u < DATE_ONLY_SHARE + OFFSET_SHARE] = 1
    style[u < OFFSET_SHARE] = 2
    style[u < OFFSET_SHARE / 2] = 3
    return style


def _as_parsed(seconds: np.ndarray, style: np.ndarray) -> np.ndarray:
    """The value maldrift reads back: date-only strings mean midnight UTC."""
    return np.where(style == 1, seconds - seconds % SECONDS_PER_DAY, seconds)


def _markets(rng: np.random.Generator, n: int) -> tuple[list[str], np.ndarray]:
    """1-3 distinct tags per row, drawn by weight without replacement."""
    keys = np.log(TAG_WEIGHTS) + rng.gumbel(size=(n, len(TAGS)))
    order = np.argsort(-keys, axis=1)[:, :3]
    k = rng.choice(3, size=n, p=TAGS_PER_ROW) + 1
    carried = np.zeros((n, len(TAGS)), dtype=bool)
    texts = []
    for i in range(n):
        picks = order[i, : k[i]]
        carried[i, picks] = True
        texts.append("|".join(TAGS[j] for j in picks))
    return texts, carried


def _families(rng: np.random.Generator, months: np.ndarray) -> list[str]:
    """A family per malware record; families live FAMILY_LIFETIME months."""
    names = []
    for m in months.tolist():
        # families born at months m-LIFETIME+1 .. m are alive; initial ones are
        # born before the range so the first months have a full pool
        born = m - FAMILY_LIFETIME + 1 + int(rng.integers(FAMILY_LIFETIME))
        slot = int(rng.integers(FAMILY_BIRTHS_PER_MONTH))
        names.append(f"fam{(born + FAMILY_LIFETIME) * FAMILY_BIRTHS_PER_MONTH + slot:04d}")
    return names


def generate(seed: int, records: int, out_dir: Path) -> Truth:
    """Write ``metadata.csv.gz`` and ``families.csv`` into out_dir.

    Each dex month holds the same number of records with exact class counts,
    so every month keeps enough malware for a spatial plan; crawl dates add a
    lognormal lag and spill some records into the next month.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    per_month = np.full(MONTHS, records // MONTHS)
    per_month[: records % MONTHS] += 1
    month = np.repeat(np.arange(MONTHS), per_month)
    cls = np.concatenate(
        [rng.permutation(np.repeat([GOODWARE, GREYWARE, MALWARE], _class_counts(int(m)))) for m in per_month]
    )

    start = (START + month.astype("timedelta64[M]")).astype("datetime64[s]").astype(np.int64)
    end = (START + (month + 1).astype("timedelta64[M]")).astype("datetime64[s]").astype(np.int64)
    dex = start + (rng.random(records) * (end - start)).astype(np.int64)
    lag = rng.lognormal(np.log(LAG_MEDIAN_DAYS), LAG_SIGMA, size=records)
    crawl = dex + (lag * SECONDS_PER_DAY).astype(np.int64)
    horizon = (START + np.timedelta64(MONTHS, "M")).astype("datetime64[s]").astype(np.int64)
    has_crawl = (rng.random(records) >= CRAWL_BLANK_SHARE) & (crawl < horizon)

    dex_style, crawl_style = _styles(rng, records), _styles(rng, records)
    dex_read = _as_parsed(dex, dex_style)
    crawl_read = _as_parsed(crawl, crawl_style)
    timeline = np.where(has_crawl, crawl_read, dex_read)
    period = timeline.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)

    detections = np.zeros(records, dtype=np.int64)
    grey = cls == GREYWARE
    mal = cls == MALWARE
    detections[grey] = rng.integers(1, 4, size=int(grey.sum()))
    detections[mal] = 3 + rng.geometric(0.08, size=int(mal.sum()))
    sizes = rng.integers(50_000, 50_000_000, size=records)
    market_text, carried = _markets(rng, records)
    family = dict(zip(np.flatnonzero(mal).tolist(), _families(rng, month[mal])))

    shas = [hashlib.sha256(f"perfbench-{seed}-{i}".encode()).hexdigest() for i in range(records)]
    dex_text = _format(dex, dex_style)
    crawl_text = _format(crawl, crawl_style)
    lines = [
        f"{shas[i]},{dex_text[i]},{detections[i]},{market_text[i]},"
        f"{crawl_text[i] if has_crawl[i] else ''},{crawl_text[i] if has_crawl[i] else ''},{sizes[i]}"
        for i in range(records)
    ]

    duplicates = max(1, records // 400)
    lines += [lines[i] for i in rng.choice(records, size=duplicates, replace=False).tolist()]
    malformed = max(4, records // 500)
    lines += [_malformed_row(seed, i) for i in range(malformed)]
    lines = [lines[i] for i in rng.permutation(len(lines))]

    out_dir.mkdir(parents=True, exist_ok=True)
    header = "sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size"
    _write_gz(out_dir / "metadata.csv.gz", "\n".join([header, *lines]) + "\n")

    family_lines = [f"{shas[i]},{name}" for i, name in family.items()]
    family_lines += [
        f"{hashlib.sha256(f'perfbench-absent-{seed}-{i}'.encode()).hexdigest()},fam9999"
        for i in range(UNMATCHED_FAMILY_ROWS)
    ]
    (out_dir / "families.csv").write_text("\n".join(["sha256,family", *family_lines]) + "\n")

    tag_counts = carried.sum(axis=0)
    top = np.argsort(-tag_counts, kind="stable")[:2]
    expected = {
        shas[i]: (CLASS_NAMES[cls[i]], _month_label(int(period[i]))) for i in range(records)
    }
    return Truth(
        rows=len(lines),
        records=records,
        malformed=malformed,
        duplicates=duplicates,
        family_rows=len(family_lines),
        families_matched=len(family),
        families_unmatched=UNMATCHED_FAMILY_ROWS,
        top_tags=(TAGS[top[0]], TAGS[top[1]]),
        detections=detections,
        expected=expected,
    )


def _class_counts(n: int) -> tuple[int, int, int]:
    grey = round(n * CLASS_SHARES[GREYWARE])
    mal = round(n * CLASS_SHARES[MALWARE])
    return n - grey - mal, grey, mal


def _malformed_row(seed: int, i: int) -> str:
    """A row that lenient parsing must count and skip, one of four faults."""
    sha = hashlib.sha256(f"perfbench-bad-{seed}-{i}".encode()).hexdigest()
    return (
        f"{sha[:63]},2015-03-01 10:00:00,0,play.google.com,,,1000",
        f"{sha},2015-03-01 10:00:00,n/a,play.google.com,,,1000",
        f"{sha},2015-13-45,0,play.google.com,,,1000",
        f"{sha},2015-03-01 10:00:00,-2,play.google.com,,,1000",
    )[i % 4]


def _write_gz(path: Path, text: str) -> None:
    with open(path, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
        gz.write(text.encode())


def vtt_curve(detections: np.ndarray, vtt_max: int = 40) -> list[float]:
    """Expected ``labeling.vtt_coverage`` for vtt 1..vtt_max, same arithmetic."""
    detected = int((detections >= 1).sum())
    return [int((detections >= v).sum()) / detected for v in range(1, vtt_max + 1)]
