"""Golden digests of every file the analysis commands write.

A small seeded listing carries the non-ASCII market tag ``märkte`` and a
non-ASCII family, and the predictions and the AUT table carry non-ASCII
classifier names, so these texts reach the CSV, JSON and Markdown outputs.
The listing is ingested, sampled and verified, and then run through
``stats`` (all four tables, with yearly and with monthly overlap),
``split --out`` and ``evaluate`` in its manifest and its ``--aut-table``
form. Every command runs in the listing's directory with relative paths, so
no digested file (``run_config.json`` included) holds an absolute path.
"""
import csv
import hashlib
import os
import random
from pathlib import Path

import pytest

from maldrift import cli

MONTHS = 24
PER_MONTH = 40
TAGS = ("play.google.com", "anzhi", "märkte")
FAMILIES = ("dowgin", "plankton", "famé", "kuguo")

COMMANDS = {
    "ingest": ["ingest", "--input", "metadata.csv", "--out", "cache"],
    "sample": [
        "sample", "--population", "cache/population.csv.gz", "--mode", "monthly", "--spatial",
        "--confidence", "0.95", "--delta", "0.1", "--seed", "5", "--out", "sample",
    ],
    "verify": [
        "verify", "--manifest", "sample/manifest.json", "--population", "cache/population.csv.gz", "--out", "verify",
    ],
    "stats-year": [
        "stats", "--population", "cache/population.csv.gz", "--vtt-curve", "--markets", "--timestamps",
        "--overlap", "--out", "stats-year",
    ],
    "stats-month": [
        "stats", "--population", "cache/population.csv.gz", "--vtt-curve", "--markets", "--timestamps",
        "--overlap", "--granularity", "month", "--ref-period", "2014-03", "--out", "stats-month",
    ],
    "split": ["split", "--start", "2014-01", "--end", "2015-12", "--window", "6", "--out", "split"],
    "evaluate-manifest": [
        "evaluate", "--manifest", "sample/manifest.json", "--predictions", "clé=preds-a.csv",
        "--predictions", "Δ-net=preds-b.csv", "--window", "6", "--out", "evaluate-manifest",
    ],
    "evaluate-aut-table": ["evaluate", "--aut-table", "aut.csv", "--window", "6", "--out", "evaluate-aut-table"],
}

EXIT_CODES = {name: 0 for name in COMMANDS}

OUTPUTS = {
    "cache/ingest_stats.json": "9a38acbe7f01ebe62fb4b8a1b3d018640bfc5ca336b150f878ffbe4bb197f126",
    "cache/population.csv.gz": "f2f752d52961129c6588003d46270e142351420db59c5ef670a85917a340fcde",
    "cache/population.npz": "21bac0d2c0b9cae003655936a0d369b32ebe3cfbbac5821b7dcf33125aaad305",
    "cache/run_config.json": "114ff097b2c8928e62d7e76f191b00028f4c7ebfc149c6c1e6c4ff59ebe51713",
    "evaluate-aut-table/aut_table.csv": "05273a06227175d56175550f7a1b75da5b7cfc8a5b5a50f41839b887b3d6c27a",
    "evaluate-aut-table/report.json": "29a9f8962902ccc54ef803d7a3f053a89730dc0f61b440d525078e9c5b060b44",
    "evaluate-aut-table/report.md": "8babb4b882b4e2dc54302b17e021d8f5b1a0e6beb33e08a51bcf64bfd34ea0a4",
    "evaluate-aut-table/run_config.json": "906c9d4e90aa3b27099dc947e377233a4f302a77bb1597176b714a25bfb4b8b7",
    "evaluate-manifest/aut_table.csv": "7c56daf8ae92d3e329943df2d49181fde6d0d92cf516c3bec2a6a38af4505d26",
    "evaluate-manifest/report.json": "0e1fe8e451b240e8c4b0b4bfb864c210a095a455bdf9ac922b206304c4e059b9",
    "evaluate-manifest/report.md": "79d1b4650b88b9aeda13a5f7bcdf594e529b6d99279c6657edf90d768592d89e",
    "evaluate-manifest/run_config.json": "b103370a314820cd57dd32d9e86531249958a3643a9984c35a46685d64d16f0b",
    "evaluate-manifest/window_series.csv": "819d826eb6b1ed72a2f42b58c72e6f38de02eeb3a10d1dce5a008cef65e62716",
    "sample/manifest.csv": "93977d0e2960cd6fa9ebc261edab0a01f6533b22cfe52226994e30451b3207ca",
    "sample/manifest.json": "08260d41a56ff9cec65bf75f83c6e5c537281e70ae1b9ac443c9b5f87b53521c",
    "sample/plan.csv": "3b83ea43960c7d0c85263ceb7b2fd44046ac1531c9d6bcf2de06ecebc644c35b",
    "sample/run_config.json": "0e09d5ac06792865c15ccbe61789649addc8d6ef8603d34beb79d30fced72008",
    "split/splits.json": "7c628c82ee4fad6b0f50f27ea49c876020901572bc9bad1b43e90b301190b95c",
    "stats-month/family_overlap.csv": "23ae4d27316074ede44a3320619d950cb71a4812e76292660c05d3fa6b243acd",
    "stats-month/market_composition.csv": "303997bcc6796436cc7e5b61e1e26b43899c4134fb25c6e40520a2a1edf74778",
    "stats-month/market_consistency.json": "1dc8a2d954635f0c9c6cd325d76b2dbdbaf48e31a9174b31cf431424952a3ee4",
    "stats-month/run_config.json": "b5dabd9db4c322d6ff45588fda2af4d83e147f5ec7775717fd5dc355f6dcf53d",
    "stats-month/timestamp_lag.csv": "b59f373d581f0fd0df6a345992dad896280f0e9821b444759a533fb8ee1ef901",
    "stats-month/timestamp_lag_histogram.csv": "717a6792c52b95854cfe15033256dde3537755d7d19178e64ecd2d72a79f6fb9",
    "stats-month/vtt_coverage.csv": "a854af06cfe4fa4b77a1583484a282d96e1b4a09bcaaefb213009ea9e8680c8a",
    "stats-month/vtt_market_heatmap.csv": "a03df0261079372aff2fe562aa1f4391e63d5835c654a9a4ec6211e53b9ba08a",
    "stats-year/family_overlap.csv": "63fc6b494c505e1ae733b802224c631ed9f7d549fa9d8a94ab5e87bf7202b7de",
    "stats-year/market_composition.csv": "303997bcc6796436cc7e5b61e1e26b43899c4134fb25c6e40520a2a1edf74778",
    "stats-year/market_consistency.json": "1dc8a2d954635f0c9c6cd325d76b2dbdbaf48e31a9174b31cf431424952a3ee4",
    "stats-year/run_config.json": "b5dabd9db4c322d6ff45588fda2af4d83e147f5ec7775717fd5dc355f6dcf53d",
    "stats-year/timestamp_lag.csv": "b59f373d581f0fd0df6a345992dad896280f0e9821b444759a533fb8ee1ef901",
    "stats-year/timestamp_lag_histogram.csv": "717a6792c52b95854cfe15033256dde3537755d7d19178e64ecd2d72a79f6fb9",
    "stats-year/vtt_coverage.csv": "a854af06cfe4fa4b77a1583484a282d96e1b4a09bcaaefb213009ea9e8680c8a",
    "stats-year/vtt_market_heatmap.csv": "a03df0261079372aff2fe562aa1f4391e63d5835c654a9a4ec6211e53b9ba08a",
    "verify/run_config.json": "841772d6e687122f7ea27bac5d9a51a0995b66e49f67be382e0ea66de44f85b6",
    "verify/verify.json": "a4240ce3dcdef407b2c1d53eadc77dd74440d786d7dce4148866f5d5accba466",
}


def _sha(i) -> str:
    return hashlib.sha256(f"outputs-{i}".encode()).hexdigest()


def _listing() -> str:
    rng = random.Random(20160101)
    lines = ["sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size,family"]
    for i in range(MONTHS * PER_MONTH):
        year, month = 2014 + (i // PER_MONTH) // 12, (i // PER_MONTH) % 12 + 1
        day, lag = rng.randint(1, 20), rng.randint(0, 7)
        vt = 0 if rng.random() < 0.75 else rng.randint(4, 30)
        tags = "|".join(sorted(rng.sample(TAGS, rng.choice((1, 1, 2)))))
        family = rng.choice(FAMILIES) if vt and rng.random() < 0.8 else ""
        dex = f"{year}-{month:02d}-{day:02d} 10:00:00"
        crawl = f"{year}-{month:02d}-{day + lag:02d} 12:00:00"
        lines.append(f"{_sha(i)},{dex},{vt},{tags},{crawl},,{rng.randrange(10_000, 900_000)},{family}")
    return "\n".join(lines) + "\n"


def _predictions(manifest_csv: Path, path: Path, cut: int) -> None:
    """A fixed pseudo-classifier: right for hashes whose first byte is below cut."""
    lines = ["sha256,score"]
    with open(manifest_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            right = int(row["sha256"][:2], 16) < cut
            lines.append(f"{row['sha256']},{0.9 if (row['label'] == 'malware') == right else 0.1}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; map each written file (by its path under the
    run's directory) to its SHA-256, and each command to its exit code."""
    base = tmp_path_factory.mktemp("outputs")
    (base / "metadata.csv").write_text(_listing(), encoding="utf-8")
    (base / "aut.csv").write_text(
        "classifier,aut_1,aut_2,aut_3\nDrebin-ü,0.81,0.62,0.55\nMaMaDroid-ß,0.74,0.70,0.66\n", encoding="utf-8"
    )
    inputs = {path.name for path in base.iterdir()}
    codes = {}
    cwd = os.getcwd()
    os.chdir(base)
    try:
        for name, argv in COMMANDS.items():
            if name == "evaluate-manifest":
                _predictions(base / "sample" / "manifest.csv", base / "preds-a.csv", 0xD0)
                _predictions(base / "sample" / "manifest.csv", base / "preds-b.csv", 0x90)
                inputs |= {"preds-a.csv", "preds-b.csv"}
            codes[name] = cli.main(argv)
    finally:
        os.chdir(cwd)
    digests = {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file() and path.name not in inputs
    }
    return digests, codes


def test_output_exit_codes(outputs, capsys):
    _, codes = outputs
    capsys.readouterr()
    assert codes == EXIT_CODES


def test_output_digests(outputs):
    digests, _ = outputs
    assert digests == OUTPUTS
