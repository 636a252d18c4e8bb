"""Golden digests: the CLI chain on one fixed input gives byte-identical files.

One seeded listing mixes every row form the parser accepts or rejects:
canonical and date-only timestamps, ``Z`` and ``+02:00`` offsets, fractional
seconds, blank optional dates, empty and multi-tag markets, greyware,
duplicate hashes and malformed rows. It is ingested once (with a family
file) and sampled under three configurations; each sample is verified and,
when monthly, evaluated. Sample and verify load the population.npz sidecar
that ingest writes, and its bytes are pinned too. None of the digested files
holds a path.
"""
import csv
import hashlib
import random
from datetime import datetime, timedelta

import pytest

from maldrift import cli

MONTHS = 30
PER_MONTH = 80
TAGS = ("play.google.com", "anzhi", "appchina", "VirusShare", "mi.com", "fdroid")


def _sha(i) -> str:
    return hashlib.sha256(f"golden-{i}".encode()).hexdigest()


def _stamp(rng: random.Random, dt: datetime) -> str:
    u = rng.random()
    if u < 0.10:
        return dt.strftime("%Y-%m-%d")
    if u < 0.15:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    if u < 0.20:
        return (dt + timedelta(hours=2)).strftime("%Y-%m-%d %H:%M:%S+02:00")
    if u < 0.25:
        return dt.strftime("%Y-%m-%d %H:%M:%S") + f".{rng.randrange(1000):03d}"
    return dt.strftime("%Y-%m-%d %H:%M:%S")


def _listing() -> tuple[str, str]:
    """The metadata CSV and the sha256,family CSV, as text."""
    rng = random.Random(20140101)
    rows, families = [], []
    for i in range(MONTHS * PER_MONTH):
        year, month = 2014 + (i // PER_MONTH) // 12, (i // PER_MONTH) % 12 + 1
        dex = datetime(year, month, 1) + timedelta(seconds=rng.randrange(27 * 86400))
        crawl = dex + timedelta(seconds=rng.randrange(20 * 86400))
        u = rng.random()
        vt = 0 if u < 0.80 else rng.randint(1, 3) if u < 0.86 else rng.randint(4, 30)
        tags = rng.sample(TAGS, rng.choice((1, 1, 1, 2, 3))) if rng.random() > 0.05 else []
        family = f"fam{rng.randrange(12):02d}" if vt >= 4 and rng.random() < 0.5 else ""
        rows.append(
            [
                _sha(i),
                _stamp(rng, dex),
                str(vt),
                "|".join(tags),
                "" if rng.random() < 0.05 else _stamp(rng, crawl),
                "" if rng.random() < 0.5 else _stamp(rng, crawl + timedelta(days=1)),
                "" if rng.random() < 0.03 else str(rng.randrange(10_000, 9_000_000)),
                family,
            ]
        )
        if vt >= 4 and not family and rng.random() < 0.7:
            families.append(f"{_sha(i)},fam{rng.randrange(12):02d}")
    for i in rng.sample(range(len(rows)), 20):  # duplicates: the last row wins
        rows.append(rows[i][:2] + [str(int(rows[i][2]) + 5)] + rows[i][3:])
    bad = [
        ["ab", "2014-05-01", "0"],
        [None, "2015-13-45", "0"],
        [None, "2014-02-30 10:00:00", "0"],
        [None, "NaT", "0"],
        [None, "2014-01", "0"],
        [None, "", "0"],
        [None, "1601-01-01", "0"],
        [None, "2014-05-01", "n/a"],
        [None, "2014-05-01", "-2"],
        [None, "2014-05-01 24:00:00", "0"],
    ]
    for k, (sha, dex, vt) in enumerate(bad):
        rows.append([sha or _sha(f"bad{k}"), dex, vt, "anzhi", "", "", "1000", ""])
    rows.append([_sha("bad-crawl"), "2014-05-01", "0", "anzhi", "2014-13-01", "", "1000", ""])
    rows.append([_sha("bad-size"), "2014-05-01", "0", "anzhi", "", "", "-5", ""])
    rng.shuffle(rows)
    header = "sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size,family"
    metadata = "\n".join([header, *(",".join(r) for r in rows)]) + "\n"
    families.append(f"{_sha('absent')},fam99")
    return metadata, "\n".join(["sha256,family", *families]) + "\n"


CONFIGS = {
    "monthly-spatial-markets": [
        "--timestamp", "crawl", "--timestamp-fallback", "dex", "--mode", "monthly", "--spatial",
        "--markets", "play.google.com,anzhi", "--seed", "11",
    ],
    "yearly-pooled-snapshot": [
        "--timestamp", "crawl", "--mode", "yearly", "--snapshot", "2015-09-30 23:59:59", "--seed", "12",
    ],
    "global-vt": ["--timestamp", "vt", "--mode", "global", "--spatial", "--seed", "13"],
}

GOLDEN = {
    ("ingest", "population.csv.gz"): "aa4fe7b1153e63a45a122f6bd7e5a6835173003653c92a5aaceccdc8a241d15a",
    ("ingest", "ingest_stats.json"): "c3550a63a8ce6cdfd2936cea9f0aec105eb83940d918a7e832f239c5f4c35e2f",
    ("monthly-spatial-markets/sample", "manifest.json"): "22bc23a60df2d0204c8b335404c18a60edc75ed77edbac0c1a92bc28da5d85f3",
    ("monthly-spatial-markets/sample", "plan.csv"): "5b24973ecf2d66c780bdb9ee9deef3ba8b768fef143d4814bd82b5c4175ea429",
    ("monthly-spatial-markets/verify", "verify.json"): "116b546866ae1cde9812890e8ece497c390e94b438d3ce31fea3aa2887c61c6f",
    ("monthly-spatial-markets/evaluate", "report.json"): "0fd3623bd5c639500f2e988bb6b3f43aff69e7ebd431fcaa8b4ce46e169d8f75",
    ("yearly-pooled-snapshot/sample", "manifest.json"): "373ab2f44b8270cc8229b716bb932a4480a81a1fead717a257787bdd677da957",
    ("yearly-pooled-snapshot/sample", "plan.csv"): "eda58f277dcdb77f8163630751cc383a592ab7fed447e9ec644972da58f0ea12",
    ("yearly-pooled-snapshot/verify", "verify.json"): "f1a8fea8df41dd21ad93480dd37c337187eaf0c06ea35bdd7ad4d71fdd01014d",
    ("global-vt/sample", "manifest.json"): "9a734397b04540b27ce939d17292ad6e74cc3d7ffa47bad700ef6188269b3a2a",
    ("global-vt/sample", "plan.csv"): "919b379a117358555a344c1bb1f395c9ac2925e9a69917f6c2fa3c4394e32dc7",
    ("global-vt/verify", "verify.json"): "e931524ef6655977be3589d8cc69ec7647fd2635cb8676d58ec058acfb1faabd",
    ("global-vt/evaluate", "report.json"): "2557be8e206307c12db6aed6a6de99ed32f501a64b2b4df4922d793df1260e1a",
    ("ingest", "population.npz"): "510f345c32bb1aaca7278538f1c2c7dca61da6000917f149e43e392f99cd74a5",
}

# every configuration's manifest fails a check on this small listing, so
# sample runs with --allow-violations and verify exits 3
EXIT_CODES = {
    "ingest": 0,
    **{f"{name}/sample": 0 for name in CONFIGS},
    **{f"{name}/verify": 3 for name in CONFIGS},
    "monthly-spatial-markets/evaluate": 0,
    "global-vt/evaluate": 0,
}


def _predictions(manifest_csv, path):
    """A fixed pseudo-classifier: right for hashes whose first byte is below 0xd0."""
    lines = ["sha256,score"]
    with open(manifest_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            right = int(row["sha256"][:2], 16) < 0xD0
            lines.append(f"{row['sha256']},{0.9 if (row['label'] == 'malware') == right else 0.1}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Run the chain once; map (stage, file) to its SHA-256 and stage to its exit code."""
    base = tmp_path_factory.mktemp("golden")
    metadata, families = _listing()
    (base / "metadata.csv").write_text(metadata)
    (base / "families.csv").write_text(families)
    cache = base / "cache"
    codes = {
        "ingest": cli.main(
            ["ingest", "--input", str(base / "metadata.csv"), "--families", str(base / "families.csv"),
             "--out", str(cache)]
        )
    }
    digests = {}

    def digest(stage, path):
        digests[(stage, path.name)] = hashlib.sha256(path.read_bytes()).hexdigest()

    digest("ingest", cache / "population.csv.gz")
    digest("ingest", cache / "ingest_stats.json")
    digest("ingest", cache / "population.npz")
    population = str(cache / "population.csv.gz")
    for name, args in CONFIGS.items():
        out = base / name
        codes[f"{name}/sample"] = cli.main(
            ["sample", "--population", population, *args, "--confidence", "0.95", "--delta", "0.1",
             "--allow-violations", "--out", str(out / "sample")]
        )
        digest(f"{name}/sample", out / "sample" / "manifest.json")
        digest(f"{name}/sample", out / "sample" / "plan.csv")
        manifest = str(out / "sample" / "manifest.json")
        codes[f"{name}/verify"] = cli.main(
            ["verify", "--manifest", manifest, "--population", population, "--out", str(out / "verify")]
        )
        digest(f"{name}/verify", out / "verify" / "verify.json")
        if name.startswith("yearly"):
            continue  # rolling evaluation needs monthly periods
        _predictions(out / "sample" / "manifest.csv", out / "preds.csv")
        codes[f"{name}/evaluate"] = cli.main(
            ["evaluate", "--manifest", manifest, "--predictions", f"p={out / 'preds.csv'}",
             "--window", "6", "--out", str(out / "evaluate")]
        )
        digest(f"{name}/evaluate", out / "evaluate" / "report.json")
    return digests, codes


def test_golden_exit_codes(chain, capsys):
    _, codes = chain
    capsys.readouterr()
    assert codes == EXIT_CODES


@pytest.mark.parametrize("key", list(GOLDEN), ids=["/".join(k) for k in GOLDEN])
def test_golden_digest(chain, key):
    digests, _ = chain
    assert digests[key] == GOLDEN[key]


SYNTH_INI = """[synth]
months = 5
per_month = 37
malware_fraction = 0.3
family_pool = 3
family_birth_rate = 1
family_lifetime = 2
start = 2016-11
seed = 42
"""

SYNTH_GOLDEN = {
    ("preset-late-backfill", "population.csv.gz"): "41704551036d727559e5a8d90ef5df3eacde4400944c822645ce3dea79ec698e",
    ("preset-late-backfill", "ground_truth.json"): "50ba91ba68fa36dd171cb3913e8eba89b86741be4036668735249d234f274f6d",
    ("preset-late-backfill", "run_config.json"): "ff63609cc9949e1433bc91ccdf4af7c158eeb064058840fa37919a88b5aa3495",
    ("ini", "population.csv.gz"): "265e786ca17e5d1ccfccb0a2570475203310d53f6d8bb71cfce1609853b50741",
    ("ini", "ground_truth.json"): "e301bc3756d22e758cd78c58a42d1d8e6219e51d25e74deba0ccd6682dba546e",
    ("ini", "run_config.json"): "a9255c5aecc2c9c56e28a701c505e76537dd33112e1076a1883269d1113cf8aa",
}


@pytest.mark.parametrize("name", ["preset-late-backfill", "ini"])
def test_synth_golden_digests(tmp_path, name):
    """synth's three files, for a preset and for an INI config, keep their bytes."""
    if name == "ini":
        (tmp_path / "synth.ini").write_text(SYNTH_INI)
        args = ["--config", str(tmp_path / "synth.ini")]
    else:
        args = ["--preset", "late-backfill"]
    assert cli.main(["synth", *args, "--out", str(tmp_path / name)]) == 0
    digests = {
        (name, file): hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
        for file in ("population.csv.gz", "ground_truth.json", "run_config.json")
    }
    assert digests == {key: value for key, value in SYNTH_GOLDEN.items() if key[0] == name}
