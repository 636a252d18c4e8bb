import argparse
import ast
import contextlib
import csv
import dataclasses
import gzip
import importlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
import zlib
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import maldrift
from maldrift import cli, ingest, report, sampler, synth
from maldrift.model import Period
from maldrift.sampler import read_manifest_json

from helpers import sha_of

SRC = Path(__file__).resolve().parents[1] / "src"

CSV = (
    "sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size,family\n"
    f"{sha_of(1)},2014-01-15,0,play.google.com,2014-02-01,,100,\n"
    f"{sha_of(2)},2014-02-15,5,play.google.com,2014-03-01,,100,dowgin\n"
    f"{sha_of(3)},2014-03-15,9,play.google.com,2014-04-01,,100,plankton\n"
)


def run(args):
    return cli.main([str(a) for a in args])


def test_ingest_three_rows(tmp_path):
    src = tmp_path / "meta.csv"
    src.write_text(CSV)
    out = tmp_path / "cache"
    assert run(["ingest", "--input", src, "--out", out]) == 0
    stats = json.loads((out / "ingest_stats.json").read_text())
    assert stats["rows"] == 3
    assert stats["records"] == 3
    assert (out / "population.csv.gz").exists()
    assert (out / "run_config.json").exists()


def test_ingest_gz_input_same_cache(tmp_path):
    plain = tmp_path / "meta.csv"
    plain.write_text(CSV)
    gz = tmp_path / "meta.csv.gz"
    gz.write_bytes(gzip.compress(CSV.encode()))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["ingest", "--input", plain, "--out", out1]) == 0
    assert run(["ingest", "--input", gz, "--out", out2]) == 0
    assert (out1 / "population.csv.gz").read_bytes() == (out2 / "population.csv.gz").read_bytes()


def test_ingest_strict_failure_no_cache(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text(CSV + f"{sha_of(4)},2014-01-15,-1,,,,100,\n")
    out = tmp_path / "cache"
    assert run(["ingest", "--input", src, "--out", out, "--strict"]) == cli.EXIT_ERROR
    assert not (out / "population.csv.gz").exists()


def test_ingest_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "meta.csv"
    src.write_text(CSV)
    assert run(["ingest", "--input", src]) == 0
    assert (tmp_path / "envcache" / "population.csv.gz").exists()


def test_sample_size_prints(capsys):
    assert run(["sample-size", "--population-size", 200000]) == 0
    assert capsys.readouterr().out.strip() == "7111"


def test_sample_size_config_overlay(tmp_path, capsys):
    config = tmp_path / "maldrift.ini"
    config.write_text("[sample-size]\ndelta = 0.5\n")
    assert run(["sample-size", "--population-size", 10**9, "--config", config]) == 0
    assert capsys.readouterr().out.strip() == "7"
    # explicit flag wins over the config file
    assert run(["sample-size", "--population-size", 10**9, "--config", config, "--delta", 0.015]) == 0
    assert capsys.readouterr().out.strip() == "7373"


@pytest.fixture(scope="module")
def skew_population(tmp_path_factory):
    out = tmp_path_factory.mktemp("skew")
    assert cli.main(["synth", "--preset", "market-skew", "--out", str(out)]) == 0
    return out / "population.csv.gz"


def test_sample_refuses_market_skew(skew_population, tmp_path):
    out = tmp_path / "m"
    code = run(
        [
            "sample",
            "--population", skew_population,
            "--timestamp", "dex",
            "--mode", "monthly",
            "--spatial",
            "--seed", 1,
            "--out", out,
        ]
    )
    assert code == cli.EXIT_CONSTRAINT
    assert not (out / "manifest.json").exists()


def test_sample_allow_violations_stamps(skew_population, tmp_path):
    out = tmp_path / "m"
    code = run(
        [
            "sample",
            "--population", skew_population,
            "--timestamp", "dex",
            "--mode", "monthly",
            "--spatial",
            "--seed", 1,
            "--out", out,
            "--allow-violations",
        ]
    )
    assert code == 0
    manifest = read_manifest_json(out / "manifest.json")
    assert any(v["check"] == "market_consistency" for v in manifest.violations)


def test_verify_roundtrip(tmp_path):
    out = tmp_path / "synth"
    assert run(["synth", "--preset", "stable", "--out", out]) == 0
    sample_out = tmp_path / "sample"
    assert (
        run(
            [
                "sample",
                "--population", out / "population.csv.gz",
                "--timestamp", "dex",
                "--mode", "monthly",
                "--spatial",
                "--seed", 3,
                "--out", sample_out,
            ]
        )
        == 0
    )
    assert run(["verify", "--manifest", sample_out / "manifest.json"]) == 0
    assert (
        run(
            [
                "verify",
                "--manifest", sample_out / "manifest.json",
                "--population", out / "population.csv.gz",
            ]
        )
        == 0
    )


def test_sample_case_study_shape(tmp_path):
    # single-market filter, publication timestamps, vtt 4, monthly spatial plan;
    # the pool carries 15% malware so the 10% plan has headroom even where
    # crawl lag slides records across month boundaries
    out = tmp_path / "synth"
    assert (
        run(
            [
                "synth",
                "--months", 24,
                "--per-month", 1200,
                "--malware-fraction", 0.15,
                "--family-pool", 10,
                "--seed", 2,
                "--out", out,
            ]
        )
        == 0
    )
    sample_out = tmp_path / "dataset"
    code = run(
        [
            "sample",
            "--population", out / "population.csv.gz",
            "--vtt", 4,
            "--timestamp", "crawl",
            "--mode", "monthly",
            "--spatial",
            "--markets", "play.google.com",
            "--seed", 11,
            "--out", sample_out,
        ]
    )
    assert code == 0
    manifest = read_manifest_json(sample_out / "manifest.json")
    assert manifest.spec["market_filter"] == ["play.google.com"]
    assert manifest.spec["policy"]["kind"] == "publication_crawl"
    assert all(c["passed"] for c in manifest.checks)
    assert not manifest.violations


def test_split_prints_appendix_splits(capsys):
    assert run(["split", "--start", "2014-01", "--end", "2018-12", "--window", 12]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["2014|2015", "2015|2016", "2016|2017", "2017|2018"]


def test_evaluate_aut_table(tmp_path, capsys):
    table = tmp_path / "auts.csv"
    table.write_text("drebin,0.573,0.488\nhcc,0.620,0.561\n")
    out = tmp_path / "eval"
    assert run(["evaluate", "--aut-table", table, "--out", out]) == 0
    payload = json.loads((out / "report.json").read_text())
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["drebin"]["mu_aut_2dp"] == 0.53
    assert (out / "report.md").exists()
    assert (out / "aut_table.csv").exists()


def test_evaluate_requires_inputs(tmp_path):
    assert run(["evaluate", "--out", tmp_path / "e"]) == cli.EXIT_USAGE


def test_synth_unknown_preset(tmp_path, capsys):
    assert run(["synth", "--preset", "nope", "--out", tmp_path / "s"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "churn" in err and "stable" in err


def test_synth_row_count(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--months", 24, "--per-month", 100, "--seed", 5, "--out", out]) == 0
    with gzip.open(out / "population.csv.gz", "rt") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 2400 + 1  # header
    truth = json.loads((out / "ground_truth.json").read_text())
    assert len(truth["true_class"]) == 2400


def test_synth_last_calendar_month(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--start", "2100-12", "--months", 1, "--per-month", 50, "--out", out]) == 0
    with gzip.open(out / "population.csv.gz", "rt", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert all(row["dex_date"].startswith("2100-12-") for row in rows)


# market texts that csv.writer must quote and that are not ASCII
_MARKETS = {"play.google.com": 2.0, "anzhi|appchina": 1.0, "zz,odd": 1.0, "市场": 1.0}


@pytest.mark.parametrize("rows", [None, 7])
def test_population_gz_is_one_gzip_write(tmp_path, monkeypatch, rows):
    """The chunked population.csv.gz holds the bytes of one GzipFile.write of
    the whole CSV (gzip.compress writes another header)."""
    pop, _ = synth.generate(synth.SynthConfig(months=3, per_month=500, goodware_markets=_MARKETS))
    text = io.StringIO()
    ingest.write_metadata_csv(pop, text)
    expected = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=expected, mtime=0) as gz:
        gz.write(text.getvalue().encode("utf-8"))
    if rows:
        monkeypatch.setattr(ingest, "_WRITE_ROWS", rows)
    cli._write_population_gz(pop, tmp_path / "population.csv.gz")
    assert (tmp_path / "population.csv.gz").read_bytes() == expected.getvalue()


@pytest.mark.parametrize("preset", sorted(synth.scenario_presets()))
def test_ground_truth_is_json_dumps_across_chunks(tmp_path, monkeypatch, preset):
    config = synth.scenario_presets()[preset]
    _, truth = synth.generate(config)
    echo = dataclasses.asdict(config)
    payload = {
        "config": echo,
        "active_families": {str(p): list(fams) for p, fams in sorted(truth.active_families.items(), key=lambda kv: kv[0].index)},
        "true_class": {sha: cls.value for sha, cls in sorted(truth.true_class.items())},
    }
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 7)
    cli._write_ground_truth(truth, echo, tmp_path / "ground_truth.json")
    assert (tmp_path / "ground_truth.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _manifest_of(truth):
    entries = [
        sampler.ManifestEntry(sha, cls, Period.parse("2014-01"), frozenset({"play.google.com"}))
        for sha, cls in truth.true_class.items()
    ]
    return sampler.DatasetManifest(entries, spec={}, created="")


_WRITERS = {
    "population.csv.gz": lambda pop, truth, path: cli._write_population_gz(pop, path),
    "ground_truth.json": lambda pop, truth, path: cli._write_ground_truth(truth, {}, path),
    "manifest.json": lambda pop, truth, path: sampler.write_manifest_json(_manifest_of(truth), path),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, name):
    """A writer that fails after its first chunk leaves the file it would
    replace byte-identical, and no .part file."""
    pop, truth = synth.generate(synth.SynthConfig(months=2, per_month=20))
    path, part = tmp_path / name, tmp_path / f"{name}.part"
    path.write_bytes(b"earlier output\n")
    write_chunks = ingest._write_chunks

    def failing(stream, n, render, sep=""):
        def render_or_fail(rows):
            if rows.start:
                assert part.exists()
                raise OSError("No space left on device")
            return render(rows)

        write_chunks(stream, n, render_or_fail, sep)

    monkeypatch.setattr(ingest, "_WRITE_ROWS", 7)
    monkeypatch.setattr(ingest, "_write_chunks", failing)
    monkeypatch.setattr(sampler, "_write_chunks", failing)
    with pytest.raises(OSError, match="No space left on device"):
        _WRITERS[name](pop, truth, path)
    assert path.read_bytes() == b"earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_failed_small_write_keeps_the_old_file(good_manifest, tmp_path, monkeypatch):
    """write_csv, whose rows fail after the first, and window_series.csv, whose
    writer fails after its header and a row, leave the file they would replace
    byte-identical, and no .part file."""
    path = tmp_path / "table.csv"
    path.write_bytes(b"earlier output\n")

    def rows():
        yield ("a", 1)
        raise OSError("No space left on device")

    with pytest.raises(OSError, match="No space left on device"):
        ingest.write_csv(path, ("name", "n"), rows())
    assert path.read_bytes() == b"earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    manifest, preds, out = tmp_path / "manifest.json", tmp_path / "preds.csv", tmp_path / "eval"
    manifest.write_text(json.dumps(good_manifest))
    preds.write_text("sha256,score\n" + "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"]))
    out.mkdir()
    (out / "window_series.csv").write_bytes(b"earlier output\n")
    write_series, written = report.write_window_series_csv, []

    class Failing:
        def __init__(self, stream):
            self.stream = stream

        def write(self, text):
            if len(written) == 2:
                raise OSError("No space left on device")
            written.append(text)
            return self.stream.write(text)

    monkeypatch.setattr(report, "write_window_series_csv", lambda result, stream: write_series(result, Failing(stream)))
    argv = ["evaluate", "--manifest", manifest, "--predictions", f"p={preds}", "--out", out]
    assert run(argv) == cli.EXIT_ERROR
    assert written[0].startswith("predictions,split,period,metric,value")
    assert (out / "window_series.csv").read_bytes() == b"earlier output\n"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".part")]


def test_outputs_do_not_depend_on_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, stats writes the same bytes as in
    UTF-8 mode, a market tag outside ASCII included."""
    src = tmp_path / "meta.csv"
    src.write_text(CSV.replace("play.google.com", "märkte"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    locales = {
        "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8": {"PYTHONUTF8": "1"},
    }
    written = {}
    for name, settings in locales.items():
        argv = ["stats", "--population", src, "--vtt-curve", "--markets", "--out", tmp_path / name]
        result = subprocess.run(
            [sys.executable, "-m", "maldrift.cli", *map(str, argv)], capture_output=True, env={**env, **settings}
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        written[name] = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
    assert "märkte".encode() in written["c"]["market_composition.csv"]
    assert written["c"] == written["utf8"]



def test_evaluate_outputs_do_not_depend_on_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, evaluate writes the same bytes as in
    UTF-8 mode and exits 0; the Markdown it prints escapes what ASCII cannot hold."""
    table = tmp_path / "auts.csv"
    table.write_text("Drebin-ü,0.573,0.488\nhcc,0.620,0.561\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    locales = {
        "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8": {"PYTHONUTF8": "1"},
    }
    written, printed = {}, {}
    for name, settings in locales.items():
        argv = ["evaluate", "--aut-table", table, "--out", tmp_path / name]
        result = subprocess.run(
            [sys.executable, "-m", "maldrift.cli", *map(str, argv)], capture_output=True, env={**env, **settings}
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        written[name] = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        printed[name] = result.stdout
    assert set(written["c"]) == {"aut_table.csv", "report.json", "report.md", "run_config.json"}
    assert "Drebin-ü".encode() in written["c"]["report.md"]
    assert written["c"] == written["utf8"]
    assert b"Drebin-\\xfc" in printed["c"]
    assert printed["c"].decode("unicode_escape") == printed["utf8"].decode()


def test_sample_and_verify_do_not_depend_on_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, sample and verify --out exit as in
    UTF-8 mode and write the same bytes; the check lines they print escape the
    "±" of the C3 evidence."""
    population = tmp_path / "synth" / "population.csv.gz"
    assert run(["synth", "--preset", "stable", "--months", 6, "--out", population.parent]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    locales = {
        "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8": {"PYTHONUTF8": "1"},
    }
    commands = {
        "sample": ["sample", "--population", population, "--mode", "monthly", "--allow-violations", "--out", "ds"],
        "verify": ["verify", "--manifest", "ds/manifest.json", "--population", population, "--out", "vf"],
    }
    codes, printed, written = {}, {}, {}
    for name, settings in locales.items():
        cwd = tmp_path / name
        cwd.mkdir()
        for command, argv in commands.items():
            result = subprocess.run(
                [sys.executable, "-m", "maldrift.cli", *map(str, argv)], capture_output=True, cwd=cwd,
                env={**env, **settings},
            )
            codes[name, command], printed[name, command] = result.returncode, result.stdout
        written[name] = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    assert codes["c", "sample"] == codes["utf8", "sample"] == 0
    assert codes["c", "verify"] == codes["utf8", "verify"]
    assert {"ds/manifest.json", "vf/verify.json"} <= set(written["c"])
    assert written["c"] == written["utf8"]
    for command in commands:
        assert b"\\xb1" in printed["c", command]
        assert printed["c", command].decode("unicode_escape") == printed["utf8", command].decode()


def _file_writes(tree: ast.AST) -> list[int]:
    """The lines of the calls in tree that may write a file: .write_text and
    .write_bytes, and open (read as the builtin) or an .open method (read as
    Path.open) whose mode, the mode keyword or else the positional argument in
    its place, is not absent or a string literal without w, a, x or +."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        method = isinstance(node.func, ast.Attribute)
        name = node.func.attr if method else getattr(node.func, "id", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] or node.args[0 if method else 1:][:1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set("wax+") & set(mode.value):
                lines.append(node.lineno)
    return lines


def test_every_file_is_written_through_replacing():
    """No module of maldrift writes a file but through ingest._replacing, the
    one place that opens a file for writing."""
    found, allowed = [], []
    for path in sorted((SRC / "maldrift").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if path.name == "ingest.py" and isinstance(node, ast.FunctionDef) and node.name == "_replacing":
                allowed += _file_writes(node)
        found += [f"{path.name}:{line}" for line in _file_writes(tree)]
    assert len(allowed) == 1
    assert found == [f"ingest.py:{allowed[0]}"]


def test_synth_flags_override_a_preset(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--preset", "stable", "--months", 3, "--out", out]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert list(truth["active_families"]) == ["2014-01", "2014-02", "2014-03"]
    assert len(truth["true_class"]) == 3 * 400
    config = json.loads((out / "run_config.json").read_text())["config"]
    assert (config["preset"], config["months"], config["family_pool"], config["seed"]) == ("stable", 3, 8, 7)


@pytest.mark.parametrize(
    "bad",
    [
        {"goodware_detections": synth.DetectionModel("point", value=-3)},
        {"malware_detections": synth.DetectionModel("uniform", low=-2, high=5)},
        {"size_range": (-1, 100)},
    ],
    ids=["goodware-detections", "malware-detections", "sizes"],
)
def test_synth_negative_detections_or_sizes_exit_1(tmp_path, capsys, monkeypatch, bad):
    presets = synth.scenario_presets()
    broken = dataclasses.replace(presets["stable"], allow_label_noise=True, **bad)
    monkeypatch.setattr(synth, "scenario_presets", lambda: {**presets, "broken": broken})
    assert run(["synth", "--preset", "broken", "--out", tmp_path / "s"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s" / "population.csv.gz").exists()


def test_stats_tables(tmp_path):
    out = tmp_path / "synth"
    assert run(["synth", "--preset", "churn", "--out", out]) == 0
    stats_out = tmp_path / "stats"
    assert (
        run(
            [
                "stats",
                "--population", out / "population.csv.gz",
                "--vtt-curve",
                "--markets",
                "--timestamps",
                "--overlap",
                "--timestamp", "dex",
                "--out", stats_out,
            ]
        )
        == 0
    )
    for name in (
        "vtt_coverage.csv",
        "vtt_market_heatmap.csv",
        "market_composition.csv",
        "market_consistency.json",
        "timestamp_lag.csv",
        "family_overlap.csv",
    ):
        assert (stats_out / name).exists(), name


def test_sample_succeeds_after_lenient_ingest_skips_out_of_range_date(tmp_path):
    synth_out = tmp_path / "synth"
    assert run(["synth", "--preset", "stable", "--out", synth_out]) == 0
    with gzip.open(synth_out / "population.csv.gz", "rt") as fh:
        text = fh.read()
    bad = f"{sha_of('ancient')},1601-01-01,0,play.google.com,2014-02-01,,100,\n"
    src = tmp_path / "meta.csv"
    src.write_text(text + bad)
    cache = tmp_path / "cache"
    assert run(["ingest", "--input", src, "--out", cache]) == 0
    assert json.loads((cache / "ingest_stats.json").read_text())["malformed_skipped"] == 1
    assert run(["ingest", "--input", src, "--out", tmp_path / "strict", "--strict"]) == cli.EXIT_ERROR
    code = run(
        [
            "sample",
            "--population", cache / "population.csv.gz",
            "--timestamp", "dex",
            "--mode", "monthly",
            "--spatial",
            "--seed", 3,
            "--out", tmp_path / "sample",
        ]
    )
    assert code == 0


@pytest.fixture(scope="module")
def good_manifest(tmp_path_factory):
    base = tmp_path_factory.mktemp("manifest")
    assert cli.main(["synth", "--preset", "stable", "--out", str(base / "synth")]) == 0
    argv = [
        "sample",
        "--population", str(base / "synth" / "population.csv.gz"),
        "--timestamp", "dex",
        "--mode", "monthly",
        "--spatial",
        "--seed", "3",
        "--out", str(base / "sample"),
    ]
    assert cli.main(argv) == 0
    return json.loads((base / "sample" / "manifest.json").read_text())


def _drop_created(data):
    del data["created"]
    return data


def _short_sha(data):
    data["entries"][0]["sha256"] = "ab"
    return data


def _empty_spec(data):
    data["spec"] = {}
    return data


def _ratio_not_a_number(data):
    data["spec"]["plan"]["ratio_malware"] = "x"
    return data


def _set_entry(key, value, at=1):
    def corrupt(data):
        data["entries"][at][key] = value
        return data

    return corrupt


def _requested_not_a_number(data):
    data["strata"][2]["requested"] = "x"
    return data


def _stratum_label_a_list(data):
    data["strata"][2]["label"] = ["malware"]
    return data


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_created, "missing key(s): created"),
        (lambda data: [data], "must be a JSON object, not list"),
        (_short_sha, "entries[0]: sha256 'ab'"),
        (_empty_spec, "spec missing key(s): policy"),
        (_ratio_not_a_number, "spec.plan.ratio_malware 'x' is not a number in (0,1)"),
        (_set_entry("markets", "play.google.com"), "entries[1]: markets 'play.google.com' is not a list of strings"),
        (_requested_not_a_number, "strata[2]: requested 'x' is not an integer"),
        (_set_entry("label", "benign"), "entries[1]: label 'benign' is not one of goodware, greyware, malware"),
        (_set_entry("period", "2014-13"), "entries[1]: period '2014-13' is not a YYYY or YYYY-MM period"),
        (_set_entry("family", 7), "entries[1]: family 7 is not null or a string"),
        (_stratum_label_a_list, "strata[2]: label ['malware'] is not null or one of"),
    ],
    ids=[
        "no-created", "top-level-list", "short-sha256", "empty-spec", "ratio-not-a-number",
        "markets-a-string", "requested-not-a-number", "bad-label", "bad-period", "family-not-a-string",
        "stratum-label-a-list",
    ],
)
@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_malformed_manifest_exits_1(good_manifest, tmp_path, capsys, corrupt, message, command):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(corrupt(json.loads(json.dumps(good_manifest)))))
    argv = [command, "--manifest", path]
    if command == "evaluate":
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "sha256,score\n" + "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"])
        )
        argv += ["--predictions", f"p={preds}", "--out", tmp_path / "eval"]
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err


def _cut_mid_entry(text):
    at = text.index('"sha256"', text.index('"entries"'))
    return text[: text.index('"label"', at) + 4].encode()


@pytest.mark.parametrize(
    "broken",
    [_cut_mid_entry, lambda text: b"\xef\xbb\xbf" + text.encode()],
    ids=["cut-mid-entry", "bom"],
)
@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_manifest_not_json_exits_1(good_manifest, tmp_path, broken, command):
    """A manifest that is not valid JSON ends in exit 1 and the error json.loads
    gives, with no traceback and no file left open (ResourceWarning is an
    error here)."""
    path = tmp_path / "manifest.json"
    path.write_bytes(broken(json.dumps(good_manifest, indent=2)))
    with pytest.raises(ValueError) as expected:
        json.loads(path.read_text())
    argv = [command, "--manifest", path]
    if command == "evaluate":
        preds = tmp_path / "preds.csv"
        preds.write_text("sha256,score\n" + "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"]))
        argv += ["--predictions", f"p={preds}", "--out", tmp_path / "eval"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "maldrift.cli", *map(str, argv)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == cli.EXIT_ERROR
    assert result.stderr == f"error: {path}: not valid JSON: {expected.value}\n"


def test_import_cli_loads_no_http_client():
    code = (
        "import sys, maldrift.cli; "
        "print(sorted(m for m in ('requests', 'urllib.request') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def _fresh_process(code, *args, cwd=None):
    """The last line code prints when run in a new interpreter that imports maldrift from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env, cwd=cwd, check=True
    )
    return result.stdout.splitlines()[-1]


def test_step_loads_only_its_modules(tmp_path):
    """Each step, run as a process of its own, loads none of the modules it does not run."""
    code = (
        "import sys; from maldrift import cli; rc = cli.main(sys.argv[1:]); "
        "print(rc, *sorted(m for m in sys.modules if m.startswith('maldrift.')))"
    )
    steps = [
        (["synth", "--preset", "stable", "--out", "synth"], {"sampler", "jsonstream", "report"}),
        (["ingest", "--input", "synth/population.csv.gz", "--out", "cache"], {"sampler", "jsonstream", "report", "synth"}),
        (
            ["sample", "--population", "cache/population.csv.gz", "--timestamp", "dex", "--mode", "monthly",
             "--spatial", "--seed", "3", "--out", "sample"],
            {"report", "synth"},
        ),
        (["verify", "--manifest", "sample/manifest.json", "--population", "cache/population.csv.gz"], {"report", "synth"}),
        (["evaluate", "--manifest", "sample/manifest.json", "--predictions", "p=preds.csv", "--out", "eval"], {"synth"}),
    ]
    for argv, absent in steps:
        if argv[0] == "evaluate":
            with open(tmp_path / "sample" / "manifest.csv", newline="") as fh:
                hashes = [row["sha256"] for row in csv.DictReader(fh)]
            (tmp_path / "preds.csv").write_text("sha256,score\n" + "".join(f"{sha},0.9\n" for sha in hashes))
        rc, *loaded = _fresh_process(code, *argv, cwd=tmp_path).split()
        assert rc == "0", argv
        assert not {name.removeprefix("maldrift.") for name in loaded} & absent, argv[0]


def test_only_digests_map_openssl(tmp_path):
    """A library load (parse_metadata, parse_families, join_families) and
    `evaluate` leave hashlib's OpenSSL module (_hashlib) unloaded; writing and
    reading a sidecar loads it, and the sidecar reads back the population."""
    (tmp_path / "meta.csv").write_text(CSV)
    (tmp_path / "families.csv").write_text(f"sha256,family\n{sha_of(1)},adware\n{sha_of(2)},\n")
    code = (
        "import sys; from pathlib import Path; from maldrift import ingest, labeling, metrics, sizing\n"
        "with ingest.open_text('meta.csv') as fh: pop = ingest.parse_metadata(fh).population\n"
        "with ingest.open_text('families.csv') as fh: mapping, _ = ingest.parse_families(fh)\n"
        "pop, _ = ingest.join_families(pop, mapping)\n"
        "loaded = '_hashlib' in sys.modules\n"
        "ingest._write_sidecar(pop, Path('population.npz'), Path('meta.csv'))\n"
        "back = ingest._read_sidecar('population.npz', ingest._file_sha256('meta.csv'))\n"
        "print(loaded, '_hashlib' in sys.modules, back.records == pop.records)"
    )
    assert _fresh_process(code, cwd=tmp_path) == "False True True"
    assert run(["synth", "--preset", "stable", "--out", tmp_path / "synth"]) == 0
    assert run(["ingest", "--input", tmp_path / "synth" / "population.csv.gz", "--out", tmp_path / "cache"]) == 0
    sample = ["sample", "--population", tmp_path / "cache" / "population.csv.gz", "--timestamp", "dex",
              "--mode", "monthly", "--spatial", "--seed", "3", "--out", tmp_path / "sample"]
    assert run(sample) == 0
    with open(tmp_path / "sample" / "manifest.csv", newline="") as fh:
        hashes = [row["sha256"] for row in csv.DictReader(fh)]
    assert hashes
    (tmp_path / "preds.csv").write_text("sha256,score\n" + "".join(f"{sha},0.9\n" for sha in hashes))
    code = "import sys; from maldrift import cli; rc = cli.main(sys.argv[1:]); print(rc, '_hashlib' in sys.modules)"
    argv = ["evaluate", "--manifest", "sample/manifest.json", "--predictions", "p=preds.csv", "--out", "eval"]
    assert _fresh_process(code, *argv, cwd=tmp_path) == "0 False"


# every name the package exported before its submodules loaded lazily, by module
PACKAGE_NAMES = {
    "model": "ApkRecord ClassLabel Granularity Period Population period_of period_range",
    "labeling": "LabelRule TimestampKind TimestampPolicy label market_composition market_consistency timeline_date "
    "timestamp_lag_stats vtt_coverage vtt_market_heatmap",
    "ingest": "PredictionRow PredictionSet parse_families parse_metadata parse_predictions snapshot_filter "
    "write_metadata_csv",
    "sizing": "PlanMode SizingParams SizingPlan compare_plans plan_sizes required_sample_size",
    "sampler": "DatasetManifest ManifestEntry market_scenario stratified_sample verify_constraints",
    "metrics": "MetricSeries SplitPlan a_aut aut confusion_metrics family_overlap overlap_series rolling_splits",
    "synth": "SynthConfig generate scenario_presets",
}


def test_package_loads_a_module_on_first_use():
    code = "import sys, maldrift; print(*sorted(m for m in sys.modules if m.startswith('maldrift')))"
    assert _fresh_process(code) == "maldrift maldrift.version"
    for module, names in PACKAGE_NAMES.items():
        for name in names.split():
            scope = {}
            exec(f"from maldrift import {name}", scope)
            assert scope[name] is getattr(importlib.import_module(f"maldrift.{module}"), name)
    with pytest.raises(AttributeError):
        maldrift.nope
    with pytest.raises(ImportError):
        exec("from maldrift import fetch_metadata", {})


LONG = "x" * 200_000  # longer than csv.field_size_limit()


@pytest.mark.parametrize(
    "markets, note", [(LONG, ""), (f'"{LONG}"', ""), ("", LONG)], ids=["bare", "quoted", "unread-column"]
)
def test_ingest_long_field_is_a_malformed_row(tmp_path, capsys, markets, note):
    src = tmp_path / "meta.csv"
    rows = [f"{sha_of(i)},2014-01-15,0,,,,100,," for i in range(5)]
    rows[3] = f"{sha_of(3)},2014-01-15,0,{markets},,,100,,{note}"
    src.write_text("sha256,dex_date,vt_detection,markets,added,vt_scan_date,apk_size,family,note\n" + "\n".join(rows))
    out = tmp_path / "cache"
    assert run(["ingest", "--input", src, "--out", out]) == 0
    stats = json.loads((out / "ingest_stats.json").read_text())
    assert (stats["rows"], stats["malformed_skipped"], stats["records"]) == (5, 1, 4)
    assert run(["ingest", "--input", src, "--out", tmp_path / "strict", "--strict"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "malformed metadata row at line 5: field larger than field limit (131072)" in err


def test_ingest_long_family_field_is_malformed(tmp_path):
    src, families = tmp_path / "meta.csv", tmp_path / "families.csv"
    src.write_text(CSV)
    families.write_text(f"sha256,family\n{sha_of(1)},\"{LONG}\"\n{sha_of(2)},adware\n")
    out = tmp_path / "cache"
    assert run(["ingest", "--input", src, "--families", families, "--out", out]) == 0
    stats = json.loads((out / "ingest_stats.json").read_text())
    assert stats["families"] == {"mapped": 1, "matched": 1, "unmatched": 0, "malformed": 1}


def test_evaluate_skips_long_prediction_field(good_manifest, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(good_manifest))
    preds = tmp_path / "preds.csv"
    rows = "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"])
    preds.write_text(f"sha256,score\n{sha_of('x')},\"{LONG}\"\n" + rows)
    argv = ["evaluate", "--manifest", manifest, "--predictions", f"p={preds}", "--out", tmp_path / "eval"]
    assert run(argv) == 0


@pytest.mark.parametrize("broken", ["metadata", "families", "predictions"])
def test_invalid_utf8_names_the_file(good_manifest, tmp_path, capsys, broken):
    src, families, preds = tmp_path / "meta.csv", tmp_path / "families.csv", tmp_path / "preds.csv"
    src.write_text(CSV)
    families.write_text(f"sha256,family\n{sha_of(1)},adware\n")
    preds.write_text("sha256,score\n" + "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"]))
    bad = {"metadata": src, "families": families, "predictions": preds}[broken]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    if broken == "predictions":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(good_manifest))
        argv = ["evaluate", "--manifest", manifest, "--predictions", f"p={preds}", "--out", tmp_path / "eval"]
    else:
        argv = ["ingest", "--input", src, "--families", families, "--out", tmp_path / "cache"]
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid UTF-8 after row ")
    assert "byte 0xff" in err


_GZIP_FAULTS = {
    "truncated": (lambda data: data[: len(data) // 2], "Compressed file ended before the end-of-stream marker was reached"),
    "crc": (lambda data: data[:-8] + bytes([data[-8] ^ 0xFF]) + data[-7:], "CRC check failed 0x[0-9a-f]+ != 0x[0-9a-f]+"),
}


def _whole_rows(data: bytes) -> int:
    """The data rows (lines after the header) held whole by the text that gzip
    data decodes to before its fault; the CRC and size trailer, the last 8
    bytes, is checked last."""
    decoder = zlib.decompressobj(31)
    text = decoder.decompress(data[:-8])
    with contextlib.suppress(zlib.error):
        text += decoder.decompress(data[-8:])
    return max(text.count(b"\n") - 1, 0)


@pytest.mark.parametrize("fault", sorted(_GZIP_FAULTS))
@pytest.mark.parametrize("broken", ["metadata", "families", "predictions"])
def test_unreadable_gzip_names_the_file(good_manifest, tmp_path, capsys, broken, fault):
    src, families, preds = tmp_path / "meta.csv.gz", tmp_path / "families.csv.gz", tmp_path / "preds.csv.gz"
    src.write_bytes(gzip.compress(CSV.encode()))
    families.write_bytes(gzip.compress(f"sha256,family\n{sha_of(1)},adware\n".encode()))
    rows = "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"])
    preds.write_bytes(gzip.compress(f"sha256,score\n{rows}".encode()))
    damage, reason = _GZIP_FAULTS[fault]
    bad = {"metadata": src, "families": families, "predictions": preds}[broken]
    bad.write_bytes(damage(bad.read_bytes()))
    rows = _whole_rows(bad.read_bytes())
    if broken == "predictions":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(good_manifest))
        argv = ["evaluate", "--manifest", manifest, "--predictions", f"p={preds}", "--out", tmp_path / "eval"]
    else:
        argv = ["ingest", "--input", src, "--families", families, "--out", tmp_path / "cache"]
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(bad))}: unreadable gzip data after row {rows} \({reason}\)\n", err), err


@pytest.mark.parametrize("fault", sorted(_GZIP_FAULTS))
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_unreadable_gzip_counts_every_whole_row(tmp_path, capsys, fault, quoted):
    """A listing of several parse blocks, read in bulk or (with a quote in its
    first row) by csv.reader: the pointer counts every row before the fault."""
    lines = [f"{sha_of(i)},2014-01-15 10:00:00,{i % 30},anzhi|mi.com,2014-02-01 00:00:00,,{1000 + i},f{i % 50}"
             for i in range(12_000)]
    if quoted:
        lines[0] = lines[0].replace("anzhi|mi.com", '"anzhi|mi.com"')
    src = tmp_path / "meta.csv.gz"
    damage, reason = _GZIP_FAULTS[fault]
    src.write_bytes(damage(gzip.compress("\n".join([",".join(ingest.CANONICAL_COLUMNS), *lines, ""]).encode())))
    rows = _whole_rows(src.read_bytes())
    assert 0 < rows <= 12_000
    assert run(["ingest", "--input", src, "--out", tmp_path / "cache"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(src))}: unreadable gzip data after row {rows} \({reason}\)\n", err), err


@pytest.mark.parametrize(
    "header, message",
    [
        ("sha,score\n", "prediction input must have columns sha256,score[,label]"),
        ("", "empty prediction input"),
        (f'"{LONG}"\n', "unreadable prediction header: field larger than field limit (131072)"),
    ],
    ids=["columns", "empty", "unreadable"],
)
def test_prediction_header_errors_name_the_file(good_manifest, tmp_path, capsys, header, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(good_manifest))
    rows = "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"])
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("sha256,score\n" + rows)
    bad.write_text(header + rows if header else "")
    argv = ["evaluate", "--manifest", manifest, "--predictions", f"a={good}", "--predictions", f"b={bad}"]
    assert run([*argv, "--out", tmp_path / "eval"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_metadata_header_error_names_the_file(tmp_path, capsys):
    src = tmp_path / "meta.csv"
    src.write_text(f"sha256,dex\n{sha_of(1)},2014-01-15\n")
    assert run(["ingest", "--input", src, "--out", tmp_path / "cache"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {src}: metadata input missing required columns: dex_date, vt_detection\n"


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """A cache written by ingest: population.csv.gz and its population.npz sidecar."""
    base = tmp_path_factory.mktemp("ingested")
    assert cli.main(["synth", "--preset", "stable", "--out", str(base / "synth")]) == 0
    assert cli.main(["ingest", "--input", str(base / "synth" / "population.csv.gz"), "--out", str(base / "cache")]) == 0
    return base / "cache"


def _sample_and_verify(cache, out, monkeypatch):
    """The bytes sample and verify write in out for the cache's population.csv.gz."""
    out.mkdir()
    monkeypatch.chdir(out)  # run_config.json echoes the paths given
    population = str(cache / "population.csv.gz")
    argv = ["sample", "--population", population, "--timestamp", "dex", "--mode", "monthly", "--spatial",
            "--seed", "3", "--out", "sample"]
    assert cli.main(argv) == 0
    argv = ["verify", "--manifest", "sample/manifest.json", "--population", population, "--out", "verify"]
    assert cli.main(argv) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_sidecar_gives_the_bytes_of_the_csv(ingested, tmp_path, monkeypatch):
    """sample and verify write the same bytes from the sidecar, without it, and
    beside a stale one; only the first of these reads no CSV."""
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in ("population.csv.gz", ingest.SIDECAR):
        (cache / name).write_bytes((ingested / name).read_bytes())
    parses = []
    real_parse = ingest.parse_metadata
    monkeypatch.setattr(ingest, "parse_metadata", lambda *a, **k: parses.append(1) or real_parse(*a, **k))
    with_sidecar = _sample_and_verify(cache, tmp_path / "with", monkeypatch)
    assert not parses
    # the same CSV compressed again, so its bytes and digest change: the sidecar is stale
    text = gzip.decompress((cache / "population.csv.gz").read_bytes())
    (cache / "population.csv.gz").write_bytes(gzip.compress(text, compresslevel=1, mtime=0))
    stale = _sample_and_verify(cache, tmp_path / "stale", monkeypatch)
    assert len(parses) == 2
    (cache / ingest.SIDECAR).unlink()
    without = _sample_and_verify(cache, tmp_path / "without", monkeypatch)
    assert with_sidecar == stale == without
    assert set(with_sidecar) >= {"sample/manifest.json", "sample/manifest.csv", "sample/plan.csv", "verify/verify.json"}


def test_sample_reads_a_sidecar_path(ingested, tmp_path):
    argv = ["sample", "--timestamp", "dex", "--mode", "monthly", "--spatial", "--seed", "3"]
    assert cli.main([*argv, "--population", str(ingested / ingest.SIDECAR), "--out", str(tmp_path / "npz")]) == 0
    assert cli.main([*argv, "--population", str(ingested / "population.csv.gz"), "--out", str(tmp_path / "csv")]) == 0
    for name in ("manifest.json", "plan.csv"):
        assert (tmp_path / "npz" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()


def _rewrite_sidecar(path, change, digest=True):
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    change(arrays)
    if digest:
        arrays["content_sha256"] = np.array(ingest._content_digest(arrays))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _plain_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(3))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p: _rewrite_sidecar(p, lambda a: a.update(vt_detection=a["vt_detection"].astype(np.int32))),
         "array 'vt_detection' has dtype int32, expected int64"),
        (lambda p: _rewrite_sidecar(p, lambda a: a["markets"].__setitem__(0, len(a["market_sets"]))),
         "array 'markets' holds a value outside"),
        (lambda p: _rewrite_sidecar(p, lambda a: a["apk_size"].__setitem__(0, 7), digest=False),
         "array 'content_sha256' does not match the content digest"),
        (lambda p: _rewrite_sidecar(p, lambda a: a.update(families=a["families"].astype(object)), digest=False),
         "array 'families': Object arrays cannot be loaded when allow_pickle=False"),
        (_truncate, "not a readable population sidecar"),
        (_plain_npy, "not a readable population sidecar: not an .npz archive"),
    ],
    ids=["wrong-dtype", "out-of-range-code", "digest-mismatch", "pickled-array", "truncated-zip", "plain-npy"],
)
@pytest.mark.parametrize("given", ["npz", "csv"])
def test_corrupt_sidecar_exits_1(ingested, tmp_path, capsys, corrupt, message, given):
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in ("population.csv.gz", ingest.SIDECAR):
        (cache / name).write_bytes((ingested / name).read_bytes())
    sidecar = cache / ingest.SIDECAR
    corrupt(sidecar)
    population = sidecar if given == "npz" else cache / "population.csv.gz"
    assert run(["stats", "--population", population, "--vtt-curve", "--out", tmp_path / "stats"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}: ")
    assert message in err


def test_ingest_without_a_sidecar_removes_the_old_one(ingested, tmp_path, capsys):
    """A population the sidecar cannot hold (a family ending in NUL, which a
    fixed-width unicode array drops) gets none, and the earlier ingest's
    sidecar in the same directory is removed rather than left to be loaded."""
    cache = tmp_path / "cache"
    assert run(["ingest", "--input", ingested / "population.csv.gz", "--out", cache]) == 0
    assert (cache / ingest.SIDECAR).is_file()
    listing = tmp_path / "listing.csv"
    listing.write_text(
        ",".join(ingest.CANONICAL_COLUMNS) + "\n" + f"{'a' * 64},2015-01-05,3,anzhi,2015-02-01,,100,fam\0\n"
    )
    assert run(["ingest", "--input", listing, "--out", cache]) == 0
    assert not (cache / ingest.SIDECAR).exists()
    argv = ["stats", "--vtt-curve", "--out", tmp_path / "stats", "--population"]
    assert run([*argv, cache / ingest.SIDECAR]) == cli.EXIT_ERROR
    assert "No such file" in capsys.readouterr().err
    assert run([*argv, cache / "population.csv.gz"]) == 0
    heatmap = (tmp_path / "stats" / "vtt_market_heatmap.csv").read_text()
    assert "anzhi" in heatmap and "play.google.com" not in heatmap


@pytest.mark.parametrize(
    "text, message",
    [
        ("vtt = 4\n", ":1: File contains no section headers."),
        ("[sample]\nvtt = x\n", ": [sample] vtt = 'x': invalid literal for int() with base 10: 'x'"),
        ("[sample]\nmode = weekly\n", ": [sample] mode = 'weekly': 'weekly' is not a valid PlanMode"),
        ("[sample]\ntimestamp = added\n", ": [sample] timestamp = 'added': not one of crawl, dex, vt"),
    ],
    ids=["no-section-header", "cast", "enum", "timestamp-name"],
)
def test_config_errors_name_the_file(ingested, tmp_path, capsys, text, message):
    config = tmp_path / "maldrift.ini"
    config.write_text(text)
    argv = ["sample", "--population", ingested / "population.csv.gz", "--config", config, "--out", tmp_path / "s"]
    assert run(argv) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {config}{message}\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("evaluate", "metric = auc", "metric = 'auc': not one of f1, fpr, precision, recall, tpr"),
        ("stats", "vtt_values = 1,x", "vtt_values = '1,x': invalid literal for int() with base 10: 'x'"),
        ("stats", "ref_period = 19x", "ref_period = '19x': unparseable period: '19x'"),
        ("sample", "snapshot = yesterday", "snapshot = 'yesterday': unparseable timestamp: 'yesterday'"),
    ],
    ids=["metric", "vtt-values", "ref-period", "snapshot"],
)
def test_config_values_are_cast(ingested, good_manifest, tmp_path, capsys, command, text, message):
    config = tmp_path / "maldrift.ini"
    config.write_text(f"[{command}]\n{text}\n")
    if command == "evaluate":
        manifest, preds = tmp_path / "manifest.json", tmp_path / "preds.csv"
        manifest.write_text(json.dumps(good_manifest))
        preds.write_text("sha256,score\n" + "".join(f"{e['sha256']},0.9\n" for e in good_manifest["entries"]))
        argv = ["evaluate", "--manifest", manifest, "--predictions", f"p={preds}"]
    elif command == "stats":
        argv = ["stats", "--population", ingested / "population.csv.gz", "--vtt-curve", "--overlap"]
    else:
        argv = ["sample", "--population", ingested / "population.csv.gz"]
    assert run([*argv, "--config", config, "--out", tmp_path / "out"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {config}: [{command}] {message}\n"
    assert not (tmp_path / "out" / "run_config.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", "--overlap", "--ref-period", "19x"], "--ref-period '19x': unparseable period: '19x'"),
        (["sample", "--snapshot", "yesterday"], "--snapshot 'yesterday': unparseable timestamp: 'yesterday'"),
    ],
    ids=["ref-period", "snapshot"],
)
def test_flag_values_name_the_flag(ingested, tmp_path, capsys, argv, message):
    command, *flags = argv
    argv = [command, "--population", ingested / "population.csv.gz", *flags, "--out", tmp_path / "out"]
    assert run(argv) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "run_config.json").exists()


@pytest.mark.parametrize(
    "granularity, ref, kind",
    [("month", "2014", "year"), ("year", "2014-03", "month")],
    ids=["year-for-month", "month-for-year"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_ref_period_of_another_granularity_names_both(ingested, tmp_path, capsys, granularity, ref, kind, source):
    argv = ["stats", "--population", ingested / "population.csv.gz", "--overlap", "--granularity", granularity]
    if source == "flag":
        argv += ["--ref-period", ref]
        where = "--ref-period"
    else:
        config = tmp_path / "maldrift.ini"
        config.write_text(f"[stats]\nref_period = {ref}\n")
        argv += ["--config", config]
        where = f"{config}: [stats] ref_period ="
    assert run([*argv, "--out", tmp_path / "out"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {where} {ref!r}: a {kind} period, while --granularity is {granularity}\n"
    assert not (tmp_path / "out" / "run_config.json").exists()


@pytest.mark.parametrize("flag", ["--start", "--end"])
def test_split_period_errors_name_the_flag(capsys, flag):
    periods = {"--start": "2014-01", "--end": "2018-12", flag: "2014-13"}
    assert run(["split", *[text for pair in periods.items() for text in pair]]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {flag} '2014-13': unparseable period: '2014-13'\n"


def test_sample_frees_the_loaded_population_before_sizing(ingested, tmp_path, monkeypatch):
    """After --markets, sample holds the selected records only: the population
    it loaded is gone before plan_sizes runs."""
    loaded, freed = [], []
    load, plan_sizes = cli._load_population, cli.sizing.plan_sizes

    def loading(path):
        pop = load(path)
        loaded.append(weakref.ref(pop))
        return pop

    def planning(pop, *args):
        freed.append(loaded[0]() is None)
        return plan_sizes(pop, *args)

    monkeypatch.setattr(cli, "_load_population", loading)
    monkeypatch.setattr(cli.sizing, "plan_sizes", planning)
    argv = ["sample", "--population", ingested / "population.csv.gz", "--markets", "play.google.com,anzhi"]
    assert run([*argv, "--allow-violations", "--out", tmp_path / "sample"]) == 0
    assert freed == [True]



def test_sample_builds_one_view(ingested, tmp_path, monkeypatch):
    """plan_sizes, stratified_sample and verify_constraints share one derivation
    of class codes, timeline dates and periods."""
    builds, class_codes = [], cli.labeling.class_codes

    def counting(pop, rule):
        builds.append(rule)
        return class_codes(pop, rule)

    monkeypatch.setattr(cli.labeling, "class_codes", counting)
    argv = ["sample", "--population", ingested / "population.csv.gz", "--timestamp-fallback", "dex",
            "--markets", "play.google.com,anzhi", "--allow-violations", "--out", tmp_path / "sample"]
    assert run(argv) == 0
    assert len(builds) == 1


def _settings_read(function: str, functions: dict) -> tuple[Optional[str], set[str]]:
    """The config section a cli function opens (None for a helper) and the keys it
    reads through settings.get and settings.given, with those of the helpers it
    hands settings to."""
    section, keys = None, set()
    for node in ast.walk(functions[function]):
        if not isinstance(node, ast.Call):
            continue
        call = node.func
        if isinstance(call, ast.Name) and call.id == "Settings":
            section = node.args[1].value
        elif isinstance(call, ast.Attribute) and isinstance(call.value, ast.Name) and call.value.id == "settings":
            keys |= {node.args[0].value} if call.attr == "get" else {kw.arg for kw in node.keywords if call.attr == "given"}
        elif isinstance(call, ast.Name) and call.id in functions and any(
            isinstance(arg, ast.Name) and arg.id == "settings" for arg in node.args
        ):
            keys |= _settings_read(call.id, functions)[1]
    return section, keys


def test_every_setting_is_a_flag_or_documented():
    """A key a subcommand reads from its config section is one of its flags or is
    named in README.md, so no setting is hidden."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    readme = (SRC.parent / "README.md").read_text()
    sections, hidden = set(), []
    for name in functions:
        section, keys = _settings_read(name, functions)
        if section is not None:
            sections.add(section)
            flags = commands[section]._option_string_actions
            hidden += [
                f"[{section}] {key}"
                for key in sorted(keys)
                if f"--{key.replace('_', '-')}" not in flags and not re.search(rf"\b{key}\b", readme)
            ]
    assert sections == set(commands)
    assert not hidden


def test_config_values_read_as_their_flags(ingested, tmp_path, capsys):
    config = tmp_path / "maldrift.ini"
    config.write_text("[stats]\nvtt_values = 4, 10\nref_period = 2014\n[sample]\nsnapshot = 2030-01-01\n")
    argv = ["stats", "--population", ingested / "population.csv.gz", "--vtt-curve", "--overlap", "--config", config]
    assert run([*argv, "--out", tmp_path / "stats"]) == 0
    heatmap = (tmp_path / "stats" / "vtt_market_heatmap.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in heatmap[1:]} == {"4", "10"}
    assert run([*argv, "--ref-period", "2015", "--out", tmp_path / "flag"]) == 0
    overlap = (tmp_path / "flag" / "family_overlap.csv").read_text()
    assert "2015," not in overlap and "2014," in overlap
    argv = ["sample", "--population", ingested / "population.csv.gz", "--allow-violations", "--config", config]
    assert run([*argv, "--out", tmp_path / "sample"]) == 0
    assert json.loads((tmp_path / "sample" / "run_config.json").read_text())["config"]["snapshot"] == "2030-01-01"


@pytest.mark.parametrize(
    "table, message",
    [
        ("drebin,0.573,0.488\nhcc,0.62,zz\n", ":2: could not convert string to float: 'zz'"),
        (f"drebin,0.573,0.488\nhcc,0.62,{LONG}\n", ":2: field larger than field limit (131072)"),
        ("drebin,0.573,0.488\nhcc,nan,0.5\n", ":2: AUT value 'nan' is not a number in [0, 1]"),
        ("drebin,0.573,0.488\nhcc,0.5,inf\n", ":2: AUT value 'inf' is not a number in [0, 1]"),
        ("drebin,1.5,0.488\nhcc,0.62,0.5\n", ":1: AUT value '1.5' is not a number in [0, 1]"),
        ("classifier,split1,split2\ndrebin,0.573,0.488\nhcc,-0.1,0.5\n", ":3: AUT value '-0.1' is not a number in [0, 1]"),
        ("drebin,0.573,0.488\n\nhcc,0.62\n", ":3: width 1 differs from the first row's 2 AUT values"),
        ("drebin\nhcc,0.62\n", ":1: no AUT values"),
        ("", ":1: empty AUT table"),
        ("classifier,split1\n", ":2: empty AUT table"),
    ],
    ids=["not-a-number", "long-field", "nan", "inf", "above-one", "negative", "ragged", "no-values", "empty", "header-only"],
)
def test_aut_table_errors_name_the_line(tmp_path, capsys, table, message):
    path = tmp_path / "auts.csv"
    path.write_text(table)
    assert run(["evaluate", "--aut-table", path, "--out", tmp_path / "eval"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not (tmp_path / "eval" / "report.json").exists()


def test_aut_table_not_utf8_names_the_line(tmp_path, capsys):
    path = tmp_path / "auts.csv"
    path.write_bytes(b'drebin,0.573,0.488\n"hcc\nv2",0.62,0.5\xff1\n')
    assert run(["evaluate", "--aut-table", path, "--out", tmp_path / "eval"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {path}:3: invalid UTF-8 (byte 0xff: invalid start byte)\n"


def test_config_not_utf8_names_the_file_and_line(tmp_path, capsys):
    config = tmp_path / "maldrift.ini"
    config.write_bytes(b"[sample-size]\ndelta = 0.5\n# caf\x82\n")
    assert run(["sample-size", "--population-size", 1000, "--config", config]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {config}:3: invalid UTF-8 (byte 0x82: invalid start byte)\n"


def test_config_with_crlf_line_ends(tmp_path, capsys):
    config = tmp_path / "maldrift.ini"
    config.write_bytes(b"[sample-size]\r\ndelta = 0.5\r\n")
    assert run(["sample-size", "--population-size", 10**9, "--config", config]) == 0
    assert capsys.readouterr().out.strip() == "7"


@pytest.mark.parametrize("command", ["split", "verify"])
def test_out_resolves_from_the_config_file(good_manifest, tmp_path, monkeypatch, command):
    """split and verify read out as every setting is read: the flag, then the
    config file's key, then the default (no output files)."""
    monkeypatch.chdir(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(good_manifest))
    argv, written = {
        "split": (["split", "--start", "2014-01", "--end", "2015-12"], "splits.json"),
        "verify": (["verify", "--manifest", manifest], "verify.json"),
    }[command]
    config = tmp_path / "maldrift.ini"
    config.write_text(f"[{command}]\nout = from_config\n")
    assert run([*argv, "--config", config, "--out", "from_flag"]) == 0
    assert (tmp_path / "from_flag" / written).is_file()
    assert not (tmp_path / "from_config").exists()  # the flag wins
    assert run([*argv, "--config", config]) == 0
    assert (tmp_path / "from_config" / written).is_file()


def test_stats_without_a_table_flag_exits_before_loading(tmp_path, capsys):
    """stats with no table flag is a usage error found before the population is
    loaded or the output directory made: a missing --population is not read."""
    out = tmp_path / "stats"
    assert run(["stats", "--population", tmp_path / "missing.csv", "--out", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("nothing to do: ")
    assert not out.exists()
