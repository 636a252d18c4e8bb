"""Every malformed input ends in an exit code, never a traceback.

Hypothesis corrupts valid files of the five input kinds (metadata, family and
prediction CSV, manifest JSON, config INI): it flips, cuts and drops bytes
and replaces fields with hostile text. The command that reads each file runs
through cli.main in process and must return 0, 1 (with an "error: " line) or
3 (a constraint check failed); an exception escaping cli.main fails the test.
"""
import contextlib
import gzip
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maldrift import cli

CONFIG = """[sample]
timestamp = dex
mode = monthly
spatial = true
confidence = 0.9
delta = 0.2
seed = 1
vtt = 4
ratio = 0.1
"""

HOSTILE = [
    b"", b"x", b"-1", b"nan", b"1e999", b"0.5", b'"', b'"a,b"', b"\0", b"\r", b"\r\n", b"\n", b"\xff", b"9" * 40,
    b"null", b"[]", b"{}", b"2014-13-45", "٣".encode(), b"x" * 200_000,  # the last longer than csv.field_size_limit()
]
_TOKEN = re.compile(rb'[^,\n:{}\[\]"=]+')  # a field, key or value in any of the five kinds


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid file of each kind, and the argv that reads each one."""
    base = tmp_path_factory.mktemp("inputs")
    assert _run(["synth", "--months", 12, "--per-month", 60, "--seed", 1, "--out", base / "synth"])[0] == 0
    population = base / "synth" / "population.csv.gz"
    metadata = base / "metadata.csv"
    metadata.write_bytes(gzip.decompress(population.read_bytes()))
    config = base / "maldrift.ini"
    config.write_text(CONFIG)
    assert _run(["sample", "--population", population, "--config", config, "--out", base / "sample"])[0] == 0
    manifest = base / "sample" / "manifest.json"
    entries = json.loads(manifest.read_text())["entries"]
    predictions = base / "predictions.csv"
    predictions.write_text("sha256,score,label\n" + "".join(
        f"{e['sha256']},{(i % 10) / 10},{'1' if i % 7 == 0 else ''}\n" for i, e in enumerate(entries)
    ))
    families = base / "families.csv"
    families.write_text("sha256,family\n" + "".join(f"{e['sha256']},fam{i % 5}\n" for i, e in enumerate(entries)))
    files = dict(metadata=metadata, families=families, predictions=predictions, manifest=manifest, config=config)
    argv = {
        "metadata": lambda f, out: ["ingest", "--input", f, "--out", out],
        "families": lambda f, out: ["ingest", "--input", metadata, "--families", f, "--out", out],
        "predictions": lambda f, out: [
            "evaluate", "--manifest", manifest, "--predictions", f"p={f}", "--window", 3, "--out", out
        ],
        "manifest": lambda f, out: ["verify", "--manifest", f, "--population", population],
        "config": lambda f, out: ["sample", "--population", population, "--config", f, "--out", out],
    }
    return {kind: (path.read_bytes(), argv[kind]) for kind, path in files.items()}


_where = st.integers(0, 2**32)  # a position, modulo the length of what is edited
_edit = st.one_of(
    st.tuples(st.just("flip"), _where, st.integers(0, 255)),
    st.tuples(st.just("cut"), _where, st.just(0)),
    st.tuples(st.just("drop"), _where, st.integers(1, 64)),
    st.tuples(st.just("field"), _where, st.integers(0, len(HOSTILE) - 1)),
)


def _corrupt(data: bytes, edit) -> bytes:
    kind, where, value = edit
    if not data:
        return data
    at = where % len(data)
    if kind == "flip":
        return data[:at] + bytes([value]) + data[at + 1 :]
    if kind == "cut":
        return data[:at]
    if kind == "drop":
        return data[:at] + data[at + value :]
    fields = list(_TOKEN.finditer(data))
    if not fields:
        return data
    field = fields[where % len(fields)]
    return data[: field.start()] + HOSTILE[value] + data[field.end() :]


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["metadata", "families", "predictions", "manifest", "config"]),
    st.lists(_edit, min_size=1, max_size=3),
)
def test_corrupt_input_ends_in_an_exit_code(inputs, kind, edits):
    data, argv = inputs[kind]
    for edit in edits:
        data = _corrupt(data, edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"input-{kind}")
        path.write_bytes(data)
        code, err = _run(argv(path, Path(tmp, "out")))
    assert code in (0, cli.EXIT_ERROR, cli.EXIT_CONSTRAINT)
    if code == cli.EXIT_ERROR:
        assert err.startswith("error: ")
