"""Smoke tests: the example scripts run to completion on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

from maldrift import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_demo_pipeline_runs(tmp_path):
    result = run_script("demo_pipeline.py", "--months", 24, "--per-month", 200, "--out", tmp_path / "demo", cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_plan_table_runs_on_population(tmp_path):
    """The table of a synth CSV, of the ingest cache made from it (read through
    its sidecar) and of that sidecar alone are the same bytes."""
    synth_out, cache = tmp_path / "synth", tmp_path / "cache"
    assert cli.main(["synth", "--months", "24", "--per-month", "200", "--seed", "1", "--out", str(synth_out)]) == 0
    assert cli.main(["ingest", "--input", str(synth_out / "population.csv.gz"), "--out", str(cache)]) == 0
    tables = []
    for i, population in enumerate([synth_out / "population.csv.gz", cache / "population.csv.gz", cache / "population.npz"]):
        out = tmp_path / f"plans{i}.csv"
        result = run_script("plan_table.py", "--population", population, "--out", out, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        tables.append(out.read_bytes())
    assert tables[0].startswith(b"plan,total,")
    assert tables[1] == tables[0] and tables[2] == tables[0]
