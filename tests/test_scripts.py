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
    synth_out = tmp_path / "synth"
    assert cli.main(["synth", "--months", "24", "--per-month", "200", "--seed", "1", "--out", str(synth_out)]) == 0
    out = tmp_path / "plans.csv"
    result = run_script("plan_table.py", "--population", synth_out / "population.csv.gz", "--out", out, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert out.read_text().startswith("plan,total,")
