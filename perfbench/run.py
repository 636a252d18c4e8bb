#!/usr/bin/env python3
"""maldrift benchmark: seeded inputs, three workloads, checked outputs.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--workload all`` sets up every workload and then
interleaves their iterations, so machine drift hits them alike. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spawner import Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # the run must end within 180 s
LAST_START_S = 140.0  # no iteration starts later than this
DRIFT_LOOP = 1_000_000

# name -> (unit, workloads that have it); end-to-end, measured untraced
END_TO_END = {
    "setup_s": ("s", None),
    "rows_per_s": ("rows/s", None),
    "peak_rss_mb": ("MB", None),
    "failed_share": ("ratio", None),
    "ingest_s": ("s", "chain"),
    "sample_s": ("s", "chain"),
    "verify_s": ("s", "chain"),
    "evaluate_s": ("s", "chain"),
    "load_s": ("s", "analysis"),
    "stats_s": ("s", "analysis"),
    "plans_s": ("s", "analysis"),
    "synth_s": ("s", "synth"),
}


def drift_loop() -> float:
    """A fixed pure-Python loop: context for how fast the machine ran."""
    start = time.perf_counter()
    x = 0
    for i in range(DRIFT_LOOP):
        x += i
    return time.perf_counter() - start


def git_sha():
    """The checked-out commit, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def run_record(workload: str, seed: int, rows: int, args) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "input_rows": rows,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Session:
    """One workload's set-up and iterations within a run."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.setup_s: list[float] = []
        self.iterations = []
        self.drift: list[float] = []
        self.digests: set[str] = set()

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.setup(self.ctx)
            self.setup_s.append(time.perf_counter() - start)

    def iterate(self, traced: bool) -> None:
        self.drift.append(drift_loop())
        it = self.workload.iterate(self.ctx, traced)
        if it.digest:
            self.digests.add(it.digest)
            if len(self.digests) > 1:
                it.op("outputs", False, "output bytes differ from an earlier iteration")
        for problem in it.problems[:3]:
            print(f"FAIL {self.workload.name}: {problem}", file=sys.stderr)
        if len(it.problems) > 3:
            print(f"FAIL {self.workload.name}: {len(it.problems) - 3} more failed operations", file=sys.stderr)
        self.iterations.append(it)

    @property
    def attempted(self) -> int:
        return sum(it.attempted for it in self.iterations)

    @property
    def failed(self) -> int:
        return sum(it.failed for it in self.iterations)

    def end_to_end(self) -> dict[str, float]:
        plain = [it for it in self.iterations if not it.traced and it.failed == 0] or [
            it for it in self.iterations if not it.traced
        ]
        rows = self.workload.rows(self.ctx)
        values = {
            "setup_s": statistics.median(self.setup_s),
            "rows_per_s": statistics.median(rows / it.timed_s for it in plain),
            "peak_rss_mb": statistics.median(max(s.peak_rss_mb for s in it.steps) for it in plain),
            "failed_share": self.failed / max(1, self.attempted),
        }
        for key in plain[0].timings:
            values[key] = statistics.median(it.timings[key] for it in plain if key in it.timings)
        return values

    def per_layer(self, names) -> dict[str, float]:
        from workloads import trace_metrics

        rows = self.workload.rows(self.ctx)
        traced = [it for it in self.iterations if it.traced]
        plain = [it for it in self.iterations if not it.traced]
        samples: dict[str, list[float]] = {}
        for it in traced:
            values, faults = trace_metrics(it, rows)
            it.op("trace", not faults, "; ".join(faults))
            for problem in faults:
                print(f"FAIL {self.workload.name}: trace: {problem}", file=sys.stderr)
            for key, value in values.items():
                samples.setdefault(key, []).append(value)
        out = {name: statistics.median(samples[name]) if name in samples else 0.0 for name in names}
        for step in {s.name for it in plain for s in it.steps}:
            key = "analysis.peak_rss_mb" if step == "analysis" else f"cli.{step}.peak_rss_mb"
            if key in out:
                out[key] = statistics.median(s.peak_rss_mb for it in plain for s in it.steps if s.name == step)
        out["trace_overhead_s"] = statistics.median(it.timed_s for it in traced) - statistics.median(
            it.timed_s for it in plain
        )
        return out

    def context(self) -> dict:
        return {
            "iterations": len(self.iterations),
            "traced_iterations": sum(it.traced for it in self.iterations),
            "drift_loop_s": {
                "median": statistics.median(self.drift),
                "min": min(self.drift),
                "max": max(self.drift),
            },
            "setup_s_samples": self.setup_s,
            "output_sha256": sorted(self.digests),
        }


def measure(sessions, args, begin: float) -> None:
    """Set up every session, then iterate them round-robin for the budget.

    Traced runs alternate traced and untraced rounds, starting traced.
    """
    for session in sessions:
        session.setup()
    measured = time.monotonic()
    budget = args.seconds * len(sessions)
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 0
        for session in sessions:
            session.iterate(traced)
        rounds += 1
        now = time.monotonic()
        if now - measured >= budget and (not args.trace or rounds >= 2):
            break
        if now - begin >= LAST_START_S:
            break


def report(sessions, args, spec) -> dict:
    """Print every metric with its unit and the run record; return the gated ones."""
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics: dict[str, dict] = {}
    for session in sessions:
        wl = session.workload.name
        record = run_record(wl, args.seed, session.workload.rows(session.ctx), args) | session.context()
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = shown = session.per_layer(units)
        else:
            values = session.end_to_end()
            units = {k: END_TO_END[k][0] for k in values}
            shown = record["end_to_end"] = {k: v for k, v in values.items() if END_TO_END[k][1] in (None, wl)}
        for key, value in shown.items():
            print(f"{wl:<9} {key:<38} {value:>14.6g} {units[key]}")
        print(f"{wl:<9} output sha256 {' '.join(sorted(session.digests)) or '-'}")
        print("record " + json.dumps(record, sort_keys=True))
        prefix = "" if len(sessions) == 1 else f"{wl}."
        for key in gated:
            metrics[prefix + key] = {"value": values[key], "unit": units[key]}
    return metrics


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()  # only when no other run's directory is left
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="chain, analysis, synth or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "maldrift" / "cli.py").is_file():
        print(f"error: no maldrift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    begin = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # started before numpy is imported here, so the children it forks stay small
    with Spawner(env) as spawner:
        from workloads import WORKLOADS, Context

        if args.workload not in (*WORKLOADS, "all"):
            parser.error(f"unknown workload {args.workload!r}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        sessions = [
            Session(WORKLOADS[name], Context(ROOT, work / name, args.seed, begin + RUN_DEADLINE_S, spawner))
            for name in names
        ]
        try:
            measure(sessions, args, begin)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            remove_work(work)
            return 1
    metrics = report(sessions, args, spec)
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    if failed == 0:
        remove_work(work)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
