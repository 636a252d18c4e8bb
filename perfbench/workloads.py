"""The three workloads: set-up, one timed iteration, and the output checks.

An iteration is one closed-loop pass with one caller: each child process
starts only after the previous one has ended. Children run single-threaded
(maldrift's default ``workers``). Paths handed to the program are relative to
the iteration directory, so outputs do not depend on where the checkout is.
"""
from __future__ import annotations

import csv
import gzip
import hashlib
import json
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import inputs
from child import VTT_MAX
from tracer import self_times

RECORDS = 24_000  # 400 a month over 60 months
CLASSIFIERS = (("strong", 0.95), ("weak", 0.75))  # (name, accuracy); strong must rank first
# parse_metadata, parse_families, join_families; vtt_coverage for 1..VTT_MAX;
# heatmap, composition, consistency, lag, families by period, overlap; compare_plans
ANALYSIS_OPS = 3 + VTT_MAX + 6 + 1
SYNTH_FAMILIES = {"family_pool": 24, "family_birth_rate": 2, "family_lifetime": 12}

HERE = Path(__file__).resolve().parent


@dataclass
class Step:
    """One child process as the caller saw it."""

    name: str
    rc: int
    wall_s: float
    peak_rss_mb: float
    trace: Optional[dict] = None


@dataclass
class Iteration:
    traced: bool
    steps: list[Step] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)  # workload-specific e2e seconds
    timed_s: float = 0.0
    digest: str = ""

    def op(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {why}")


class Context:
    """Where one workload runs, and how its children are started."""

    def __init__(self, root: Path, work: Path, seed: int, deadline: float, spawner):
        self.root = root
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.spawner = spawner
        self.truth: Optional[inputs.Truth] = None

    def run(self, name: str, argv: list[str], cwd: Path) -> Step:
        """Run one child to completion: its wall time and its own peak RSS.

        A child still running at the run's deadline is killed and fails.
        """
        reply = self.spawner.run(
            [sys.executable, *argv], str(cwd), str(cwd / f"{name}.out"), str(cwd / f"{name}.err"),
            max(1.0, self.deadline - time.monotonic()),
        )
        return Step(name, reply["rc"], reply["wall_s"], reply["peak_rss_mb"])

    def maldrift(self, name: str, args: list[str], cwd: Path, traced: bool) -> Step:
        if traced:
            trace_path = cwd.parent / f"trace-{name}.json"
            step = self.run(name, [str(HERE / "child.py"), "cli", str(trace_path), name, *args], cwd)
            step.trace = _read_json(trace_path)
            trace_path.unlink(missing_ok=True)
            return step
        return self.run(name, ["-m", "maldrift.cli", *args], cwd)

    def warm_up(self) -> None:
        """Import the package once, so bytecode compilation is not timed,
        and make sure it is the checkout's own copy."""
        probe = "import maldrift.cli; print(maldrift.cli.__file__)"
        step = self.run("warm-up", ["-c", probe], self.work)
        where = Path((self.work / "warm-up.out").read_text().strip() or ".").resolve()
        if step.rc != 0 or (self.root / "src") not in where.parents:
            raise RuntimeError(f"maldrift does not import from {self.root / 'src'}")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def output_digest(directory: Path) -> str:
    """SHA-256 over every output file (path and bytes), stderr excluded."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and p.suffix != ".err"):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class Workload:
    name = ""

    def setup(self, ctx: Context) -> None:
        """Generate the seeded listing and family CSV, then warm up."""
        ctx.truth = inputs.generate(ctx.seed, RECORDS, _fresh(ctx.work / "inputs"))
        ctx.warm_up()

    def iterate(self, ctx: Context, traced: bool) -> Iteration:
        raise NotImplementedError

    def rows(self, ctx: Context) -> int:
        return ctx.truth.rows


class Chain(Workload):
    """The README main path as four CLI commands on one generated listing."""

    name = "chain"

    def iterate(self, ctx: Context, traced: bool) -> Iteration:
        truth = ctx.truth
        it = Iteration(traced)
        cwd = _fresh(ctx.work / "iter")
        predictions = [a for c, _ in CLASSIFIERS for a in ("--predictions", f"{c}=predictions/{c}.csv")]
        steps = (
            ("ingest", ["ingest", "--input", "../inputs/metadata.csv.gz",
                        "--families", "../inputs/families.csv", "--out", "cache"], _check_ingest),
            ("sample", ["sample", "--population", "cache/population.csv.gz", "--vtt", "4",
                        "--timestamp", "crawl", "--timestamp-fallback", "dex",
                        "--mode", "monthly", "--spatial", "--markets", ",".join(truth.top_tags),
                        "--confidence", "0.95", "--delta", "0.05",
                        "--seed", str(ctx.seed), "--out", "dataset"], _check_sample),
            ("verify", ["verify", "--manifest", "dataset/manifest.json",
                        "--population", "cache/population.csv.gz", "--out", "verify"], _check_verify),
            ("evaluate", ["evaluate", "--manifest", "dataset/manifest.json", *predictions,
                          "--window", "12", "--out", "eval"], _check_evaluate),
        )
        for name, args, check in steps:
            if name == "evaluate":
                # the external classifier: not part of the timed steps
                _write_predictions(cwd, ctx.seed)
            step = ctx.maldrift(name, args, cwd, traced)
            it.steps.append(step)
            it.timings[f"{name}_s"] = step.wall_s
            why = _verdict(step, check, cwd, truth)
            it.op(name, not why, why)
            if why:
                break
        it.timed_s = sum(s.wall_s for s in it.steps)
        it.digest = output_digest(cwd)
        return it


def _verdict(step: Step, check, *args) -> str:
    """Why a step failed, or "" when it exited 0 and its outputs check out."""
    if step.rc != 0:
        return f"exit code {step.rc}"
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        return f"outputs unreadable: {exc!r}"


def _check_ingest(cwd: Path, truth: inputs.Truth) -> str:
    stats = _read_json(cwd / "cache" / "ingest_stats.json") or {}
    want = {
        "rows": truth.rows,
        "malformed_skipped": truth.malformed,
        "duplicates": truth.duplicates,
        "records": truth.records,
        "families": {
            "mapped": truth.family_rows,
            "matched": truth.families_matched,
            "unmatched": truth.families_unmatched,
            "malformed": 0,
        },
    }
    wrong = [k for k, v in want.items() if stats.get(k) != v]
    return f"ingest_stats.json differs from the generator in {wrong}" if wrong else ""


def _check_sample(cwd: Path, truth: inputs.Truth) -> str:
    counts: Counter = Counter()
    with open(cwd / "dataset" / "manifest.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            got = (row["label"], row["period"])
            if truth.expected.get(row["sha256"]) != got:
                return f"entry {row['sha256']} is {got}, generator says {truth.expected.get(row['sha256'])}"
            counts[got] += 1
    if not counts:
        return "empty manifest"
    planned: Counter = Counter()
    with open(cwd / "dataset" / "plan.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for label in ("malware", "goodware"):
                if int(row[label] or 0):
                    planned[(label, row["period"])] = int(row[label])
    if counts != planned:
        diff = sorted(set(counts.items()) ^ set(planned.items()))[:3]
        return f"manifest counts per (class, period) differ from plan.csv, e.g. {diff}"
    return ""


def _check_verify(cwd: Path, truth: inputs.Truth) -> str:
    checks = _read_json(cwd / "verify" / "verify.json") or []
    failed = [c["name"] for c in checks if not c.get("passed")]
    if not checks or failed:
        return f"verify.json checks failed: {failed or 'none written'}"
    return ""


def _check_evaluate(cwd: Path, truth: inputs.Truth) -> str:
    report = _read_json(cwd / "eval" / "report.json") or {}
    ranked = [r["name"] for r in report.get("results", [])]
    if ranked[:1] != [CLASSIFIERS[0][0]]:
        return f"ranking {ranked}, the more accurate classifier {CLASSIFIERS[0][0]!r} must be first"
    return ""


def _write_predictions(cwd: Path, seed: int) -> None:
    """Two seeded classifiers of different accuracy, from manifest.csv."""
    with open(cwd / "dataset" / "manifest.csv", newline="") as fh:
        entries = [(row["sha256"], row["label"] == "malware") for row in csv.DictReader(fh)]
    (cwd / "predictions").mkdir(exist_ok=True)
    for k, (name, accuracy) in enumerate(CLASSIFIERS):
        rng = np.random.Generator(np.random.PCG64([seed, k]))
        right = rng.random(len(entries)) < accuracy
        lines = ["sha256,score"]
        for (sha, malware), ok in zip(entries, right.tolist()):
            lines.append(f"{sha},{0.9 if malware == ok else 0.1}")
        (cwd / "predictions" / f"{name}.csv").write_text("\n".join(lines) + "\n")


class Analysis(Workload):
    """Parse once, then the stats tables and the six-plan table in memory."""

    name = "analysis"

    def iterate(self, ctx: Context, traced: bool) -> Iteration:
        it = Iteration(traced)
        cwd = _fresh(ctx.work / "iter")
        trace_path = cwd.parent / "trace-analysis.json"
        timings_path = cwd.parent / "timings-analysis.json"
        timings_path.unlink(missing_ok=True)
        step = ctx.run(
            "analysis",
            [str(HERE / "child.py"), "analysis", str(trace_path) if traced else "-",
             "../inputs/metadata.csv.gz", "../inputs/families.csv", "outputs.json", str(timings_path)],
            cwd,
        )
        if traced:
            step.trace = _read_json(trace_path)
            trace_path.unlink(missing_ok=True)
        it.steps.append(step)
        outputs = _read_json(cwd / "outputs.json") if step.rc == 0 else None
        timings = _read_json(timings_path) if step.rc == 0 else None
        if outputs is None or timings is None:
            for _ in range(ANALYSIS_OPS):
                it.op("analysis", False, f"exit code {step.rc}")
            it.timed_s = step.wall_s
            return it
        it.timings = timings
        it.timed_s = sum(timings.values())
        it.op("load", outputs["records"] == ctx.truth.records, "record count differs from the generator")
        it.op("parse_families", True)
        it.op("join_families", True)
        expected = inputs.vtt_curve(ctx.truth.detections, VTT_MAX)
        for vtt, (got, want) in enumerate(zip(outputs["vtt_coverage"], expected), start=1):
            it.op(f"vtt_coverage({vtt})", got == want, f"{got} != generator's {want}")
        for name in ("heatmap", "composition", "consistency", "lag", "families_by_period", "overlap"):
            it.op(name, True)
        it.op("compare_plans", len(outputs["plans"]) == 6, "expected six plan rows")
        it.digest = output_digest(cwd)
        return it


class Synth(Workload):
    """``maldrift synth`` with family churn, at the same row count."""

    name = "synth"

    def setup(self, ctx: Context) -> None:
        settings = {"months": inputs.MONTHS, "per_month": RECORDS // inputs.MONTHS,
                    **SYNTH_FAMILIES, "seed": ctx.seed}
        config = "[synth]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items())
        (_fresh(ctx.work / "inputs") / "synth.ini").write_text(config)
        ctx.warm_up()

    def rows(self, ctx: Context) -> int:
        return RECORDS

    def iterate(self, ctx: Context, traced: bool) -> Iteration:
        it = Iteration(traced)
        cwd = _fresh(ctx.work / "iter")
        step = ctx.maldrift("synth", ["synth", "--config", "../inputs/synth.ini", "--out", "synth"], cwd, traced)
        it.steps.append(step)
        it.timings["synth_s"] = step.wall_s
        it.timed_s = step.wall_s
        why = _verdict(step, _check_synth, cwd)
        it.op("synth", not why, why)
        it.digest = output_digest(cwd)
        return it


def _check_synth(cwd: Path) -> str:
    """Row count and per-month class counts are fixed by the config."""
    truth = (_read_json(cwd / "synth" / "ground_truth.json") or {}).get("true_class", {})
    per_month = RECORDS // inputs.MONTHS
    malware = int(np.floor(per_month * 0.10 + 0.5))
    counts: Counter = Counter()
    with gzip.open(cwd / "synth" / "population.csv.gz", "rt", newline="") as fh:
        for row in csv.DictReader(fh):
            counts[(row["dex_date"][:7], truth.get(row["sha256"]))] += 1
    months = {month for month, _ in counts}
    want = Counter()
    for month in months:
        want[(month, "malware")] = malware
        want[(month, "goodware")] = per_month - malware
    if len(months) != inputs.MONTHS or counts != want:
        return f"{sum(counts.values())} rows over {len(months)} months; per-month class counts are not exact"
    return ""


WORKLOADS = {w.name: w for w in (Chain(), Analysis(), Synth())}


def trace_metrics(iteration: Iteration, rows: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced iteration, and any span-coverage faults.

    Self times of every span in a step, the root included, must add up to
    the root span's duration.
    """
    selves_total, counts, imports = Counter(), Counter(), []
    values: dict[str, float] = {}
    faults = []
    for step in iteration.steps:
        trace = step.trace
        if trace is None:
            faults.append(f"{step.name}: no trace written")
            continue
        selves = self_times(trace["spans"])
        root = [s for s in trace["spans"] if s[3] < 0]
        wall = sum(s[2] - s[1] for s in root)
        if len(root) != 1 or abs(sum(selves.values()) - wall) > 1e-6 * max(1.0, wall):
            faults.append(f"{step.name}: self times add to {sum(selves.values()):.6f} s, step took {wall:.6f} s")
        selves_total.update(selves)
        counts.update(trace["counts"])
        if "import_s" in trace:
            values[f"cli.{step.name}.self_s"] = selves.get(f"cli.{step.name}", 0.0)
            imports.append(trace["import_s"])
    if imports:
        values["cli.import_s"] = statistics.median(imports)
    for name, seconds in selves_total.items():
        values[f"{name}.s"] = seconds
    values.update(counts)
    values["ingest.reparse_ratio"] = counts.get("ingest.parse_metadata.rows", 0) / rows
    values["labeling.label.per_row"] = counts.get("labeling.label.calls", 0) / rows
    return values, faults
