"""One benchmark child process: a traced CLI step, or the in-memory analysis.

    child.py cli TRACE_JSON STEP MALDRIFT_ARGS...
    child.py analysis TRACE_JSON|- METADATA FAMILIES OUTPUT_JSON TIMINGS_JSON

Untraced CLI steps do not come here: they run as ``python -m maldrift.cli``,
as a user runs them. A traced child installs the wrappers after importing
maldrift and before the first call, and writes its spans when it ends.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer

VTT_VALUES = (1, 4, 10, 15, 20)
VTT_MAX = 40


def run_cli(trace_path: str, step: str, argv: list[str]) -> int:
    start = time.perf_counter()
    from maldrift import cli

    import_s = time.perf_counter() - start
    tracer = Tracer(step)
    tracer.install()
    rc = 1
    try:
        rc = tracer.root(f"cli.{step}", cli.main, argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(Path(trace_path), import_s=import_s, rc=rc)
    return rc


def _plans():
    """The six plans of scripts/plan_table.py (Bonferroni m = 30)."""
    from maldrift.sizing import PlanMode, SizingParams, SizingPlan

    moe, dada = SizingParams(), SizingParams(bonferroni_m=30)
    return [
        (SizingPlan(PlanMode.GLOBAL), dada),
        (SizingPlan(PlanMode.GLOBAL, spatial=True), moe),
        (SizingPlan(PlanMode.YEARLY), moe),
        (SizingPlan(PlanMode.MONTHLY), moe),
        (SizingPlan(PlanMode.YEARLY, spatial=True), moe),
        (SizingPlan(PlanMode.MONTHLY, spatial=True), moe),
    ]


def analysis(metadata: str, families: str) -> tuple[dict, dict]:
    """Load once, then compute what ``maldrift stats --vtt-curve --markets
    --timestamps --overlap`` and the plan table compute, in memory."""
    from maldrift import ingest, labeling, metrics, sizing
    from maldrift.model import Granularity

    clock = time.perf_counter
    t0 = clock()
    with ingest.open_text(metadata) as fh:
        pop = ingest.parse_metadata(fh, provenance=metadata).population
    with ingest.open_text(families) as fh:
        mapping, _ = ingest.parse_families(fh)
    pop, _ = ingest.join_families(pop, mapping)
    t1 = clock()

    rule = labeling.LabelRule(4)
    kinds = labeling.TimestampKind
    curve = [labeling.vtt_coverage(pop, v) for v in range(1, VTT_MAX + 1)]
    heatmap = labeling.vtt_market_heatmap(pop, VTT_VALUES)
    composition = labeling.market_composition(pop, rule)
    consistency = labeling.market_consistency(pop, rule)
    lag = labeling.timestamp_lag_stats(pop, kinds.CREATION_DEX, kinds.PUBLICATION_CRAWL)
    slices = metrics.malware_families_by_period(
        pop, rule, labeling.TimestampPolicy(kinds.PUBLICATION_CRAWL), Granularity.YEAR
    )
    periods = sorted(slices, key=lambda p: p.index)
    overlap = metrics.overlap_series(slices, periods[0], periods[1:])
    t2 = clock()

    plans = sizing.compare_plans(pop, rule, labeling.TimestampPolicy(kinds.CREATION_DEX), _plans())
    t3 = clock()
    timings = {"load_s": t1 - t0, "stats_s": t2 - t1, "plans_s": t3 - t2}
    # rendered as `maldrift stats` and scripts/plan_table.py write them; the
    # coverage curve stays exact for the check against the generator
    return timings, {
        "records": len(pop),
        "vtt_coverage": curve,
        "vtt_market_heatmap": {
            str(vtt): None if row is None else [[m, f"{pct:.4f}"] for m, pct in row.items()]
            for vtt, row in heatmap.items()
        },
        "market_composition": [[r.market, f"{r.goodware_pct:.4f}", f"{r.malware_pct:.4f}"] for r in composition],
        "market_consistency": [round(consistency.tv_distance, 6), consistency.passed],
        "timestamp_lag": [lag.count, lag.excluded, f"{lag.median_days:.4f}", f"{lag.q1_days:.4f}",
                          f"{lag.q3_days:.4f}", sorted(lag.histogram.items())],
        "family_overlap": [[str(p), f"{v:.6f}"] for p, v in overlap.points],
        "plans": [[s.name, s.total, f"{s.malware_per_month_mean:.1f}", f"{s.malware_per_month_std:.1f}"]
                  for s in plans],
    }


def run_analysis(trace_path: str, metadata: str, families: str, output_path: str, timings_path: str) -> int:
    if trace_path == "-":
        timings, outputs = analysis(metadata, families)
    else:
        tracer = Tracer("analysis")
        tracer.install()
        try:
            timings, outputs = tracer.root("analysis", analysis, metadata, families)
        finally:
            tracer.dump(Path(trace_path))
    Path(output_path).write_text(json.dumps(outputs, sort_keys=True))
    Path(timings_path).write_text(json.dumps(timings))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    if argv[0] == "analysis":
        return run_analysis(*argv[1:6])
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
