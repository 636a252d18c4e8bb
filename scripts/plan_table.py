#!/usr/bin/env python3
"""Compare sampling-plan totals and malware-per-month on one population.

Reproduces the shape of the sampling-approach comparison table: a plain
margin-of-error plan, its Bonferroni-corrected variant, and the yearly /
monthly / spatial combinations, all applied to the same population.
"""
import argparse
from pathlib import Path

from maldrift.ingest import load_population, write_csv
from maldrift.labeling import LabelRule, TimestampKind, TimestampPolicy
from maldrift.sizing import PlanMode, SizingParams, SizingPlan, compare_plans
from maldrift.synth import SynthConfig, generate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--population", help="metadata CSV (.gz ok) or population.npz, loaded as stats loads it; default: synthetic 60 months"
    )
    parser.add_argument("--vtt", type=int, default=4)
    parser.add_argument("--timestamp", choices=["dex", "vt", "crawl"], default="dex")
    parser.add_argument("--bonferroni-m", type=int, default=30)
    parser.add_argument("--out", default="plan_table.csv")
    args = parser.parse_args()

    if args.population:
        pop = load_population(args.population)
    else:
        pop, _ = generate(SynthConfig(months=60, per_month=2000, family_pool=10, seed=1))
    print(f"population: {len(pop)} records")

    kinds = {
        "dex": TimestampKind.CREATION_DEX,
        "vt": TimestampKind.CREATION_VT,
        "crawl": TimestampKind.PUBLICATION_CRAWL,
    }
    rule = LabelRule(args.vtt)
    policy = TimestampPolicy(kinds[args.timestamp])
    moe = SizingParams()
    dada = SizingParams(bonferroni_m=args.bonferroni_m)
    plans = [
        (SizingPlan(PlanMode.GLOBAL), dada),
        (SizingPlan(PlanMode.GLOBAL, spatial=True), moe),
        (SizingPlan(PlanMode.YEARLY), moe),
        (SizingPlan(PlanMode.MONTHLY), moe),
        (SizingPlan(PlanMode.YEARLY, spatial=True), moe),
        (SizingPlan(PlanMode.MONTHLY, spatial=True), moe),
    ]
    rows = compare_plans(pop, rule, policy, plans)
    header = ("plan", "total", "malware_per_month_mean", "malware_per_month_std")
    table = [
        (r.name, r.total, f"{r.malware_per_month_mean:.1f}", f"{r.malware_per_month_std:.1f}")
        for r in rows
    ]
    for row in table:
        print(f"{row[0]:<22} {row[1]:>10} {row[2]:>10} ± {row[3]}")
    write_csv(Path(args.out), header, table)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
