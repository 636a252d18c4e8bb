#!/usr/bin/env python3
"""End-to-end desk-scale walkthrough of the sampling and evaluation workflow.

Generates a drifting synthetic population, draws a constraint-checked
monthly spatial sample, fabricates two classifiers whose accuracy decays at
different rates with temporal distance from the training window, and renders
the rolling-window report. Everything is seeded and reproducible.
"""
import argparse
import random
from pathlib import Path

from maldrift.ingest import PredictionRow, PredictionSet, write_csv
from maldrift.labeling import LabelRule, TimestampKind, TimestampPolicy
from maldrift.model import ClassLabel
from maldrift.report import evaluate_manifest, render_aut_markdown, aut_table_rows
from maldrift.sampler import stratified_sample, verify_constraints, write_manifest_json
from maldrift.sizing import PlanMode, SizingParams, SizingPlan, plan_sizes
from maldrift.synth import SynthConfig, generate


def decaying_classifier(manifest, name, base_accuracy, decay_per_month, seed):
    """Predictions that get noisier the further a month lies from the start."""
    rng = random.Random(seed)
    first = min(e.period.index for e in manifest.entries)
    rows = {}
    for entry in manifest.entries:
        age = entry.period.index - first
        accuracy = max(0.5, base_accuracy - decay_per_month * age)
        truth = 1 if entry.label is ClassLabel.MALWARE else 0
        predicted = truth if rng.random() < accuracy else 1 - truth
        rows[entry.sha256] = PredictionRow(entry.sha256, 0.9 if predicted else 0.1)
    return PredictionSet(name, rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--months", type=int, default=36)
    parser.add_argument("--per-month", type=int, default=1000)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    config = SynthConfig(
        months=args.months,
        per_month=args.per_month,
        family_pool=args.months,
        family_birth_rate=1,
        family_lifetime=args.months,
        seed=args.seed,
    )
    pop, _ = generate(config)
    print(f"population: {len(pop)} records over {args.months} months")

    rule = LabelRule(4)
    policy = TimestampPolicy(TimestampKind.PUBLICATION_CRAWL, TimestampKind.CREATION_DEX)
    plan = SizingPlan(PlanMode.MONTHLY, spatial=True, ratio_malware=0.10)
    sizing = plan_sizes(pop, rule, policy, plan, SizingParams())
    manifest = stratified_sample(pop, rule, policy, sizing, seed=args.seed)
    for check in verify_constraints(manifest, population=pop):
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.evidence}")
    write_manifest_json(manifest, out / "manifest.json")
    print(f"sampled {len(manifest.entries)} entries -> {out / 'manifest.json'}")

    stable = decaying_classifier(manifest, "slow-drift", 0.95, 0.004, seed=1)
    fragile = decaying_classifier(manifest, "fast-drift", 0.98, 0.015, seed=2)
    result = evaluate_manifest(manifest, [stable, fragile], window_months=12)
    print()
    print(render_aut_markdown(result))
    header, rows = aut_table_rows(result)
    write_csv(out / "aut_table.csv", header, rows)
    print(f"report -> {out / 'aut_table.csv'}")


if __name__ == "__main__":
    main()
