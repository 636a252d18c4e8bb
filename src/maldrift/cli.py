"""Command-line surface: config handling, end-to-end workflows, report emission.

Settings resolve flag > config file > default. The config file is an INI
document with one section per subcommand. Exit codes: 0 success, 1 error,
2 usage, 3 constraint refusal.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

# numpy and the layers load inside the commands that run them, so --help,
# --version and a usage error load none of them
from .errors import FormatError, MissingPredictionsError
from .version import __version__

if TYPE_CHECKING:
    from . import ingest as ingest_mod, labeling, sizing
    from .model import Granularity, Period

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3

CACHE_ENV = "MALDRIFT_CACHE_DIR"

WORKERS_HELP = "deprecated and ignored (sampling and generation run serially); kept so existing command lines work"

# the labeling.TimestampKind value of each --timestamp name
_TIMESTAMP_KINDS = {"dex": "creation_dex", "vt": "creation_vt", "crawl": "publication_crawl"}
# the values of sizing.PlanMode and metrics.METRIC_NAMES, in their order
_MODES = ("global", "yearly", "monthly")
_METRICS = ("f1", "fpr", "tpr", "precision", "recall")


class Settings:
    """Per-subcommand setting resolution: flag, then config file, then default.

    A config file that is not UTF-8 or that configparser cannot read, or a
    value its cast refuses, is a FormatError naming the file and the line, or
    the section and the key; a flag's value that a _Checked cast refuses names the flag.
    """

    def __init__(self, args: argparse.Namespace, section: str):
        self.args = vars(args)
        self.name = section
        self.section: dict[str, str] = {}
        self.config_path = self.args.get("config")
        if self.config_path:
            parser = configparser.ConfigParser()
            raw = Path(self.config_path).read_bytes()
            try:
                parser.read_file(io.StringIO(raw.decode("utf-8"), newline=None), source=self.config_path)
                if parser.has_section(section):
                    self.section = dict(parser.items(section))
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                message = f"invalid UTF-8 (byte 0x{raw[exc.start]:02x}: {exc.reason})"
                raise FormatError(f"{self.config_path}:{line}: {message}") from None
            except configparser.Error as exc:
                # a ParsingError lists its bad lines; the other errors name one line, or none
                lineno = getattr(exc, "lineno", None) or (exc.errors[0][0] if getattr(exc, "errors", None) else None)
                where = f"{self.config_path}:{lineno}" if lineno else self.config_path
                raise FormatError(f"{where}: {exc.message.splitlines()[0]}") from None

    def get(self, key: str, default=None, cast=None):
        value, raw = self.args.get(key), None
        if value is None and key in self.section:
            raw, where = self.section[key], f"{self.config_path}: [{self.name}] {key} ="
        elif value is not None and isinstance(cast, _Checked):  # a flag's text, which argparse took as it is
            raw, where = value, f"--{key.replace('_', '-')}"
        if raw is not None:
            try:
                value = raw.strip().lower() in ("1", "true", "yes", "on") if cast is bool else cast(raw) if cast else raw
            except (ValueError, KeyError) as exc:
                raise FormatError(f"{where} {raw!r}: {exc}") from None
        return default if value is None else value

    def given(self, **casts) -> dict:
        """The settings among casts' keys that a flag or the config file gives, each read with its cast."""
        return {key: value for key, cast in casts.items() if (value := self.get(key, None, cast)) is not None}


def _one_of(names) -> Callable[[str], str]:
    """The cast of a config value that must be one of names."""

    def cast(text: str) -> str:
        if text not in names:
            raise ValueError(f"not one of {', '.join(sorted(names))}")
        return text

    return cast


class _Checked:
    """The cast of a setting that parse must read, from a flag or the config file;
    the value keeps its text, and an empty one stays unset."""

    def __init__(self, parse: Callable[[str], object]):
        self.parse = parse

    def __call__(self, text: str) -> str:
        if text:
            self.parse(text)
        return text


def _period_at(granularity: Granularity) -> Callable[[str], Period]:
    """The cast of a --ref-period, which must be of the --granularity of the overlap series."""

    def parse(text: str) -> Period:
        from .model import Period

        period = Period.parse(text)
        if period.granularity is not granularity:
            raise ValueError(f"a {period.granularity.value} period, while --granularity is {granularity.value}")
        return period

    return parse


def _ints(text: str) -> list[int]:
    """A comma-separated list of integers read from a config file."""
    return [int(v) for v in text.split(",")]


_timestamp_name = _one_of(_TIMESTAMP_KINDS)


def _policy_from(settings: Settings) -> labeling.TimestampPolicy:
    from .labeling import TimestampKind, TimestampPolicy

    kind = TimestampKind(_TIMESTAMP_KINDS[settings.get("timestamp", "crawl", _timestamp_name)])
    fallback_name = settings.get("timestamp_fallback", None, _timestamp_name)
    fallback = TimestampKind(_TIMESTAMP_KINDS[fallback_name]) if fallback_name else None
    return TimestampPolicy(kind, fallback)


def _say(text) -> None:
    """Print text as a line to stdout, what its encoding cannot hold as backslash
    escapes, so no command fails, or writes other files, under another locale."""
    encoding = sys.stdout.encoding or "utf-8"
    print(str(text).encode(encoding, "backslashreplace").decode(encoding))


def write_run_config(out: Path, command: str, config: dict) -> None:
    """Echo the fully-resolved run configuration next to the outputs."""
    from . import ingest as ingest_mod

    payload = {"tool_version": __version__, "command": command, "config": config}
    ingest_mod._write_json(out / "run_config.json", payload, sort_keys=True)


def _out_dir(settings: Settings, default: Optional[str] = None) -> Optional[Path]:
    """The out setting's directory, made; None when neither it nor default is given."""
    out = settings.get("out", default)
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args: argparse.Namespace) -> int:
    import numpy as np

    from . import ingest as ingest_mod
    from .model import MIN_YEAR

    settings = Settings(args, "ingest")
    strict = settings.get("strict", False, bool)
    cache_default = os.environ.get(CACHE_ENV, "maldrift_cache")
    out = _out_dir(settings, cache_default)
    with ingest_mod.open_text(args.input) as fh:
        result = ingest_mod.parse_metadata(fh, strict=strict, provenance=args.input)
    pop, stats = result.population, result.stats
    if args.families:
        with ingest_mod.open_text(args.families) as fh:
            mapping, malformed = ingest_mod.parse_families(fh)
        pop, join_stats = ingest_mod.join_families(pop, mapping)
        del mapping  # not held through the writes
        family_info = {
            "mapped": join_stats.mapped,
            "matched": join_stats.matched,
            "unmatched": join_stats.unmatched,
            "malformed": malformed,
        }
    else:
        family_info = None
    ingest_mod.write_population(pop, out / "population.csv.gz", sidecar=True)
    counts = np.bincount(pop.dex_date.astype("datetime64[Y]").view(np.int64))  # years from 1970, MIN_YEAR
    per_year = {str(MIN_YEAR + year): n for year, n in enumerate(counts.tolist()) if n}
    stats_payload = {
        "rows": stats.rows,
        "parsed": stats.parsed,
        "malformed_skipped": stats.malformed,
        "duplicates": stats.duplicates,
        "records": len(pop),
        "per_dex_year": dict(sorted(per_year.items())),
        "families": family_info,
    }
    ingest_mod._write_json(out / "ingest_stats.json", stats_payload)
    write_run_config(out, "ingest", {"input": args.input, "strict": strict})
    _say(f"ingested {len(pop)} records -> {out / 'population.csv.gz'}")
    _say(f"rows={stats.rows} malformed={stats.malformed} duplicates={stats.duplicates}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    if not (args.vtt_curve or args.markets or args.timestamps or args.overlap):
        print("nothing to do: pass at least one of --vtt-curve/--markets/--timestamps/--overlap", file=sys.stderr)
        return EXIT_USAGE
    from . import ingest as ingest_mod, labeling
    from .model import Granularity, Period

    settings = Settings(args, "stats")
    out = _out_dir(settings, "stats_out")
    pop = ingest_mod.load_population(args.population)
    rule = labeling.LabelRule(settings.get("vtt", 4, int))
    wrote = []
    if args.vtt_curve:
        rows = []
        for vtt in range(1, settings.get("vtt_max", 40, int) + 1):
            rows.append((vtt, f"{labeling.vtt_coverage(pop, vtt):.6f}"))
        ingest_mod.write_csv(out / "vtt_coverage.csv", ("vtt", "coverage"), rows)
        heatmap = labeling.vtt_market_heatmap(pop, settings.get("vtt_values", [1, 4, 10, 15, 20], _ints))
        heat_rows = []
        for vtt, row in heatmap.items():
            if row is None:
                heat_rows.append((vtt, "", ""))
                continue
            for market, pct in row.items():
                heat_rows.append((vtt, market, f"{pct:.4f}"))
        ingest_mod.write_csv(out / "vtt_market_heatmap.csv", ("vtt", "market", "pct"), heat_rows)
        wrote += ["vtt_coverage.csv", "vtt_market_heatmap.csv"]
    if args.markets:
        comp = labeling.market_composition(pop, rule)
        ingest_mod.write_csv(
            out / "market_composition.csv",
            ("market", "goodware_pct", "malware_pct"),
            [(r.market, f"{r.goodware_pct:.4f}", f"{r.malware_pct:.4f}") for r in comp],
        )
        consistency = labeling.market_consistency(pop, rule)
        ingest_mod._write_json(
            out / "market_consistency.json",
            {
                "tv_distance": round(consistency.tv_distance, 6),
                "passed": consistency.passed,
                "threshold": consistency.threshold,
            },
        )
        wrote += ["market_composition.csv", "market_consistency.json"]
    if args.timestamps:
        kinds = labeling.TimestampKind
        lag = labeling.timestamp_lag_stats(pop, kinds.CREATION_DEX, kinds.PUBLICATION_CRAWL)
        ingest_mod.write_csv(
            out / "timestamp_lag.csv",
            ("stat", "value"),
            [
                ("count", lag.count),
                ("excluded", lag.excluded),
                ("median_days", f"{lag.median_days:.4f}"),
                ("q1_days", f"{lag.q1_days:.4f}"),
                ("q3_days", f"{lag.q3_days:.4f}"),
            ],
        )
        ingest_mod.write_csv(
            out / "timestamp_lag_histogram.csv",
            ("day_lag", "count"),
            sorted(lag.histogram.items()),
        )
        wrote += ["timestamp_lag.csv", "timestamp_lag_histogram.csv"]
    if args.overlap:
        from . import metrics

        policy = _policy_from(settings)
        gran = Granularity(settings.get("granularity", "year", Granularity))
        slices = metrics.malware_families_by_period(pop, rule, policy, gran)
        if not slices:
            raise ValueError("no datable malware records for overlap statistics")
        periods = sorted(slices, key=lambda p: p.index)
        ref_raw = settings.get("ref_period", None, _Checked(_period_at(gran)))
        ref = Period.parse(str(ref_raw)) if ref_raw else periods[0]
        tests = [p for p in periods if p != ref]
        series = metrics.overlap_series(slices, ref, tests)
        ingest_mod.write_csv(
            out / "family_overlap.csv",
            ("period", "overlap"),
            [(str(p), f"{v:.6f}") for p, v in series.points],
        )
        wrote.append("family_overlap.csv")
    write_run_config(out, "stats", {"population": args.population, "tables": wrote})
    _say(f"wrote {', '.join(wrote)} -> {out}")
    return EXIT_OK


def cmd_sample_size(args: argparse.Namespace) -> int:
    from . import sizing

    settings = Settings(args, "sample-size")
    n = sizing.required_sample_size(args.population_size, _sizing_params(settings))
    _say(n)
    return EXIT_OK


def _sizing_params(settings: Settings) -> sizing.SizingParams:
    from .sizing import SizingParams

    return SizingParams(**settings.given(confidence=float, delta=float, p=float, bonferroni_m=int))


def _sizing_inputs(settings: Settings):
    from . import sizing
    from .labeling import LabelRule

    rule = LabelRule(settings.get("vtt", 4, int))
    policy = _policy_from(settings)
    plan = sizing.SizingPlan(
        mode=sizing.PlanMode(settings.get("mode", "monthly", sizing.PlanMode)),
        spatial=settings.get("spatial", False, bool),
        ratio_malware=settings.get("ratio", 0.10, float),
    )
    return rule, policy, plan, _sizing_params(settings)


def cmd_sample(args: argparse.Namespace) -> int:
    from . import ingest as ingest_mod, sampler, sizing
    from .model import parse_timestamp

    settings = Settings(args, "sample")
    out = _out_dir(settings, "sample_out")
    seed = settings.get("seed", 0, int)
    allow_violations = settings.get("allow_violations", False, bool)
    rule, policy, plan, params = _sizing_inputs(settings)
    pop = ingest_mod.load_population(args.population)
    snapshot_raw = settings.get("snapshot", None, _Checked(parse_timestamp))
    if snapshot_raw:
        snap = ingest_mod.snapshot_filter(pop, parse_timestamp(snapshot_raw))
        pop = snap.population
        _say(
            f"snapshot {snapshot_raw}: kept {len(pop)}, dropped {snap.dropped_late} late,"
            f" {snap.dropped_missing_crawl} without crawl date"
        )
        del snap  # else its population outlives a --markets selection
    markets_raw = settings.get("markets")
    market_filter = frozenset(m.strip() for m in markets_raw.split(",") if m.strip()) if markets_raw else None
    if market_filter:
        pop = pop.select(pop.carrying_any(market_filter))

    plan_result = sizing.plan_sizes(pop, rule, policy, plan, params)
    for warning in plan_result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    manifest = sampler.stratified_sample(pop, rule, policy, plan_result, seed=seed, market_filter=market_filter)
    checks = sampler.verify_constraints(manifest, population=pop)
    results = _print_checks(checks)
    failures = [c for c in checks if not c.passed]
    config_echo = {
        "population": args.population,
        "seed": seed,
        "vtt": rule.vtt,
        "timestamp": settings.get("timestamp", "crawl"),
        "mode": plan.mode.value,
        "spatial": plan.spatial,
        "ratio": plan.ratio_malware,
        "markets": sorted(market_filter) if market_filter else None,
        "snapshot": snapshot_raw,
        "allow_violations": allow_violations,
    }
    if failures and not allow_violations:
        print(
            f"refusing to emit manifest: {len(failures)} constraint check(s) failed "
            "(use --allow-violations to stamp and emit)",
            file=sys.stderr,
        )
        return EXIT_CONSTRAINT
    manifest = manifest._replace(
        checks=tuple(results), violations=tuple({"check": c.name, "evidence": c.evidence} for c in failures)
    )
    sampler.write_manifest_json(manifest, out / "manifest.json")
    with ingest_mod._replacing(out / "manifest.csv") as fh:
        sampler.write_manifest_csv(manifest, fh)
    ingest_mod.write_csv(
        out / "plan.csv",
        ("period", "population", "n", "malware", "goodware", "malware_shortfall", "goodware_shortfall"),
        [
            (
                str(s.period) if s.period else "global",
                s.population,
                s.n,
                "" if s.malware is None else s.malware,
                "" if s.goodware is None else s.goodware,
                s.malware_shortfall,
                s.goodware_shortfall,
            )
            for s in plan_result.strata
        ],
    )
    write_run_config(out, "sample", config_echo)
    _say(f"manifest with {len(manifest)} entries -> {out / 'manifest.json'}")
    return EXIT_OK


def _print_checks(checks) -> list[dict]:
    """Print a PASS or FAIL line per check; the checks as name, passed and evidence dicts."""
    for check in checks:
        _say(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.evidence}")
    return [{"name": c.name, "passed": c.passed, "evidence": c.evidence} for c in checks]


def cmd_verify(args: argparse.Namespace) -> int:
    from . import ingest as ingest_mod, sampler

    settings = Settings(args, "verify")
    manifest = sampler.read_manifest_json(args.manifest)
    pop = ingest_mod.load_population(args.population) if args.population else None
    checks = sampler.verify_constraints(manifest, population=pop)
    results = _print_checks(checks)
    out = _out_dir(settings)
    if out:
        ingest_mod._write_json(out / "verify.json", results)
        write_run_config(out, "verify", {"manifest": args.manifest, "population": args.population})
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CONSTRAINT


def cmd_split(args: argparse.Namespace) -> int:
    from . import metrics
    from .model import Period

    settings = Settings(args, "split")
    window = settings.get("window", 12, int)
    plan = metrics.rolling_splits(
        Period.parse(settings.get("start", None, _Checked(Period.parse))),
        Period.parse(settings.get("end", None, _Checked(Period.parse))),
        window,
        allow_partial_last=settings.get("allow_partial", False, bool),
    )
    payload = [
        {
            "label": s.label(),
            "train": [str(p) for p in s.train],
            "test": [str(p) for p in s.test],
        }
        for s in plan.splits
    ]
    for split in plan.splits:
        _say(split.label())
    out = _out_dir(settings)
    if out:
        from . import ingest as ingest_mod

        ingest_mod._write_json(out / "splits.json", {"window_months": window, "splits": payload})
    return EXIT_OK


def _parse_predset_arg(value: str, threshold: float) -> tuple[ingest_mod.PredictionSet, str]:
    """The prediction set of a [NAME=]PATH value, and what its parse dropped ("" if nothing)."""
    from . import ingest as ingest_mod

    if "=" in value:
        name, path = value.split("=", 1)
    else:
        name, path = Path(value).stem, value
    with ingest_mod.open_text(path) as fh:
        predset, stats = ingest_mod.parse_predictions(fh, name=name, threshold=threshold)
    note = f"{path}: dropped rows: malformed={stats.malformed} duplicates={stats.duplicates}"
    return predset, note if stats.malformed or stats.duplicates else ""


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import ingest as ingest_mod, report, sampler

    if not (bool(args.aut_table) == (not args.manifest) == (not args.predictions)):
        print("evaluate takes --aut-table alone, or --manifest with --predictions", file=sys.stderr)
        return EXIT_USAGE
    settings = Settings(args, "evaluate")
    out = _out_dir(settings, "evaluate_out")
    window = settings.get("window", 12, int)
    if args.aut_table:
        result = report.report_from_aut_table(ingest_mod.read_aut_table(args.aut_table), window)
        config_echo = {"aut_table": args.aut_table, "window": window}
    else:
        threshold = settings.get("threshold", 0.5, float)
        manifest = sampler.read_manifest_json(args.manifest)
        predsets, dropped = zip(*(_parse_predset_arg(v, threshold) for v in args.predictions))
        try:
            result = report.evaluate_manifest(
                manifest,
                predsets,
                window,
                metric=settings.get("metric", "f1", _one_of(_METRICS)),
                lenient=settings.get("lenient", False, bool),
            )
        except MissingPredictionsError as exc:  # a dropped row is a likely cause: name them on the same line
            raise MissingPredictionsError("; ".join([str(exc), *filter(None, dropped)]), exc.hashes) from None
        for note in filter(None, dropped):  # once scored, so an error stays stderr's first line
            print(f"warning: {note}", file=sys.stderr)
        config_echo = {
            "manifest": args.manifest,
            "predictions": list(args.predictions),
            "window": window,
            "threshold": threshold,
        }
    markdown = report.render_aut_markdown(result)
    with ingest_mod._replacing(out / "report.md") as fh:
        fh.write(markdown)
    header, rows = report.aut_table_rows(result)
    ingest_mod.write_csv(out / "aut_table.csv", header, rows)
    ingest_mod._write_json(out / "report.json", report.report_to_dict(result))
    if result.window_series:
        with ingest_mod._replacing(out / "window_series.csv") as fh:
            report.write_window_series_csv(result, fh)
    write_run_config(out, "evaluate", config_echo)
    _say(markdown.removesuffix("\n"))  # printed last
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from . import ingest as ingest_mod, synth

    settings = Settings(args, "synth")
    out = _out_dir(settings, "synth_out")
    presets = synth.scenario_presets()
    if args.preset and args.preset not in presets:
        print(f"unknown preset {args.preset!r}; available: {', '.join(sorted(presets))}", file=sys.stderr)
        return EXIT_USAGE
    config = dataclasses.replace(
        presets[args.preset] if args.preset else synth.SynthConfig(),
        **settings.given(
            months=int, per_month=int, malware_fraction=float, family_pool=int,
            family_birth_rate=int, family_lifetime=int, start=str, seed=int,
        ),
    )
    pop, truth = synth.generate(config)
    ingest_mod.write_population(pop, out / "population.csv.gz")
    echo = dataclasses.asdict(config)
    synth.write_ground_truth(truth, echo, out / "ground_truth.json")
    write_run_config(out, "synth", echo | {"preset": args.preset})
    _say(f"generated {len(pop)} records over {config.months} months -> {out / 'population.csv.gz'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maldrift",
        description="Bias-controlled dataset sampling and drift-aware evaluation for app metadata.",
    )
    parser.add_argument("--version", action="version", version=f"maldrift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file with one section per subcommand")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("ingest", help="parse a metadata CSV into a population cache")
    common(p)
    p.add_argument("--input", required=True, help="metadata CSV (optionally .gz)")
    p.add_argument("--families", help="sha256,family CSV to join")
    p.add_argument("--strict", action="store_const", const=True, help="fail on malformed rows")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="population statistics tables")
    common(p)
    p.add_argument("--population", required=True)
    p.add_argument("--vtt-curve", action="store_true", help="detection-threshold coverage curve and market heatmap")
    p.add_argument("--markets", action="store_true", help="market composition and consistency")
    p.add_argument("--timestamps", action="store_true", help="timestamp lag distribution")
    p.add_argument("--overlap", action="store_true", help="family overlap series")
    p.add_argument("--vtt", type=int)
    p.add_argument("--vtt-max", type=int)
    p.add_argument("--timestamp", choices=sorted(_TIMESTAMP_KINDS))
    p.add_argument("--ref-period", help="reference period for --overlap (e.g. 2014)")
    p.add_argument("--granularity", choices=["month", "year"])
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sample-size", help="minimum representative sample size")
    common(p)
    p.add_argument("--population-size", type=int, required=True)
    p.add_argument("--confidence", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--bonferroni-m", type=int)
    p.set_defaults(func=cmd_sample_size)

    p = sub.add_parser("sample", help="draw a constraint-checked stratified sample")
    common(p)
    p.add_argument("--population", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--vtt", type=int)
    p.add_argument("--timestamp", choices=sorted(_TIMESTAMP_KINDS))
    p.add_argument("--timestamp-fallback", choices=sorted(_TIMESTAMP_KINDS))
    p.add_argument("--mode", choices=_MODES)
    p.add_argument("--spatial", action=argparse.BooleanOptionalAction)
    p.add_argument("--ratio", type=float, help="malware ratio for spatial plans")
    p.add_argument("--confidence", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--bonferroni-m", type=int)
    p.add_argument("--markets", help="comma-separated market filter")
    p.add_argument("--snapshot", help="crawl-date cutoff emulating a historical snapshot")
    p.add_argument("--workers", type=int, help=WORKERS_HELP)
    p.add_argument("--allow-violations", action="store_const", const=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="re-check a manifest against the constraints")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--population")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("split", help="rolling train/test windows")
    common(p)
    p.add_argument("--start", required=True, help="first month, e.g. 2014-01")
    p.add_argument("--end", required=True, help="last month, e.g. 2018-12")
    p.add_argument("--window", type=int)
    p.add_argument("--allow-partial", action="store_const", const=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="rolling-window metric report for prediction sets")
    common(p)
    p.add_argument("--manifest")
    p.add_argument(
        "--predictions",
        action="append",
        help="prediction CSV as name=path (repeatable)",
    )
    p.add_argument("--aut-table", help="CSV of name,aut1,aut2,... to aggregate directly")
    p.add_argument("--window", type=int)
    p.add_argument("--metric", choices=_METRICS)
    p.add_argument("--threshold", type=float)
    p.add_argument("--lenient", action="store_const", const=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic population with ground truth")
    common(p)
    p.add_argument(
        "--preset",
        help="named scenario (see synth.scenario_presets); the other flags below and [synth] keys override its fields",
    )
    p.add_argument("--months", type=int)
    p.add_argument("--per-month", type=int)
    p.add_argument("--malware-fraction", type=float)
    p.add_argument("--family-pool", type=int)
    p.add_argument("--family-birth-rate", type=int)
    p.add_argument("--family-lifetime", type=int)
    p.add_argument("--start")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, help=WORKERS_HELP)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, MissingPredictionsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
