"""maldrift: bias-controlled dataset sampling and drift-aware evaluation.

Samples reproducible, constraint-checked datasets from app-metadata
populations (detection-threshold labeling, timestamp policies, market and
class-ratio constraints, statistically sized strata) and evaluates
externally produced classifier predictions over rolling time windows.

Importing the package loads no submodule: each name below loads its module
on first use (PEP 562), so a command pays only for the modules it runs.
"""
import importlib

from .version import __version__

# exported name -> the submodule that defines it
_MODULE_OF = {
    name: module
    for module, names in {
        "model": "ApkRecord ClassLabel Granularity Period Population period_of period_range",
        "labeling": "LabelRule TimestampKind TimestampPolicy label market_composition market_consistency"
        " timeline_date timestamp_lag_stats vtt_coverage vtt_market_heatmap",
        "ingest": "PredictionRow PredictionSet parse_families parse_metadata parse_predictions snapshot_filter"
        " write_metadata_csv",
        "sizing": "PlanMode SizingParams SizingPlan compare_plans plan_sizes required_sample_size",
        "sampler": "DatasetManifest ManifestEntry stratified_sample verify_constraints",
        "metrics": "MetricSeries SplitPlan a_aut aut confusion_metrics family_overlap overlap_series rolling_splits",
        "synth": "SynthConfig generate scenario_presets",
    }.items()
    for name in names.split()
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
