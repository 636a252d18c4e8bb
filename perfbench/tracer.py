"""Out-of-process layer timing: wrap maldrift's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules at
every module attribute that binds it (``sizing`` binds ``labeling.label``
under its own name, ``cli`` reaches ``ingest`` through ``ingest_mod``), so
each call is seen wherever it comes from. Functions called once per record
only count calls; every other function records a span. Spans stay in memory
until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("model", "ingest", "labeling", "sizing", "sampler", "metrics", "report", "synth")

# Called once per record or field: a span each would cost more than the work.
PER_RECORD = frozenset(
    {
        "model.parse_timestamp",
        "model.format_timestamp",
        "model.period_of",
        "labeling.label",
        "labeling.timeline_date",
        "labeling.attribute_market",
        "labeling.market_sort_key",
    }
)

# Extra counts read off a function's result: metadata rows each parse read.
RESULT_COUNTS = {"ingest.parse_metadata": ("ingest.parse_metadata.rows", lambda r: r.stats.rows)}


class Tracer:
    """Spans (name, start, end, parent, step, id) and call counts for one process."""

    def __init__(self, step: str):
        self.step = step
        self.spans: list[tuple[str, float, float, int, str, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._next_id = 0

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"maldrift.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "maldrift" and not module_name.startswith("maldrift."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
        population = sys.modules["maldrift.model"].Population
        population.__iter__ = self._counting("model.population_passes", population.__iter__)

    def _wrap(self, name: str, fn):
        if name in PER_RECORD:
            return self._counting(f"{name}.calls", fn)
        counts, stack, spans, step = self.counts, self._stack, self.spans, self.step
        extra = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            counts[f"{name}.calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, parent, step, span_id))
            if extra is not None:
                counts[extra[0]] += extra[1](result)
            return result

        return span

    def _counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return count

    def root(self, name: str, fn, *args):
        """Run fn as the step's root span, so its self time is the glue code."""
        return self._wrap(name, fn)(*args)

    def dump(self, path: Path, **extra) -> None:
        payload = {
            "step": self.step,
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            **extra,
        }
        Path(path).write_text(json.dumps(payload))


def self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus the time its child spans cover.

    Spans come from one thread and nest, so children never overlap and the
    covered time is the sum of child durations.
    """
    child_time: Counter = Counter()
    for _name, start, end, parent, _step, _id in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for name, start, end, _parent, _step, span_id in spans:
        out[name] += (end - start) - child_time[span_id]
    return dict(out)
