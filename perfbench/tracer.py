"""In-memory span tracing of the regio_forecast modules, from outside the package.

``hooked(tracer)`` replaces each public function named in ``HOOKS`` with a
wrapper that records a span (name, start, end, parent) and, for some
functions, counters computed from the call's arguments and return value.
The wrapper is bound into every ``regio_forecast`` module that holds the
original function, because modules import each other's functions by name:
patching only the defining module would miss, for example, the
``predict_knn_batch`` that ``mtl`` calls. Leaving the context puts every
original back, so an untraced run executes unmodified code.

Per-row hot functions (``inverse_normal_cdf``, ``predict_knn``, the scalar
metrics, the per-day PPE rule) are deliberately not hooked: their 1e5-1e6
calls per run would distort the times being measured.

This module imports only the standard library, so importing it does not
shift the package import that the benchmark times as set-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str                      # "<module>.<function>"
    start: float
    end: float = 0.0
    parent: int | None = None      # index of the enclosing span in Tracer.spans
    counters: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counters": self.counters}


class Tracer:
    """Collects spans of one traced job in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing_hooks: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                # Counted after the span closes, so counting is not billed to
                # the hooked function; its cost falls to the caller's span.
                try:
                    s.counters = counter(signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:   # noqa: BLE001 -- an API change must not stop the run
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced


# ---------------------------------------------------------------------------
# Counters, computed from call arguments and return values.

def _parse_counts(a, ds):
    return {"rows": ds.n_rows, "bytes": os.path.getsize(a["path"])}


def _derive_counts(a, _):
    return {"rows": a["primary"].n_rows}


def _scale_counts(a, _):
    rows, cols = a["m"].values.shape
    return {"cells": rows * cols}


def _query_counts(a, _):
    queries, store_rows = len(a["queries"]), len(a["store"])
    return {"queries": queries, "store_rows": store_rows,
            "distance_evals": queries * store_rows}


def _train_counts(_, result):
    return {"instances": result[1].dedicated_instances}


def _bootstrap_counts(a, interval):
    return {"replicates": a["cfg"].replicates,
            "replicates_skipped": interval.skipped_replicates}


def _save_counts(a, _):
    return {"bytes_written": os.path.getsize(a["path"])}


def _load_counts(a, _):
    return {"bytes_read": os.path.getsize(a["path"])}


def _forecast_counts(_, series):
    return {"days": len(series)}


# module -> {public function -> counter or None}
HOOKS: dict[str, dict] = {
    "ingest": {"parse_regional_csv": _parse_counts, "split_train_test": None,
               "pool_regions": None},
    "features": {"compute_derived_features": _derive_counts, "concat_features": None,
                 "select_features": None, "score_relevance": None},
    "scaling": {"fit_quantile_scaler": None, "fit_minmax": None,
                "apply_quantile_scaler": _scale_counts, "l2_normalize_rows": None},
    "knn": {"fit_knn": None, "predict_knn_batch": _query_counts},
    "mtl": {"train_mtl": _train_counts, "train_dedicated": None, "train_generic": None,
            "transfer_to_dedicated": None, "build_design_matrix": None,
            "transform_design": None, "rows_to_primary": None, "rows_to_targets": None,
            "predict_monitoring": None, "rotate_regions": None},
    "evaluation": {"evaluate_model": None, "bootstrap_interval": _bootstrap_counts,
                   "reports_to_long_csv": None, "reports_to_target_table": None,
                   "report_to_single_region_table": None},
    "artifact": {"save_model": _save_counts, "load_model": _load_counts,
                 "atomic_write_text": None},
    "ppe": {"forecast_series": _forecast_counts, "forecast_to_csv": None},
    "synth": {"generate_regions": None, "write_region_files": None},
}

PACKAGE = "regio_forecast"


@contextmanager
def hooked(tracer: Tracer):
    """Bind span-recording wrappers for every function in HOOKS, then restore."""
    replaced: list[tuple[object, str, object]] = []
    # Load the CLI first, so the names it imports are bound to the originals
    # that are restored below.
    importlib.import_module(f"{PACKAGE}.cli")
    try:
        for module_name, functions in HOOKS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                module = None
            for fn_name, counter in functions.items():
                original = getattr(module, fn_name, None)
                if original is None:
                    tracer.missing_hooks.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, counter)
                for holder in _package_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            replaced.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(replaced):
            setattr(holder, attr, original)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


# ---------------------------------------------------------------------------
# Span arithmetic.

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def subtree(spans: list[Span], root_name: str) -> list[Span]:
    """The top-level span ``root_name`` and its descendants, re-indexed from 0."""
    root = next(i for i, s in enumerate(spans) if s.name == root_name and s.parent is None)
    index = {root: 0}
    out = [Span(spans[root].name, spans[root].start, spans[root].end)]
    for i in range(root + 1, len(spans)):
        s = spans[i]
        if s.parent in index:
            index[i] = len(out)
            out.append(Span(s.name, s.start, s.end, index[s.parent], s.counters))
    return out


def busy_time(spans: list[Span], names: set[str]) -> float:
    """Wall time inside spans named in ``names``, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s.name in names and (s.parent is None
                                or _nearest(spans, spans[s.parent], names) is None):
            total += s.duration
    return total


def _nearest(spans: list[Span], s: Span, names: set[str]) -> str | None:
    """Name of the closest span, ``s`` included, whose name is in ``names``."""
    node: Span | None = s
    while node is not None:
        if node.name in names:
            return node.name
        node = spans[node.parent] if node.parent is not None else None
    return None


def _sum(spans: list[Span], name: str, key: str) -> int:
    return sum(s.counters.get(key, 0) for s in spans if s.name == name)


_MTL_TRAIN = {"mtl.train_mtl", "mtl.train_dedicated", "mtl.train_generic"}
_MTL_PREDICT = {"mtl.predict_monitoring"}


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job, as name -> (value, unit)."""
    selfs = self_times(spans)

    entries = _MTL_TRAIN | _MTL_PREDICT
    mtl_entry = [_nearest(spans, s, entries) if s.module == "mtl" else None for s in spans]

    def mtl_self(group: set[str]) -> float:
        return sum(t for entry, t in zip(mtl_entry, selfs) if entry in group)

    def names(module: str, *fns: str) -> set[str]:
        return {f"{module}.{fn}" for fn in (fns or HOOKS[module])}

    replicates = _sum(spans, "evaluation.bootstrap_interval", "replicates")
    skipped = _sum(spans, "evaluation.bootstrap_interval", "replicates_skipped")
    store_rows = [s.counters.get("store_rows", 0) for s in spans
                  if s.name == "knn.predict_knn_batch"]
    m = {
        "evaluation.bootstrap_s": (busy_time(spans, names("evaluation", "bootstrap_interval")), "s"),
        "evaluation.replicates": (replicates, "count"),
        "evaluation.replicates_skipped": (skipped, "count"),
        # no replicate drawn means none wasted
        "evaluation.useful_ratio": ((replicates - skipped) / replicates if replicates else 1.0,
                                    "ratio"),
        "knn.query_s": (busy_time(spans, names("knn", "predict_knn_batch")), "s"),
        "knn.fit_s": (busy_time(spans, names("knn", "fit_knn")), "s"),
        "knn.queries": (_sum(spans, "knn.predict_knn_batch", "queries"), "count"),
        "knn.store_rows": (max(store_rows, default=0), "count"),
        "knn.distance_evals": (_sum(spans, "knn.predict_knn_batch", "distance_evals"), "count"),
        "scaling.fit_s": (busy_time(spans, names("scaling", "fit_quantile_scaler",
                                                 "fit_minmax")), "s"),
        "scaling.apply_s": (busy_time(spans, names("scaling", "apply_quantile_scaler",
                                                   "l2_normalize_rows")), "s"),
        "scaling.cells": (_sum(spans, "scaling.apply_quantile_scaler", "cells"), "count"),
        "ingest.parse_s": (busy_time(spans, names("ingest", "parse_regional_csv")), "s"),
        "ingest.rows": (_sum(spans, "ingest.parse_regional_csv", "rows"), "count"),
        "ingest.bytes": (_sum(spans, "ingest.parse_regional_csv", "bytes"), "count"),
        "features.derive_s": (busy_time(spans, names("features")), "s"),
        "features.rows": (_sum(spans, "features.compute_derived_features", "rows"), "count"),
        "mtl.train_s": (mtl_self(_MTL_TRAIN), "s"),
        "mtl.predict_s": (mtl_self(_MTL_PREDICT), "s"),
        "mtl.trains": (sum(1 for s in spans if s.name == "mtl.train_mtl"), "count"),
        "mtl.instances": (_sum(spans, "mtl.train_mtl", "instances"), "count"),
        "artifact.dump_s": (busy_time(spans, names("artifact", "save_model")), "s"),
        "artifact.load_s": (busy_time(spans, names("artifact", "load_model")), "s"),
        "artifact.bytes_written": (_sum(spans, "artifact.save_model", "bytes_written"), "count"),
        "artifact.bytes_read": (_sum(spans, "artifact.load_model", "bytes_read"), "count"),
        "ppe.forecast_s": (sum(t for s, t in zip(spans, selfs)
                               if s.name == "ppe.forecast_series"), "s"),
        "ppe.days": (_sum(spans, "ppe.forecast_series", "days"), "count"),
        "synth.generate_s": (busy_time(spans, names("synth")), "s"),
    }
    for module in HOOKS:
        m[f"{module}.calls"] = (sum(1 for s in spans if s.module == module), "count")
    return m


def median_metrics(runs: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Median of each metric across repeated traced jobs."""
    return {name: (statistics.median(r[name][0] for r in runs), unit)
            for name, (_, unit) in runs[0].items()}
