"""The names the benchmark's tracer (``perfbench/tracer.py``) wraps, and what its counters read.

The tracer replaces functions by module and name and reads some of their
parameters and results by name. A function that moves module, or a
parameter that is renamed, is not an error there: its span is lost and the
``trace.missing_hooks`` count or a counter error goes up. These tests pin
the names that resolve today, without importing the benchmark.
"""

import importlib
import inspect

import pytest

from regio_forecast.mtl import train_mtl
from regio_forecast.ppe import forecast_series

# module -> functions the tracer wraps that exist today (19 of its 35 names)
HOOKED = {
    "ingest": ("parse_regional_csv", "split_train_test"),
    "features": ("score_relevance",),
    "scaling": ("fit_quantile_scaler", "apply_quantile_scaler", "l2_normalize_rows"),
    "knn": ("predict_knn_batch",),
    "mtl": ("train_mtl", "predict_monitoring"),
    "evaluation": ("evaluate_model", "reports_to_long_csv", "reports_to_target_table"),
    "artifact": ("save_model", "load_model", "atomic_write_text"),
    "ppe": ("forecast_series", "forecast_to_csv"),
    "synth": ("generate_regions", "write_region_files"),
}

# (module, function) -> the parameter a counter reads by name
COUNTED_PARAMETERS = {
    ("ingest", "parse_regional_csv"): "path",
    ("artifact", "save_model"): "path",
    ("artifact", "load_model"): "path",
    ("knn", "predict_knn_batch"): "queries",
}


def _function(module: str, name: str):
    return getattr(importlib.import_module(f"regio_forecast.{module}"), name)


def test_nineteen_hooked_names():
    assert sum(map(len, HOOKED.values())) == 19


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOOKED.items() for n in names])
def test_hooked_function_resolves_in_its_module(module, name):
    assert inspect.isfunction(_function(module, name))


@pytest.mark.parametrize("module, name", list(COUNTED_PARAMETERS))
def test_counted_parameter_keeps_its_name(module, name):
    parameters = inspect.signature(_function(module, name)).parameters
    assert COUNTED_PARAMETERS[module, name] in parameters


def test_train_and_forecast_results_are_what_the_counters_read(small_datasets):
    case = small_datasets[0]
    model, report = train_mtl(small_datasets, case.region, range(60))
    assert report.dedicated_instances == len(model.targets)
    assert len(forecast_series(model, case, 0.75, 200.0)) == case.n_rows
