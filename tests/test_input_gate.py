"""Every public entry point refuses bad caller input with ConfigError or DataError.

The property test puts one hostile value (ragged rows, text, objects,
fractional floats, bools, None, texts that name no day) in one array or
scalar argument of a call whose other arguments are valid: the call must
succeed or raise one of the two errors, never a bare numpy or Python
error. The explicit tests pin the inputs that were once read wrongly
without an error.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from regio_forecast.artifact import load_model, save_model
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.evaluation import METRIC_FUNCTIONS, BootstrapConfig, bootstrap_intervals
from regio_forecast.features import RelevanceReport, score_relevance
from regio_forecast.ingest import (RegionalDataset, RegionId, TrainTestSplit, region_by_code,
                                   split_train_test)
from regio_forecast.knn import neighbours, predict_knn_batch
from regio_forecast.mtl import predict_monitoring, train_mtl
from regio_forecast.ppe import PpeForecast, forecast_series, predict_ppe_kits
from regio_forecast.scaling import (apply_quantile_scaler, checked_landmarks,
                                    fit_quantile_scaler, l2_normalize_rows)
from regio_forecast.synth import SyntheticSpec, generate_regions

DATASETS = generate_regions(SyntheticSpec(regions=2, rows=20, seed=0))
DS = DATASETS[0]
MODEL = train_mtl(DATASETS, DS.region, range(15), k=3)[0]
QUERIES = MODEL.features[:2]
REPORT = RelevanceReport(("a", "b"), ("t",), np.array([[1.0], [0.5]]))
ACTUALS = np.arange(20.0).reshape(5, 4)
RAGGED = [[1.0, 2.0], [3.0]]


def _replace(obj, field):
    return lambda value: dataclasses.replace(obj, **{field: value})


def _metric(fn, slot):
    return lambda value: fn(*((value, [1.0, 2.0, 3.0]) if slot == 0 else ([1.0, 2.0, 3.0], value)))


def _ppe(slot):
    def call(value):
        args = [5.0, 2.0, 0.75, 200.0]      # hospitalized, chc_count, capacity, personnel
        args[slot] = value
        return predict_ppe_kits(*args)
    return call


def _forecast(slot):
    def call(value):
        args = [DS.dates[:2], np.ones(2), np.ones(2), np.ones(2)]
        args[slot] = value
        return PpeForecast(*args)
    return call


def _spec(field):
    return lambda value: SyntheticSpec(**{field: value})


CALLS = {
    "RegionId.code": lambda v: RegionId(v, "Alberta"),
    "RegionalDataset.dates": lambda v: RegionalDataset(DS.region, v, DS.features, DS.targets),
    "RegionalDataset.features": lambda v: RegionalDataset(DS.region, DS.dates, v, DS.targets),
    "RegionalDataset.targets": lambda v: RegionalDataset(DS.region, DS.dates, DS.features, v),
    "subset.indices": lambda v: DS.subset(v),
    "split_train_test.test_size": lambda v: split_train_test(DS, v, 0),
    "split_train_test.seed": lambda v: split_train_test(DS, 5, v),
    "TrainTestSplit.train_indices": lambda v: TrainTestSplit(v, [1]),
    "TrainTestSplit.test_indices": lambda v: TrainTestSplit([0], v),
    **{f"MtlModel.{f}": _replace(MODEL, f) for f in (
        "landmarks", "features", "targets", "source_tags", "k", "generic_weight")},
    "train_mtl.case_train_indices": lambda v: train_mtl(DATASETS, DS.region, v),
    "train_mtl.k": lambda v: train_mtl(DATASETS, DS.region, range(15), k=v),
    "train_mtl.generic_weight": lambda v: train_mtl(DATASETS, DS.region, range(15),
                                                    generic_weight=v),
    "predict_knn_batch.features": lambda v: predict_knn_batch(
        v, MODEL.targets, MODEL.weights, QUERIES, 3),
    "predict_knn_batch.targets": lambda v: predict_knn_batch(
        MODEL.features, v, MODEL.weights, QUERIES, 3),
    "predict_knn_batch.weights": lambda v: predict_knn_batch(
        MODEL.features, MODEL.targets, v, QUERIES, 3),
    "predict_knn_batch.queries": lambda v: predict_knn_batch(
        MODEL.features, MODEL.targets, MODEL.weights, v, 3),
    "predict_knn_batch.k": lambda v: predict_knn_batch(
        MODEL.features, MODEL.targets, MODEL.weights, QUERIES, v),
    "neighbours.features": lambda v: neighbours(v, QUERIES, 3),
    "neighbours.queries": lambda v: neighbours(MODEL.features, v, 3),
    "neighbours.k": lambda v: neighbours(MODEL.features, QUERIES, v),
    "checked_landmarks.landmarks": lambda v: checked_landmarks(v),
    "fit_quantile_scaler.values": lambda v: fit_quantile_scaler(v, ("a",)),
    "apply_quantile_scaler.landmarks": lambda v: apply_quantile_scaler(v, [[0.5]]),
    "apply_quantile_scaler.values": lambda v: apply_quantile_scaler([[0.0, 1.0]], v),
    "l2_normalize_rows.values": lambda v: l2_normalize_rows(v),
    **{f"{name}.{arg}": _metric(fn, slot) for name, fn in METRIC_FUNCTIONS.items()
       for slot, arg in enumerate(("y", "y_hat"))},
    "bootstrap_intervals.actuals": lambda v: bootstrap_intervals(v, ACTUALS, BootstrapConfig(10)),
    "bootstrap_intervals.predicted": lambda v: bootstrap_intervals(ACTUALS, v,
                                                                   BootstrapConfig(10)),
    "BootstrapConfig.replicates": lambda v: BootstrapConfig(v),
    "BootstrapConfig.seed": lambda v: BootstrapConfig(10, v),
    "RelevanceReport.scores": lambda v: RelevanceReport(("a", "b"), ("t",), v),
    "RelevanceReport.top": lambda v: REPORT.top(v),
    "RelevanceReport.score": lambda v: REPORT.score("a", v),
    "RelevanceReport.ranking": lambda v: REPORT.ranking(v),
    "score_relevance.features": lambda v: score_relevance(v, ("a",), ACTUALS),
    "score_relevance.targets": lambda v: score_relevance(ACTUALS[:, :1], ("a",), v),
    **{f"PpeForecast.{f}": _forecast(slot) for slot, f in enumerate(
        ("dates", "predicted_hospitalized", "hsp_ratio", "kits"))},
    **{f"predict_ppe_kits.{a}": _ppe(slot) for slot, a in enumerate(
        ("hospitalized", "chc_count", "operating_capacity", "personnel"))},
    **{f"SyntheticSpec.{f}": _spec(f) for f in ("regions", "rows", "noise", "seed")},
}

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
TEXTS = st.text(max_size=4)
NO_DAYS = st.sampled_from(["2021-13-01", "2021-02-30", "day two", "", "2021-01-01T25"])
OBJECTS = st.builds(object)
HOSTILE = st.one_of(
    st.lists(st.lists(FLOATS, max_size=3), min_size=2, max_size=4).filter(
        lambda rows: len({len(row) for row in rows}) > 1),
    TEXTS, st.lists(TEXTS, min_size=1, max_size=3),
    st.lists(st.lists(TEXTS, min_size=2, max_size=2), min_size=1, max_size=2),
    OBJECTS, st.lists(OBJECTS, min_size=1, max_size=2),
    FLOATS, st.lists(FLOATS, min_size=1, max_size=3),
    st.booleans(), st.lists(st.booleans(), min_size=1, max_size=3),
    st.none(),
    NO_DAYS, st.lists(NO_DAYS, min_size=1, max_size=3),
)


@given(case=st.sampled_from(sorted(CALLS)), value=HOSTILE)
@example(case="subset.indices", value=["a"])
@example(case="RegionalDataset.features", value=[[1.0] * 27, [1.0] * 26])
@example(case="score_relevance.features", value=RAGGED)
@example(case="bootstrap_intervals.actuals", value=RAGGED)
@example(case="MtlModel.landmarks", value=RAGGED)
@example(case="fit_quantile_scaler.values", value=RAGGED)
@example(case="l2_normalize_rows.values", value=RAGGED)
@example(case="r2.y", value=RAGGED)
@example(case="PpeForecast.kits", value=["a", "b"])
@example(case="RelevanceReport.scores", value=[["a"], ["b"]])
@example(case="score_relevance.targets", value=[["a"]] * 5)
@example(case="bootstrap_intervals.predicted", value=[["a"] * 4] * 5)
@example(case="predict_knn_batch.queries", value=[["a"] * 13])
@example(case="apply_quantile_scaler.values", value=[["a"]])
@example(case="predict_ppe_kits.hospitalized", value="a")
@example(case="PpeForecast.dates", value=["2021-13-01", "2021-03-02"])
@example(case="BootstrapConfig.replicates", value="10")
@example(case="RelevanceReport.top", value=1.5)
@example(case="split_train_test.test_size", value="5")
@example(case="split_train_test.seed", value=-1)
@example(case="train_mtl.generic_weight", value="1")
@example(case="SyntheticSpec.regions", value="7")
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_hostile_input_raises_only_config_or_data_errors(case, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # float overflow warns; it is no error
        try:
            CALLS[case](value)
        except (ConfigError, DataError):
            pass


@pytest.mark.parametrize("call", [
    lambda: DS.subset([1.5]),
    lambda: dataclasses.replace(MODEL, source_tags=MODEL.source_tags.astype(str)),
    lambda: predict_knn_batch(MODEL.features, MODEL.targets, MODEL.weights, QUERIES, 1.5),
    lambda: RegionId(1.0, "British Columbia"),
    lambda: RegionId(True, "British Columbia"),
    lambda: region_by_code(np.float64(1.0)),
], ids=["fractional_index", "digit_string_tags", "fractional_k", "float_code", "bool_code",
        "numpy_float_code"])
def test_inputs_once_read_without_an_error_are_refused(call):
    with pytest.raises((ConfigError, DataError)):
        call()


@pytest.mark.parametrize("value, message", [
    ([1.5], "day indices must be integers, got dtype float64"),
    (["a"], "day indices must be integers, got dtype <U1"),
    ([[0, 1]], r"day indices must be 1-D, got shape \(1, 2\)"),
])
def test_subset_names_the_fault_of_its_indices(value, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        DS.subset(value)


def test_an_empty_index_list_passes_whatever_its_dtype():
    assert DS.subset([]).n_rows == 0          # numpy makes [] float64
    assert len(TrainTestSplit([], np.arange(3)).train_indices) == 0


def test_region_code_is_a_plain_int_and_a_model_of_it_round_trips(tmp_path):
    region = RegionId(np.int64(1), "British Columbia")
    assert type(region.code) is int and region == RegionId(1, "British Columbia")
    model = train_mtl(DATASETS, region, range(15), k=3)[0]
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert type(loaded.case_study.code) is int and loaded.case_study == region
    ds = DATASETS[1]
    assert np.array_equal(predict_monitoring(loaded, ds), predict_monitoring(model, ds))


@pytest.mark.parametrize("code", [1.0, True, "1"])
def test_region_code_of_another_type_is_refused(code):
    with pytest.raises(ConfigError, match=f"^region code must be an integer, got {code!r}$"):
        RegionId(code, "British Columbia")


def test_model_scalars_are_stored_as_plain_numbers():
    model = dataclasses.replace(MODEL, k=np.int64(3), generic_weight=np.float32(0.5))
    assert type(model.k) is int and type(model.generic_weight) is float


def test_relevance_lookups_refuse_an_unknown_target():
    with pytest.raises(ConfigError, match="^unknown target: 'x'$"):
        REPORT.score("a", "x")
    with pytest.raises(ConfigError, match="^unknown target: 'x'$"):
        REPORT.ranking("x")
    assert REPORT.ranking("t") == ("a", "b") and REPORT.score("b", "t") == 0.5


def test_dates_are_refused_naming_their_fault():
    with pytest.raises(DataError, match="^dates must be days, got dtype float64$"):
        PpeForecast([1.5, 2.5], np.ones(2), np.ones(2), np.ones(2))
    with pytest.raises(DataError, match="^dates: "):
        PpeForecast(["2021-13-01", "2021-03-02"], np.ones(2), np.ones(2), np.ones(2))


def test_scalar_gates_name_the_value():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        split_train_test(DS, 5, -1)
    with pytest.raises(ConfigError, match="^test_size must be an integer, got '5'$"):
        split_train_test(DS, "5", 0)
    with pytest.raises(ConfigError, match="^generic weight must be a number, got '1'$"):
        train_mtl(DATASETS, DS.region, range(15), generic_weight="1")
    with pytest.raises(ConfigError, match="^top_n must be an integer, got 1.5$"):
        REPORT.top(1.5)


N_STORED = len(MODEL.features)


@pytest.mark.parametrize("targets, weights, message", [
    (MODEL.targets[:5], MODEL.weights, f"{N_STORED} stored rows need as many targets, got 5"),
    (MODEL.targets, MODEL.weights[:5], f"{N_STORED} stored rows need as many weights, got 5"),
    (MODEL.targets[:, 0], MODEL.weights, rf"targets must be 2-D, got shape \({N_STORED},\)"),
    (MODEL.targets, ["a", "b"], "weights must be numbers, got dtype <U1"),
    (MODEL.targets, MODEL.weights[:, None], rf"weights must be 1-D, got shape \({N_STORED}, 1\)"),
    (MODEL.targets, np.full(N_STORED, np.nan), "weights must be finite and > 0"),
    (MODEL.targets, np.full(N_STORED, np.inf), "weights must be finite and > 0"),
    (MODEL.targets, np.zeros(N_STORED), "weights must be finite and > 0"),
    (MODEL.targets, np.full(N_STORED, -1.0), "weights must be finite and > 0"),
], ids=["short_targets", "short_weights", "1d_targets", "text_weights", "2d_weights",
        "nan_weights", "inf_weights", "zero_weights", "negative_weights"])
def test_knn_vote_refuses_bad_targets_and_weights(targets, weights, message):
    """Each once raised a bare IndexError or TypeError, or returned NaN or silent votes."""
    with pytest.raises(DataError, match=f"^{message}$"):
        predict_knn_batch(MODEL.features, targets, weights, QUERIES, 3)


@pytest.mark.parametrize("values, codes, got", [
    ([[1.0, np.nan], [2.0, 3.0]], ("a",), 1),
    ([[1.0, 2.0], [2.0, 3.0]], ("a", "b", "c"), 3),
])
def test_quantile_fit_refuses_codes_that_do_not_name_each_column(values, codes, got):
    with pytest.raises(DataError, match=f"^2 columns need as many codes, got {got}$"):
        fit_quantile_scaler(values, codes)


def test_dataset_copies_neither_freezes_nor_aliases_a_callers_arrays():
    """A parsed table reaches the dataset as np.hsplit views; those and plain arrays are
    copied, and the caller's arrays stay writable."""
    table = np.hstack([DS.features, DS.targets]).astype(np.float64)
    for features, targets in (np.hsplit(table, [27]), (DS.features.copy(), DS.targets.copy())):
        ds = RegionalDataset(DS.region, DS.dates, features, targets)
        for kept, given in ((ds.features, features), (ds.targets, targets)):
            assert not np.shares_memory(kept, given)
            assert given.flags.writeable and not kept.flags.writeable
        assert np.array_equal(ds.features, DS.features) and np.array_equal(ds.targets, DS.targets)


def test_model_refuses_a_dataset_of_another_region():
    other = DATASETS[1]
    message = f"^a {other.region.name} dataset given to the {DS.region.name} model$"
    with pytest.raises(DataError, match=message):
        predict_monitoring(MODEL, other)
    with pytest.raises(DataError, match=message):
        forecast_series(MODEL, other, 0.75, 200.0)
