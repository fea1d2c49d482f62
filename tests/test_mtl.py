import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regio_forecast import mtl
from regio_forecast.artifact import ARRAYS, save_model
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.evaluation import rotate_regions
from regio_forecast.ingest import RegionalDataset, split_train_test
from regio_forecast.knn import predict_knn_batch
from regio_forecast.mtl import MtlModel, predict_monitoring, train_mtl
from regio_forecast.scaling import (
    apply_quantile_scaler, fit_quantile_scaler, l2_normalize_rows)
from regio_forecast.synth import SyntheticSpec, generate_regions

from oracles import minmax_vote_oracle


def scaled(model, datasets):
    """Unit feature rows and raw target counts of every day in ``datasets``, in order."""
    raw = np.vstack([ds.columns(model.selected_features) for ds in datasets])
    x = l2_normalize_rows(apply_quantile_scaler(model.landmarks, raw))
    return x, np.vstack([ds.targets for ds in datasets])


def test_model_fields_are_the_codes_the_artifact_arrays_and_the_settings():
    names = [field.name for field in dataclasses.fields(MtlModel)]
    assert names == ["selected_features", "landmarks", "features", "targets", "source_tags",
                     "k", "generic_weight", "case_study"]
    assert names[1:5] == list(ARRAYS)


def test_store_cardinalities_full_scale():
    """6 pool regions x 362 rows -> 2172 pooled; +308 case rows -> 2480."""
    datasets = generate_regions(SyntheticSpec(regions=7, rows=362, seed=1))
    case_ds = datasets[0]
    split = split_train_test(case_ds, 54, seed=1)
    model, report = train_mtl(datasets, case_ds.region, split.train_indices)
    assert report.generic_instances == 6 * 362 == 2172
    assert report.case_train_rows == 308
    assert report.dedicated_instances == 2172 + 308 == 2480
    assert len(model.features) == len(model.targets) == len(model.source_tags) == 2480


def test_train_generic_empty_pool(small_datasets):
    # every dataset belongs to the case study's region: nothing is left to pool
    case = small_datasets[0]
    with pytest.raises(DataError,
                       match="^training needs at least one region besides the case study$"):
        train_mtl([case, case.subset(range(20))], case.region, range(10))


def test_train_without_the_case_study_dataset(small_datasets):
    case = small_datasets[0]
    with pytest.raises(DataError, match="^no dataset for case study 'Alberta'$"):
        train_mtl(small_datasets[1:], case.region, range(10))


def test_train_mtl_case_study_leak(small_datasets):
    case, other = small_datasets[0], small_datasets[1]
    # the case study's rows cannot be filed under another region: feat_04 disagrees
    with pytest.raises(DataError, match=(
            rf"^bad value at {case.dates[0]}, column 'feat_04': region code "
            rf"{case.region.code} does not match {other.region.name} \({other.region.code}\)$")):
        RegionalDataset(other.region, case.dates, case.features, case.targets)


def test_train_mtl_single_pool_region(small_datasets):
    case, other = small_datasets[0], small_datasets[1]
    model, report = train_mtl([case, other], case.region, range(10))
    pooled = model.source_tags != case.region.code
    assert pooled.sum() == report.generic_instances == other.n_rows
    assert set(model.source_tags[pooled].tolist()) == {other.region.code}


def test_transfer_weights_scaled(small_datasets):
    case = small_datasets[0]
    model, report = train_mtl(small_datasets, case.region, range(10),
                              generic_weight=0.25)
    pooled = model.source_tags != case.region.code
    assert np.allclose(model.weights[pooled], 0.25)
    assert pooled.sum() == report.generic_instances
    assert np.all(model.weights[~pooled] == 1.0)


def test_model_store_weights_must_follow_the_tags(small_datasets):
    # the weights are no field of the model: they follow from its tags, so
    # neither training nor loading can store weights off that rule
    case = small_datasets[0]
    model, _ = train_mtl(small_datasets, case.region, range(10), generic_weight=0.25)
    assert "weights" not in {f.name for f in dataclasses.fields(MtlModel)}
    pooled = model.source_tags != case.region.code
    moved = dataclasses.replace(model, generic_weight=0.5)
    assert np.array_equal(moved.weights, np.where(pooled, 0.5, 1.0))
    with pytest.raises(TypeError, match="weights"):
        dataclasses.replace(model, weights=model.weights)


def test_transfer_zero_weight_drops_instances(small_datasets):
    case = small_datasets[0]
    model, report = train_mtl(small_datasets, case.region, range(10),
                              generic_weight=0.0)
    assert len(model.targets) == report.case_train_rows == 10
    assert set(model.source_tags.tolist()) == {case.region.code}


@pytest.mark.parametrize("weight", [0.0, 0.25, 1.0])
def test_scaler_is_fitted_on_exactly_the_stored_rows(small_datasets, weight):
    """At weight 0 neither the store nor the scaler sees a pooled row."""
    ds = small_datasets[0]
    split = split_train_test(ds, 16, seed=7)
    model, report = train_mtl(small_datasets, ds.region, split.train_indices,
                              generic_weight=weight)
    parts = ([] if weight == 0 else list(small_datasets[1:])) + [ds.subset(split.train_indices)]
    raw = np.vstack([p.columns(model.selected_features) for p in parts])
    expected = fit_quantile_scaler(raw, model.selected_features)
    assert np.array_equal(model.landmarks, expected)
    assert model.landmarks.shape[1] == report.n_quantiles == min(1000, len(raw))
    assert len(model.targets) == report.dedicated_instances == len(raw)
    assert report.generic_instances == 2 * 80
    assert report.case_train_rows == len(split.train_indices) == 64


def test_transfer_negative_weight(small_datasets):
    for weight in (-0.5, 1.5, 1e308, float("nan")):
        message = f"generic weight must be in [0, 1], got {weight}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            train_mtl(small_datasets, small_datasets[0].region, range(10),
                      generic_weight=weight)


def test_train_mtl_empty_case(small_datasets):
    case = small_datasets[0]
    with pytest.raises(DataError, match=f"^no training rows for case study '{case.region.name}'$"):
        train_mtl(small_datasets, case.region, [])


def test_lambda_one_equals_union_knn(small_datasets, rng):
    """Full transfer is indistinguishable from plain kNN on the pooled union."""
    ds = small_datasets[0]
    split = split_train_test(ds, 16, seed=3)
    model, _ = train_mtl(small_datasets, ds.region, split.train_indices,
                         generic_weight=1.0)

    x, y = scaled(model, [*small_datasets[1:], ds.subset(split.train_indices)])

    for _ in range(100):
        q = rng.normal(size=x.shape[1])
        q /= np.linalg.norm(q)
        a = predict_knn_batch(model.features, model.targets, model.weights, [q], model.k)[0]
        b = predict_knn_batch(x, y, np.ones(len(y)), [q], model.k)[0]
        assert np.allclose(a, b, atol=1e-10)


def test_lambda_zero_equals_dedicated_only_knn(small_datasets, rng):
    ds = small_datasets[0]
    split = split_train_test(ds, 16, seed=3)
    model, _ = train_mtl(small_datasets, ds.region, split.train_indices,
                         generic_weight=0.0)

    x, y = scaled(model, [ds.subset(split.train_indices)])

    assert len(model.targets) == len(split.train_indices)
    for _ in range(100):
        q = rng.normal(size=x.shape[1])
        q /= np.linalg.norm(q)
        a = predict_knn_batch(model.features, model.targets, model.weights, [q], model.k)[0]
        b = predict_knn_batch(x, y, np.ones(len(y)), [q], model.k)[0]
        assert np.allclose(a, b, atol=1e-10)


@st.composite
def vote_cases(draw):
    """A store of raw counts, queries and k, probing the vote's corner cases.

    Points on a 3-value grid repeat, so queries often sit at distance 0
    from one or several instances; some target columns are constant; the
    source weights differ; k ranges from 1 to past the store size.
    """
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    point = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3.0, 3.0)),
                     min_size=d, max_size=d)
    features = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    targets = np.array(draw(st.lists(st.lists(st.integers(0, 10 ** 6), min_size=4, max_size=4),
                                     min_size=n, max_size=n)), dtype=float)
    constant = np.array(draw(st.lists(st.booleans(), min_size=4, max_size=4)))
    targets[:, constant] = targets[0, constant]
    weights = draw(st.lists(st.sampled_from([0.05, 0.25, 1.0, 3.0, 17.5]),
                            min_size=n, max_size=n))
    queries = np.array(draw(st.lists(point, min_size=1, max_size=4)))
    k = draw(st.one_of(st.just(1), st.integers(1, n), st.integers(n + 1, n + 5)))
    return (features, targets, np.array(weights)), queries, k


@settings(deadline=None, max_examples=300, derandomize=True)
@given(vote_cases())
def test_raw_target_vote_matches_minmax_oracle(case):
    """Voting on raw counts gives the min-max scale, vote, invert, floor result."""
    store, queries, k = case
    raw = predict_knn_batch(*store, queries, k)
    assert np.all(raw >= 0.0)
    assert np.all(np.abs(raw - minmax_vote_oracle(*store, queries, k)) <= 1e-12 * raw)


def test_pool_instances_never_carry_case_tag(trained_small_model, small_datasets):
    model, report, _ = trained_small_model
    case_code = small_datasets[0].region.code
    tags = model.source_tags
    assert case_code not in set(tags[:report.generic_instances].tolist())
    assert np.all(tags[report.generic_instances:] == case_code)


def test_retraining_is_byte_identical(small_datasets, tmp_path):
    ds = small_datasets[0]
    split = split_train_test(ds, 16, seed=5)
    for name in ("a.json", "b.json"):
        model, _ = train_mtl(small_datasets, ds.region, split.train_indices)
        save_model(model, tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_training_row_fed_back_recovers_targets(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    train = ds.subset(split.train_indices[:10])
    predicted = predict_monitoring(model, train)
    actual = train.targets.astype(float)
    assert np.all(np.abs(predicted - actual) <= 1e-6)


def test_predictions_non_negative_and_shaped(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    predicted = predict_monitoring(model, ds.subset(split.test_indices))
    assert predicted.shape == (len(split.test_indices), 4)
    assert np.all(predicted >= 0.0)
    assert predicted.dtype == np.float64


def test_rotate_regions_shapes():
    datasets = generate_regions(SyntheticSpec(regions=3, rows=70, seed=9))
    reports = rotate_regions(datasets, test_size=12, seed=2,
                             bootstrap_replicates=50)
    assert len(reports) == 3
    names = [r.region for r in reports]
    assert names == [ds.region.name for ds in datasets]
    for report in reports:
        assert set(report.intervals) == {
            "infections", "hospitalizations", "recoveries", "deaths"}
        for metrics in report.intervals.values():
            assert set(metrics) == {"r2", "evs", "mae", "rmse"}


def test_rotate_too_few_regions(small_datasets):
    with pytest.raises(DataError, match="^region rotation needs at least 2 datasets$"):
        rotate_regions([small_datasets[0]], test_size=5, seed=1)


def test_rotate_deterministic():
    datasets = generate_regions(SyntheticSpec(regions=2, rows=60, seed=4))
    a = rotate_regions(datasets, test_size=10, seed=3, bootstrap_replicates=40)
    b = rotate_regions(datasets, test_size=10, seed=3, bootstrap_replicates=40)
    for ra, rb in zip(a, b):
        for target in ra.intervals:
            for metric in ra.intervals[target]:
                assert ra.intervals[target][metric] == rb.intervals[target][metric]


def _landmarks_with(cell, value):
    def change(model):
        lm = model.landmarks.copy()
        lm[cell] = value            # an end of a landmark row, so the row stays sorted
        return {"landmarks": lm}
    return change


def _array_with(name, cell, value):
    def change(model):
        values = getattr(model, name).copy()
        values[cell] = value
        return {name: values}
    return change


def _codes(edit):
    def change(model):
        codes = list(model.selected_features)
        edit(codes)
        return {"selected_features": codes}
    return change


# The refusal of each rule a loaded artifact is checked by, as MtlModel words it
@pytest.mark.parametrize("change, error, message", [
    (_array_with("features", (5, 3), np.nan), DataError,
     "model artifact holds a non-finite number (features)"),
    (_array_with("features", (0, 0), -np.inf), DataError,
     "model artifact holds a non-finite number (features)"),
    (_landmarks_with((2, 0), np.nan), DataError,
     "model artifact holds a non-finite number (landmarks)"),
    (_landmarks_with((0, -1), np.inf), DataError,
     "model artifact holds a non-finite number (landmarks)"),
    (_array_with("targets", (7, 2), -1.0), DataError,
     "model artifact holds a negative count (targets)"),
    (lambda m: {"k": 0}, ConfigError, "k must be >= 1, got 0"),
    (lambda m: {"k": True}, ConfigError, "k must be an integer, got True"),
    (lambda m: {"generic_weight": 1.5}, DataError,
     "model artifact's generic weight must be in [0, 1], got 1.5"),
    (lambda m: {"generic_weight": float("nan")}, DataError,
     "source weights must be strictly positive"),
    (lambda m: {"features": m.features[:0], "targets": m.targets[:0],
                "source_tags": m.source_tags[:0]}, DataError, "cannot fit on zero rows"),
    (lambda m: {"features": [list(m.features[0]), list(m.features[1, :-1])]}, DataError,
     "ragged training rows: "),
    (lambda m: {"targets": m.targets[1:]}, DataError,
     "instance counts disagree across store fields: 224 feature rows, 223 target rows, "
     "224 tags"),
    (lambda m: {"features": m.features[:, :-1]}, DataError,
     "store has 12 feature columns for 13 selected features"),
    (_codes(lambda codes: codes.__setitem__(0, "feat_99")), DataError,
     "unknown selected feature codes: ['feat_99']"),
    (_codes(lambda codes: codes.__setitem__(1, codes[0])), DataError,
     "selected feature codes repeat: "),
    (lambda m: {"generic_weight": 0.0}, DataError, "source weights must be strictly positive"),
    (_array_with("source_tags", (9,), 99), DataError, "source tags name no region: [99]"),
    (lambda m: {"features": m.features[:3], "targets": m.targets[:3],
                "source_tags": [99, 5, -1]}, DataError, "source tags name no region: [-1, 99]"),
], ids=["features_nan", "features_-inf", "landmarks_nan", "landmarks_inf", "negative_target",
        "k_0", "k_true", "generic_weight_1.5", "generic_weight_nan", "zero_rows", "ragged_rows",
        "mismatched_counts", "width", "unknown_code", "repeated_code", "pooled_at_weight_0",
        "unknown_tag", "unknown_tags"])
def test_trained_model_is_refused_by_every_artifact_rule(trained_small_model, change, error,
                                                         message):
    """A trained model changed to break one rule fails the same check, with
    the same message, as an artifact loaded with that fault."""
    model, _, _ = trained_small_model
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        dataclasses.replace(model, **change(model))


@pytest.mark.parametrize("kwargs, indices, error, message", [
    ({"k": 0}, range(10), ConfigError, "k must be >= 1, got 0"),
    ({"k": True}, range(10), ConfigError, "k must be an integer, got True"),
    ({"generic_weight": 1.5}, range(10), ConfigError, "generic weight must be in [0, 1], got 1.5"),
    ({"generic_weight": float("nan")}, range(10), ConfigError,
     "generic weight must be in [0, 1], got nan"),
    ({}, [], DataError, "no training rows for case study 'Alberta'"),
    ({"selection": ("feat_99",) * 13}, range(10), ConfigError, "unknown feature code: 'feat_99'"),
    ({"selection": ("feat_05",) * 13}, range(10), DataError, "selected feature codes repeat: "),
], ids=["k_0", "k_true", "generic_weight_1.5", "generic_weight_nan", "zero_rows",
        "unknown_code", "repeated_code"])
def test_train_mtl_refuses_what_a_model_refuses(small_datasets, kwargs, indices, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        train_mtl(small_datasets, small_datasets[0].region, indices, **kwargs)


def test_train_mtl_refuses_k_before_it_builds_anything(small_datasets, monkeypatch):
    def fit(*_):
        raise AssertionError("the scaler was fitted")

    monkeypatch.setattr(mtl, "fit_quantile_scaler", fit)
    with pytest.raises(ConfigError, match="^k must be >= 1, got 0$"):
        train_mtl(small_datasets, small_datasets[0].region, range(10), k=0)


@pytest.mark.parametrize("width", [3, 5])
def test_model_refuses_targets_of_another_width(trained_small_model, width):
    model, _, _ = trained_small_model
    targets = np.resize(model.targets, (len(model.targets), width))
    with pytest.raises(DataError, match=f"^store has {width} target columns, not 4$"):
        dataclasses.replace(model, targets=targets)


@pytest.mark.parametrize("rows", [80, 40], ids=["same_length", "shorter_copy"])
def test_train_mtl_refuses_a_repeated_region(small_datasets, rows):
    """Two datasets of one region are refused whichever comes first, also when
    the first is too short for the training indices."""
    a, b, _ = small_datasets
    again = generate_regions(SyntheticSpec(regions=1, rows=rows, seed=99))[0]     # Alberta
    for datasets in ([a, b, again], [again, b, a]):
        with pytest.raises(DataError, match="^more than one dataset of region 'Alberta'$"):
            train_mtl(datasets, a.region, range(60))
