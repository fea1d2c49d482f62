import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regio_forecast.artifact import save_model
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.evaluation import rotate_regions
from regio_forecast.ingest import RegionalDataset, split_train_test
from regio_forecast.knn import InstanceStore, KnnConfig, predict_knn_batch
from regio_forecast.mtl import predict_monitoring, train_mtl
from regio_forecast.scaling import apply_quantile_scaler, l2_normalize_rows
from regio_forecast.synth import SyntheticSpec, generate_regions

from oracles import minmax_vote_oracle


def scaled(model, datasets):
    """Unit feature rows and raw target counts of every day in ``datasets``, in order."""
    raw = np.vstack([ds.columns(model.selected_features) for ds in datasets])
    x = l2_normalize_rows(apply_quantile_scaler(model.feature_scaler, raw))
    return x, np.vstack([ds.targets for ds in datasets])


def test_store_cardinalities_full_scale():
    """6 pool regions x 362 rows -> 2172 pooled; +308 case rows -> 2480."""
    datasets = generate_regions(SyntheticSpec(regions=7, rows=362, seed=1))
    case_ds = datasets[0]
    split = split_train_test(case_ds, 54, seed=1)
    model, report = train_mtl(datasets, case_ds.region, split.train_indices)
    assert report.generic_instances == 6 * 362 == 2172
    assert report.case_train_rows == 308
    assert report.dedicated_instances == 2172 + 308 == 2480
    assert len(model.store) == 2480


def test_train_generic_empty_pool(small_datasets):
    # every dataset belongs to the case study's region: nothing is left to pool
    case = small_datasets[0]
    with pytest.raises(DataError,
                       match="^training needs at least one region besides the case study$"):
        train_mtl([case, case.subset(range(20))], case.region, range(10))


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
    pooled = model.store.source_tags != case.region.code
    assert pooled.sum() == report.generic_instances == other.n_rows
    assert set(model.store.source_tags[pooled].tolist()) == {other.region.code}


def test_transfer_weights_scaled(small_datasets):
    case = small_datasets[0]
    model, report = train_mtl(small_datasets, case.region, range(10),
                              generic_weight=0.25)
    pooled = model.store.source_tags != case.region.code
    assert np.allclose(model.store.weights[pooled], 0.25)
    assert pooled.sum() == report.generic_instances
    assert np.all(model.store.weights[~pooled] == 1.0)


def test_model_store_weights_must_follow_the_tags(small_datasets):
    # the artifact does not store weights; loading derives them from the tags
    case = small_datasets[0]
    model, _ = train_mtl(small_datasets, case.region, range(10), generic_weight=0.25)
    store = model.store
    weights = store.weights.copy()
    weights[0] = 0.5        # a pooled row
    off_rule = InstanceStore(store.features, store.targets, store.source_tags, weights)
    with pytest.raises(DataError, match="^store weights are not 1.0 on case-study rows "
                                        "and the generic weight on pooled rows$"):
        dataclasses.replace(model, store=off_rule)
    with pytest.raises(DataError, match="^store weights are not 1.0"):
        dataclasses.replace(model, generic_weight=0.5)


def test_transfer_zero_weight_drops_instances(small_datasets):
    case = small_datasets[0]
    model, report = train_mtl(small_datasets, case.region, range(10),
                              generic_weight=0.0)
    assert len(model.store) == report.case_train_rows == 10
    assert set(model.store.source_tags.tolist()) == {case.region.code}


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
    union_store = InstanceStore(x, y)

    for _ in range(100):
        q = rng.normal(size=x.shape[1])
        q /= np.linalg.norm(q)
        a = predict_knn_batch(model.store, [q], model.cfg)[0]
        b = predict_knn_batch(union_store, [q], model.cfg)[0]
        assert np.allclose(a, b, atol=1e-10)


def test_lambda_zero_equals_dedicated_only_knn(small_datasets, rng):
    ds = small_datasets[0]
    split = split_train_test(ds, 16, seed=3)
    model, _ = train_mtl(small_datasets, ds.region, split.train_indices,
                         generic_weight=0.0)

    x, y = scaled(model, [ds.subset(split.train_indices)])
    dedicated_only = InstanceStore(x, y)

    assert len(model.store) == len(split.train_indices)
    for _ in range(100):
        q = rng.normal(size=x.shape[1])
        q /= np.linalg.norm(q)
        a = predict_knn_batch(model.store, [q], model.cfg)[0]
        b = predict_knn_batch(dedicated_only, [q], model.cfg)[0]
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
    return InstanceStore(features, targets, weights=np.array(weights)), queries, KnnConfig(k=k)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(vote_cases())
def test_raw_target_vote_matches_minmax_oracle(case):
    """Voting on raw counts gives the min-max scale, vote, invert, floor result."""
    store, queries, cfg = case
    raw = predict_knn_batch(store, queries, cfg)
    assert np.all(raw >= 0.0)
    assert np.all(np.abs(raw - minmax_vote_oracle(store, queries, cfg)) <= 1e-12 * raw)


def test_pool_instances_never_carry_case_tag(trained_small_model, small_datasets):
    model, report, _ = trained_small_model
    case_code = small_datasets[0].region.code
    tags = model.store.source_tags
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
