import numpy as np
import pytest

from regio_forecast.errors import BadConfig, DimensionMismatch, EmptyTrainingSet
from regio_forecast.knn import (
    InstanceStore,
    KnnConfig,
    fit_knn,
    predict_knn,
    predict_knn_batch,
)

from oracles import knn_oracle


def two_point_store():
    return fit_knn(np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]))


def test_config_validation():
    with pytest.raises(BadConfig):
        KnnConfig(k=0)
    with pytest.raises(BadConfig):
        KnnConfig(weighting="uniform")
    assert KnnConfig().k == 6


def test_fit_memorizes_rows(rng):
    x = rng.normal(size=(308, 13))
    y = rng.normal(size=(308, 4))
    store = fit_knn(x, y)
    assert len(store) == 308
    assert np.array_equal(store.features, x)
    assert np.array_equal(store.targets, y)
    assert np.all(store.weights == 1.0)


def test_fit_empty_rejected():
    with pytest.raises(EmptyTrainingSet):
        fit_knn(np.empty((0, 3)), np.empty((0, 1)))


def test_fit_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        fit_knn([[1.0] * 13, [1.0] * 12], [[0.0], [0.0]])


def test_predict_exact_match_short_circuit():
    store = two_point_store()
    assert predict_knn(store, [0.0], KnnConfig(k=2))[0] == 0.0


def test_predict_equidistant_mean():
    store = two_point_store()
    assert predict_knn(store, [0.5], KnnConfig(k=2))[0] == pytest.approx(5.0)


def test_predict_inverse_distance_weights():
    # w = 1/d: (4*0 + (4/3)*10) / (4 + 4/3) = 2.5
    store = two_point_store()
    assert predict_knn(store, [0.25], KnnConfig(k=2))[0] == pytest.approx(2.5)


def test_predict_dimension_mismatch():
    store = two_point_store()
    with pytest.raises(DimensionMismatch):
        predict_knn(store, [0.0, 1.0], KnnConfig(k=1))


def test_oracle_equivalence_random_cases(rng):
    """Vectorized predictor equals the plain-loop oracle, including
    exact-match and tied-distance cases."""
    cfgs = [KnnConfig(k=k) for k in (1, 2, 6, 50)]
    for trial in range(200):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        # low-resolution grid coordinates force frequent distance ties
        x = rng.integers(0, 3, size=(n, d)).astype(float)
        y = rng.normal(size=(n, 2))
        w = rng.uniform(0.1, 3.0, size=n)
        store = fit_knn(x, y, weights=w)
        if trial % 3 == 0:
            q = x[int(rng.integers(n))]        # exact match
        else:
            q = rng.integers(0, 3, size=d).astype(float)
        cfg = cfgs[trial % len(cfgs)]
        assert np.allclose(predict_knn(store, q, cfg),
                           knn_oracle(store, q, cfg), atol=1e-10)


def test_k_larger_than_store_uses_all():
    store = two_point_store()
    out = predict_knn(store, [0.5], KnnConfig(k=10))
    assert out[0] == pytest.approx(5.0)


def test_single_instance_store(rng):
    store = fit_knn(np.array([[1.0, 2.0]]), np.array([[7.0]]))
    assert predict_knn(store, rng.normal(size=2), KnnConfig(k=6))[0] == 7.0


def test_interpolation_at_training_points(rng):
    """Duplicate-free stores return stored targets exactly at stored points."""
    for _ in range(100):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        x = np.unique(rng.normal(size=(n, d)), axis=0)
        y = rng.normal(size=(x.shape[0], 3))
        store = fit_knn(x, y)
        i = int(rng.integers(x.shape[0]))
        assert np.array_equal(predict_knn(store, x[i], KnnConfig(k=4)), y[i])


def test_prediction_within_neighbor_hull(rng):
    for _ in range(50):
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 2))
        store = fit_knn(x, y)
        out = predict_knn(store, rng.normal(size=3), KnnConfig(k=5))
        assert np.all(out <= y.max(axis=0) + 1e-12)
        assert np.all(out >= y.min(axis=0) - 1e-12)


def test_permutation_invariance_generic_position(rng):
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=(25, 2))
    perm = rng.permutation(25)
    store_a = fit_knn(x, y)
    store_b = fit_knn(x[perm], y[perm])
    for _ in range(20):
        q = rng.normal(size=4)
        assert np.allclose(predict_knn(store_a, q, KnnConfig(k=6)),
                           predict_knn(store_b, q, KnnConfig(k=6)), atol=1e-12)


def test_weight_scaling_invariance(rng):
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 2))
    w = rng.uniform(0.5, 2.0, size=20)
    store_a = fit_knn(x, y, weights=w)
    store_b = fit_knn(x, y, weights=w * 37.5)
    for _ in range(20):
        q = rng.normal(size=3)
        assert np.allclose(predict_knn(store_a, q, KnnConfig(k=5)),
                           predict_knn(store_b, q, KnnConfig(k=5)), atol=1e-12)


def test_batch_prediction_matches_single(rng):
    x = rng.normal(size=(15, 3))
    y = rng.normal(size=(15, 2))
    store = fit_knn(x, y)
    queries = rng.normal(size=(7, 3))
    batch = predict_knn_batch(store, queries, KnnConfig(k=4))
    for i, q in enumerate(queries):
        assert np.array_equal(batch[i], predict_knn(store, q, KnnConfig(k=4)))


def test_store_json_roundtrip(rng):
    store = fit_knn(rng.normal(size=(5, 2)), rng.normal(size=(5, 1)),
                    source_tags=[3] * 5, weights=rng.uniform(0.5, 2, 5))
    clone = InstanceStore.from_json_dict(store.to_json_dict())
    assert np.array_equal(clone.features, store.features)
    assert np.array_equal(clone.weights, store.weights)
    assert np.array_equal(clone.source_tags, store.source_tags)
