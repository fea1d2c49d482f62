import numpy as np
import pytest

from regio_forecast import knn
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.knn import InstanceStore, KnnConfig, predict_knn_batch

from oracles import knn_oracle


def two_point_store():
    return InstanceStore(np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]))


def test_config_validation():
    with pytest.raises(ConfigError, match="^k must be >= 1, got 0$"):
        KnnConfig(k=0)
    assert KnnConfig().k == 6


def test_fit_memorizes_rows(rng):
    x = rng.normal(size=(308, 13))
    y = rng.normal(size=(308, 4))
    store = InstanceStore(x, y)
    assert len(store) == 308
    assert np.array_equal(store.features, x)
    assert np.array_equal(store.targets, y)
    assert np.all(store.weights == 1.0)
    assert np.all(store.source_tags == -1)


@pytest.mark.parametrize("fields, message", [
    ((np.ones(3), np.ones((3, 1))),
     r"^features and targets must be 2-D, got shapes \(3,\) and \(3, 1\)$"),
    ((np.ones((3, 2)), np.ones((2, 1))),
     "^instance counts disagree across store fields: 3 feature rows, 2 target rows, "
     "3 tags, 3 weights$"),
    ((np.ones((3, 2)), np.ones((3, 1)), [0, 1]),
     "^instance counts disagree across store fields: 3 feature rows, 3 target rows, "
     "2 tags, 3 weights$"),
    ((np.ones((3, 2)), np.ones((3, 1)), None, [1.0, 0.0, 1.0]),
     "^source weights must be strictly positive$"),
    ((np.ones((3, 2)), np.ones((3, 1)), None, [1.0, np.nan, 1.0]),
     "^source weights must be strictly positive$"),
], ids=["one_dimensional", "targets", "tags", "zero_weight", "nan_weight"])
def test_store_rejects_inconsistent_fields(fields, message):
    with pytest.raises(DataError, match=message):
        InstanceStore(*fields)


def test_fit_empty_rejected():
    with pytest.raises(DataError, match="^cannot fit on zero rows$"):
        InstanceStore(np.empty((0, 3)), np.empty((0, 1)))


def test_fit_ragged_rows_rejected():
    with pytest.raises(DataError, match="^ragged training rows: "):
        InstanceStore([[1.0] * 13, [1.0] * 12], [[0.0], [0.0]])


def test_predict_exact_match_short_circuit():
    store = two_point_store()
    assert predict_knn_batch(store, [[0.0]], KnnConfig(k=2))[0, 0] == 0.0


def test_predict_equidistant_mean():
    store = two_point_store()
    assert predict_knn_batch(store, [[0.5]], KnnConfig(k=2))[0, 0] == pytest.approx(5.0)


def test_predict_inverse_distance_weights():
    # w = 1/d: (4*0 + (4/3)*10) / (4 + 4/3) = 2.5
    store = two_point_store()
    assert predict_knn_batch(store, [[0.25]], KnnConfig(k=2))[0, 0] == pytest.approx(2.5)


def test_predict_dimension_mismatch():
    store = two_point_store()
    with pytest.raises(DataError, match="^query has 2 dims, store has 1$"):
        predict_knn_batch(store, [[0.0, 1.0]], KnnConfig(k=1))


def _oracle_cases(rng):
    """(instances, query) pairs for the oracle comparison."""
    for trial in range(200):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        # low-resolution grid coordinates force frequent distance ties
        x = rng.integers(0, 3, size=(n, d)).astype(float)
        if trial % 3 == 0:
            yield x, x[int(rng.integers(n))]        # exact match
        else:
            yield x, rng.integers(0, 3, size=d).astype(float)
    offsets = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    for _ in range(50):
        # near-ties 1 ulp apart: instances differ from the query along axis 0
        # only, so every summation order gives the same distances
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        q = rng.normal(size=d)
        q[0] = 0.0
        x = np.tile(q, (n, 1))
        x[:, 0] = rng.choice(offsets, n) * rng.choice([-1.0, 1.0], n)
        yield x, q
    for _ in range(50):
        # one point stored more than k times among others
        n = int(rng.integers(1, 20))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        point = rng.normal(size=d)
        x = np.insert(x, rng.integers(0, n + 1, 60), point, axis=0)
        yield x, point if rng.random() < 0.5 else point + rng.normal(size=d) * 1e-3
    for _ in range(50):
        # all-zero rows, sometimes a store of nothing else
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d)) * (rng.random() < 0.5)
        x[rng.random(n) < 0.5] = 0.0
        yield x, np.zeros(d) if rng.random() < 0.5 else rng.normal(size=d)
    for _ in range(50):
        # a tight cluster far from the origin: the GEMM shortcut cancels badly
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        x = 1e4 + rng.normal(size=(n, d)) * 1e-5
        yield x, 1e4 + rng.normal(size=d) * 1e-5
    for _ in range(50):
        # queries equal to stored points in general position
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        yield x, x[int(rng.integers(n))]


def test_oracle_equivalence_random_cases(rng):
    """Predictor equals the plain-loop oracle: exact matches, tied and
    near-tied distances, duplicated points and all-zero rows."""
    cfgs = [KnnConfig(k=k) for k in (1, 2, 6, 50)]
    for trial, (x, q) in enumerate(_oracle_cases(rng)):
        n = x.shape[0]
        store = InstanceStore(x, rng.normal(size=(n, 2)), weights=rng.uniform(0.1, 3.0, size=n))
        cfg = cfgs[trial % len(cfgs)]
        assert np.allclose(predict_knn_batch(store, [q], cfg)[0],
                           knn_oracle(store, q, cfg), atol=1e-10)


def test_overflowing_store_matches_oracle(rng):
    """Squares of ~1e200 overflow in the shortcut; the result must not change."""
    for trial in range(40):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(2, 5))
        x = rng.integers(0, 3, size=(n, d)).astype(float)
        x[:, 0] = 1e200
        q = rng.integers(0, 3, size=d).astype(float)
        q[0] = 1e200
        store = InstanceStore(x, rng.normal(size=(n, 2)), weights=rng.uniform(0.1, 3.0, size=n))
        cfg = KnnConfig(k=(1, 2, 6)[trial % 3])
        assert np.allclose(predict_knn_batch(store, [q], cfg)[0],
                           knn_oracle(store, q, cfg), atol=1e-10)


def _exhaustive_scan(store, query, cfg):
    """Full-store distances and a stable sort: the scan the shortlist replaces."""
    diffs = store.features - query
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    k = min(cfg.k, len(store))
    order = np.argsort(d, kind="stable")[:k]
    nd, nw, ny = d[order], store.weights[order], store.targets[order]
    zero = nd == 0.0
    if np.any(zero):
        if zero.sum() == 1:
            return ny[zero][0]
        return (nw[zero][:, None] * ny[zero]).sum(axis=0) / nw[zero].sum()
    if k == 1:
        return ny[0]
    w = nw / nd
    return (w[:, None] * ny).sum(axis=0) / w.sum()


def test_matches_exhaustive_scan_bit_for_bit(rng, monkeypatch):
    monkeypatch.setattr(knn, "_BLOCK_CELLS", 1000)
    for trial in range(60):
        n = int(rng.integers(1, 400))
        d = int(rng.integers(1, 28))
        if trial % 3 == 0:
            x = rng.integers(0, 3, size=(n, d)).astype(float)
        elif trial % 3 == 1:
            x = 1e4 + rng.normal(size=(n, d)) * 1e-5
        else:
            x = rng.normal(size=(n, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        store = InstanceStore(x, rng.normal(size=(n, 4)), weights=rng.uniform(0.1, 3.0, size=n))
        queries = np.vstack([x[rng.integers(n, size=5)],
                             x.mean(axis=0) + rng.normal(size=(5, d)) * x.std()])
        cfg = KnnConfig(k=(1, 2, 6, 50)[trial % 4])
        batch = predict_knn_batch(store, queries, cfg)
        for row, q in zip(batch, queries):
            assert np.array_equal(row, _exhaustive_scan(store, q, cfg))


def test_k_larger_than_store_uses_all():
    store = two_point_store()
    out = predict_knn_batch(store, [[0.5]], KnnConfig(k=10))[0]
    assert out[0] == pytest.approx(5.0)


def test_single_instance_store(rng):
    store = InstanceStore(np.array([[1.0, 2.0]]), np.array([[7.0]]))
    assert predict_knn_batch(store, [rng.normal(size=2)], KnnConfig(k=6))[0, 0] == 7.0


def test_interpolation_at_training_points(rng):
    """Duplicate-free stores return stored targets exactly at stored points."""
    for _ in range(100):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        x = np.unique(rng.normal(size=(n, d)), axis=0)
        y = rng.normal(size=(x.shape[0], 3))
        store = InstanceStore(x, y)
        i = int(rng.integers(x.shape[0]))
        assert np.array_equal(predict_knn_batch(store, [x[i]], KnnConfig(k=4))[0], y[i])


def test_prediction_within_neighbor_hull(rng):
    for _ in range(50):
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 2))
        store = InstanceStore(x, y)
        out = predict_knn_batch(store, [rng.normal(size=3)], KnnConfig(k=5))[0]
        assert np.all(out <= y.max(axis=0) + 1e-12)
        assert np.all(out >= y.min(axis=0) - 1e-12)


def test_permutation_invariance_generic_position(rng):
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=(25, 2))
    perm = rng.permutation(25)
    store_a = InstanceStore(x, y)
    store_b = InstanceStore(x[perm], y[perm])
    for _ in range(20):
        q = rng.normal(size=4)
        assert np.allclose(predict_knn_batch(store_a, [q], KnnConfig(k=6))[0],
                           predict_knn_batch(store_b, [q], KnnConfig(k=6))[0], atol=1e-12)


def test_weight_scaling_invariance(rng):
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 2))
    w = rng.uniform(0.5, 2.0, size=20)
    store_a = InstanceStore(x, y, weights=w)
    store_b = InstanceStore(x, y, weights=w * 37.5)
    for _ in range(20):
        q = rng.normal(size=3)
        assert np.allclose(predict_knn_batch(store_a, [q], KnnConfig(k=5))[0],
                           predict_knn_batch(store_b, [q], KnnConfig(k=5))[0], atol=1e-12)


def test_batch_prediction_matches_single(rng, monkeypatch):
    """A row's prediction does not depend on the query block it falls in."""
    monkeypatch.setattr(knn, "_BLOCK_CELLS", 40)     # 2 queries per block of 15 instances
    x = rng.integers(0, 3, size=(15, 3)).astype(float)
    y = rng.normal(size=(15, 2))
    store = InstanceStore(x, y, weights=rng.uniform(0.5, 2.0, size=15))
    queries = np.vstack([x[:3], rng.integers(0, 3, size=(3, 3)), rng.normal(size=(3, 3))])
    batch = predict_knn_batch(store, queries, KnnConfig(k=4))
    assert batch.shape == (9, 2)
    for i, q in enumerate(queries):
        assert np.array_equal(batch[i], predict_knn_batch(store, [q], KnnConfig(k=4))[0])
