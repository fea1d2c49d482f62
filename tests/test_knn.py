import numpy as np
import pytest

from regio_forecast import knn
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.features import PRIMARY_FEATURE_CODES
from regio_forecast.ingest import region_by_name
from regio_forecast.knn import neighbours, predict_knn_batch
from regio_forecast.mtl import MtlModel

from oracles import knn_oracle

ALBERTA = region_by_name("alberta")     # region code 0


def two_point_store():
    """Features, targets and vote weights of two instances."""
    return np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]), np.ones(2)


def unweighted(x, y):
    return x, y, np.ones(len(x))


def model(features, targets, tags=None, generic_weight=1.0, width=2, k=6):
    """A hand-built model that selects the first ``width`` primary features."""
    tags = np.zeros(len(targets), dtype=int) if tags is None else tags
    return MtlModel(PRIMARY_FEATURE_CODES[:width], np.zeros((width, 2)), features, targets,
                    tags, k, generic_weight, ALBERTA)


def test_config_validation():
    store = two_point_store()
    for k in (0, -1):
        with pytest.raises(ConfigError, match=f"^k must be >= 1, got {k}$"):
            predict_knn_batch(*store, [[0.0]], k)
        with pytest.raises(ConfigError, match=f"^k must be >= 1, got {k}$"):
            model(np.ones((3, 2)), np.ones((3, 1)), k=k)
    with pytest.raises(ConfigError, match="^k must be an integer, got True$"):
        model(np.ones((3, 2)), np.ones((3, 1)), k=True)


def test_fit_memorizes_rows(rng):
    x = rng.normal(size=(308, 13))
    y = rng.uniform(0, 100, size=(308, 4))
    tags = np.where(np.arange(308) < 200, 3, 0)     # pooled rows, then Alberta's
    m = model(x, y, tags, generic_weight=0.5, width=13)
    assert len(m.targets) == 308
    assert np.array_equal(m.features, x)
    assert np.array_equal(m.targets, y)
    assert np.array_equal(m.source_tags, tags)
    assert np.array_equal(m.weights, np.where(tags == 0, 1.0, 0.5))
    assert not m.features.flags.writeable and not m.source_tags.flags.writeable


@pytest.mark.parametrize("fields, message", [
    ((np.ones(3), np.ones((3, 1))),
     r"^features and targets must be 2-D, got shapes \(3,\) and \(3, 1\)$"),
    ((np.ones((3, 2)), np.ones((2, 1))),
     "^instance counts disagree across store fields: 3 feature rows, 2 target rows, "
     "2 tags$"),
    ((np.ones((3, 2)), np.ones((3, 1)), [0, 1]),
     "^instance counts disagree across store fields: 3 feature rows, 3 target rows, "
     "2 tags$"),
    ((np.ones((3, 2)), np.ones((3, 1)), [0, 1, 0], 0.0),
     "^source weights must be strictly positive$"),
    ((np.ones((3, 2)), np.ones((3, 1)), [0, 1, 0], np.nan),
     "^source weights must be strictly positive$"),
], ids=["one_dimensional", "targets", "tags", "zero_weight", "nan_weight"])
def test_store_rejects_inconsistent_fields(fields, message):
    with pytest.raises(DataError, match=message):
        model(*fields)


def test_fit_empty_rejected():
    with pytest.raises(DataError, match="^cannot fit on zero rows$"):
        model(np.empty((0, 3)), np.empty((0, 1)), width=3)
    with pytest.raises(DataError, match=r"^features must be a non-empty 2-D array, "
                                        r"got shape \(0, 3\)$"):
        neighbours(np.empty((0, 3)), np.zeros((1, 3)), 1)


def test_fit_ragged_rows_rejected():
    with pytest.raises(DataError, match="^ragged training rows: "):
        model([[1.0] * 13, [1.0] * 12], [[0.0], [0.0]], width=13)


def test_predict_exact_match_short_circuit():
    store = two_point_store()
    assert predict_knn_batch(*store, [[0.0]], 2)[0, 0] == 0.0


def test_predict_equidistant_mean():
    store = two_point_store()
    assert predict_knn_batch(*store, [[0.5]], 2)[0, 0] == pytest.approx(5.0)


def test_predict_inverse_distance_weights():
    # w = 1/d: (4*0 + (4/3)*10) / (4 + 4/3) = 2.5
    store = two_point_store()
    assert predict_knn_batch(*store, [[0.25]], 2)[0, 0] == pytest.approx(2.5)


def test_predict_dimension_mismatch():
    store = two_point_store()
    with pytest.raises(DataError, match="^query has 2 dims, store has 1$"):
        predict_knn_batch(*store, [[0.0, 1.0]], 1)


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
    for trial, (x, q) in enumerate(_oracle_cases(rng)):
        n = x.shape[0]
        store = x, rng.normal(size=(n, 2)), rng.uniform(0.1, 3.0, size=n)
        k = (1, 2, 6, 50)[trial % 4]
        assert np.allclose(predict_knn_batch(*store, [q], k)[0],
                           knn_oracle(*store, q, k), atol=1e-10)


def test_overflowing_store_matches_oracle(rng):
    """Squares of ~1e200 overflow in the shortcut; the result must not change."""
    for trial in range(40):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(2, 5))
        x = rng.integers(0, 3, size=(n, d)).astype(float)
        x[:, 0] = 1e200
        q = rng.integers(0, 3, size=d).astype(float)
        q[0] = 1e200
        store = x, rng.normal(size=(n, 2)), rng.uniform(0.1, 3.0, size=n)
        k = (1, 2, 6)[trial % 3]
        assert np.allclose(predict_knn_batch(*store, [q], k)[0],
                           knn_oracle(*store, q, k), atol=1e-10)


def _exhaustive_scan(store, query, k):
    """Full-store distances and a stable sort: the scan the shortlist replaces."""
    features, targets, weights = store
    diffs = features - query
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    k = min(k, len(features))
    order = np.argsort(d, kind="stable")[:k]
    nd, nw, ny = d[order], weights[order], targets[order]
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
        store = x, rng.normal(size=(n, 4)), rng.uniform(0.1, 3.0, size=n)
        queries = np.vstack([x[rng.integers(n, size=5)],
                             x.mean(axis=0) + rng.normal(size=(5, d)) * x.std()])
        k = (1, 2, 6, 50)[trial % 4]
        batch = predict_knn_batch(*store, queries, k)
        for row, q in zip(batch, queries):
            assert np.array_equal(row, _exhaustive_scan(store, q, k))


def _branch_cases(rng, k, above):
    """(instances, queries) with n >= 16·k (16 slabs) or n < 16·k (fewer slabs,
    down to one, the whole row), covering ties, duplicates, zero rows and
    values beyond 1e154, a tight cluster far from the origin, unit rows, and
    the float32 edges: norms near its overflow, components whose products
    underflow or are subnormal, and near-ties under one float32 ulp."""
    threshold = knn._SLABS * k
    for trial in range(22):
        n = int(rng.integers(threshold, threshold + 300) if above
                else rng.integers(1, threshold))
        d = int(rng.integers(1, 14))
        kind = trial % 11
        # low-resolution grid coordinates force distance ties
        x = rng.integers(0, 3, size=(n, d)).astype(float)
        queries = np.vstack([x[rng.integers(n, size=3)],
                             rng.integers(0, 3, size=(3, d)).astype(float)])
        if kind == 1:
            # more than k copies of one point, where n allows
            x = rng.normal(size=(n, d))
            point = rng.normal(size=d)
            x[rng.permutation(n)[:k + 3]] = point
            queries = np.vstack([point, point, point + 1e-9, rng.normal(size=(3, d))])
        elif kind == 2:
            # all-zero rows among general ones
            x = rng.normal(size=(n, d))
            x[rng.random(n) < 0.5] = 0.0
            queries = np.vstack([np.zeros((2, d)), x[rng.integers(n, size=2)],
                                 rng.normal(size=(2, d))])
        elif kind == 3:
            # stored rows beyond 1e154 among ordinary ones: every query scans all
            x[rng.random(n) < 0.3, 0] = 1e154
            queries[::2, 0] = 1e154
        elif kind == 4:
            # queries beyond 1e154 scan all, in the same blocks as shortlisted ones
            queries[::2, 0] = 1e154
        elif kind == 5:
            # the product cancels badly: the margin decides the shortlist
            x = 1e4 + rng.normal(size=(n, d)) * 1e-5
            queries = np.vstack([x[rng.integers(n, size=3)], 1e4 + rng.normal(size=(3, d)) * 1e-5])
        elif kind == 6:
            # L2-normalized rows, as monitoring models store them
            x = rng.normal(size=(n, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            queries = np.vstack([x[rng.integers(n, size=3)], rng.normal(size=(3, d))])
        elif kind == 7:
            # norms of 1e17 to 1e20 among ordinary rows: the float32 product
            # overflows past about 1e19, and every query of such a store scans all
            top = rng.uniform(17, 20)
            x = rng.normal(size=(n, d))
            big = rng.random(n) < 0.3
            x[big] *= 10.0 ** rng.uniform(17, top, size=(int(big.sum()), 1))
            queries = np.vstack([x[rng.integers(n, size=2)], rng.normal(size=(2, d)),
                                 rng.normal(size=(2, d)) * 10.0 ** rng.uniform(17, 20, (2, 1))])
        elif kind == 8:
            # components of 1e-23, whose squares underflow in float32, and of
            # 1e-39 to 1e-45, float32 subnormals
            scale = np.where(rng.random((n, d)) < 0.5, 1e-23,
                             10.0 ** rng.uniform(-45, -39, size=(n, d)))
            x = rng.normal(size=(n, d)) * scale
            queries = np.vstack([x[rng.integers(n, size=2)], np.zeros((1, d)),
                                 rng.normal(size=(3, d)) * 1e-23])
        elif kind == 9:
            # near-ties under a float32 ulp: 1 + 2^-24 is a float32 rounding
            # midpoint, so offsets of 2^-45 from it round either way
            q = rng.normal(size=d)
            q[0] = 0.0
            x = np.tile(q, (n, 1))
            x[:, 0] = 1.0 + 2.0 ** -24 + rng.integers(-3, 4, size=n) * 2.0 ** -45
            queries = np.vstack([q, q, x[rng.integers(n, size=2)], rng.normal(size=(2, d))])
        elif kind == 10:
            # float32 products rounding in the subnormal range against the
            # order: each term -2q_i·x_i is (0.5 + 2^-6)·2^-149 for the nearer
            # rows, which round up, and (0.5 - 2^-6)·2^-149, one of them 2^-149
            # more, for the farther rows, which round down. Their
            # approximations end up (d - 1)·2^-149 apart, which only the
            # margin's subnormal term covers: u·S is far below 2^-149.
            d = 13
            f = np.full((n, d), 0.5 - 2.0 ** -6)
            f[np.arange(n), rng.integers(d, size=n)] += 1.0
            f[rng.integers(n, size=3)] = 0.5 + 2.0 ** -6
            x = f * 2.0 ** -80
            queries = np.vstack([np.full((2, d), -2.0 ** -70), x[rng.integers(n, size=2)],
                                 np.zeros((2, d))])
        yield x, queries


@pytest.mark.parametrize("above", [False, True], ids=["below_16k", "from_16k"])
@pytest.mark.parametrize("k", [1, 6, 9, 50])
def test_both_shortlist_bounds_match_exhaustive_scan_bit_for_bit(rng, monkeypatch, k, above):
    monkeypatch.setattr(knn, "_BLOCK_CELLS", 4000)     # several queries per block
    for x, queries in _branch_cases(rng, k, above):
        n = x.shape[0]
        store = x, rng.normal(size=(n, 4)), rng.uniform(0.1, 3.0, size=n)
        batch = predict_knn_batch(*store, queries, k)
        for row, q in zip(batch, queries):
            assert np.array_equal(row, _exhaustive_scan(store, q, k))


@pytest.mark.parametrize("above", [False, True], ids=["below_16k", "from_16k"])
@pytest.mark.parametrize("k", [1, 6, 9, 50])
def test_neighbours_are_the_stable_scan_order(rng, monkeypatch, k, above):
    """idx and dist are the first k of a stable sort of all exact distances:
    ties go to the lower index."""
    monkeypatch.setattr(knn, "_BLOCK_CELLS", 4000)
    for x, queries in _branch_cases(rng, k, above):
        idx, dist = neighbours(x, queries, k)
        assert idx.shape == dist.shape == (len(queries), min(k, len(x)))
        for i, q in enumerate(queries):
            diffs = x - q
            scan = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            order = np.argsort(scan, kind="stable")[:k]
            assert np.array_equal(idx[i], order)
            assert np.array_equal(dist[i], scan[order])


def test_shortlists_stay_near_k(rng, monkeypatch):
    """The float32 margin keeps the re-rank to about k exact distances a query:
    a margin that grew into a near-full scan would still give right answers."""
    x = rng.normal(size=(20_000, 13))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    queries = rng.normal(size=(500, 13))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    computed = []
    exact_distances = knn._exact_distances

    def counting(features, q, rows, cols):
        computed.append(len(cols))
        return exact_distances(features, q, rows, cols)

    monkeypatch.setattr(knn, "_exact_distances", counting)
    neighbours(x, queries, 6)
    assert 6 * 500 <= sum(computed) <= 7 * 500


def test_neighbours_rejects_bad_k_and_shapes():
    features = two_point_store()[0]
    with pytest.raises(ConfigError, match="^k must be >= 1, got 0$"):
        neighbours(features, [[0.0]], 0)
    with pytest.raises(DataError, match=r"^queries must be 2-D, got shape \(1,\)$"):
        neighbours(features, [0.0], 1)
    with pytest.raises(DataError, match=r"^features must be a non-empty 2-D array, "
                                        r"got shape \(2,\)$"):
        neighbours(features.ravel(), [[0.0]], 1)
    idx, dist = neighbours(features, np.empty((0, 1)), 3)
    assert idx.shape == dist.shape == (0, 2)


def test_k_larger_than_store_uses_all():
    store = two_point_store()
    out = predict_knn_batch(*store, [[0.5]], 10)[0]
    assert out[0] == pytest.approx(5.0)


def test_single_instance_store(rng):
    store = np.array([[1.0, 2.0]]), np.array([[7.0]]), np.ones(1)
    assert predict_knn_batch(*store, [rng.normal(size=2)], 6)[0, 0] == 7.0


def test_interpolation_at_training_points(rng):
    """Duplicate-free stores return stored targets exactly at stored points."""
    for _ in range(100):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        x = np.unique(rng.normal(size=(n, d)), axis=0)
        y = rng.normal(size=(x.shape[0], 3))
        i = int(rng.integers(x.shape[0]))
        assert np.array_equal(predict_knn_batch(*unweighted(x, y), [x[i]], 4)[0], y[i])


def test_prediction_within_neighbor_hull(rng):
    for _ in range(50):
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 2))
        out = predict_knn_batch(*unweighted(x, y), [rng.normal(size=3)], 5)[0]
        assert np.all(out <= y.max(axis=0) + 1e-12)
        assert np.all(out >= y.min(axis=0) - 1e-12)


def test_permutation_invariance_generic_position(rng):
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=(25, 2))
    perm = rng.permutation(25)
    store_a = unweighted(x, y)
    store_b = unweighted(x[perm], y[perm])
    for _ in range(20):
        q = rng.normal(size=4)
        assert np.allclose(predict_knn_batch(*store_a, [q], 6)[0],
                           predict_knn_batch(*store_b, [q], 6)[0], atol=1e-12)


def test_weight_scaling_invariance(rng):
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 2))
    w = rng.uniform(0.5, 2.0, size=20)
    for _ in range(20):
        q = rng.normal(size=3)
        assert np.allclose(predict_knn_batch(x, y, w, [q], 5)[0],
                           predict_knn_batch(x, y, w * 37.5, [q], 5)[0], atol=1e-12)


def test_batch_prediction_matches_single(rng, monkeypatch):
    """A row's prediction does not depend on the query block it falls in."""
    monkeypatch.setattr(knn, "_BLOCK_CELLS", 40)     # 2 queries per block of 15 instances
    x = rng.integers(0, 3, size=(15, 3)).astype(float)
    y = rng.normal(size=(15, 2))
    store = x, y, rng.uniform(0.5, 2.0, size=15)
    queries = np.vstack([x[:3], rng.integers(0, 3, size=(3, 3)), rng.normal(size=(3, 3))])
    batch = predict_knn_batch(*store, queries, 4)
    assert batch.shape == (9, 2)
    for i, q in enumerate(queries):
        assert np.array_equal(batch[i], predict_knn_batch(*store, [q], 4)[0])
