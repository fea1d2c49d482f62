import numpy as np
import pytest
from scipy.special import ndtri
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regio_forecast.errors import DataError
from regio_forecast.scaling import (
    CDF_CLIP_HI,
    CDF_CLIP_LO,
    apply_quantile_scaler,
    fit_quantile_scaler,
    l2_normalize_rows,
)

from oracles import bisection_normal_ppf, empirical_cdf_prob, interp_quantile, landmark_cdf_oracle


def column_matrix(values):
    return np.asarray(values, dtype=float)[:, None]


def fit_column(values, code="x"):
    return fit_quantile_scaler(column_matrix(values), (code,))


# --- normal quantile step of the quantile scaler ----------------------

def test_ppf_median_is_zero():
    landmarks = fit_column(np.arange(1.0, 102.0))     # 101 landmarks
    assert apply_quantile_scaler(landmarks, column_matrix([51.0]))[0, 0] == 0.0


def test_ppf_0975_matches_bisection_oracle():
    oracle = bisection_normal_ppf(0.975)
    assert abs(oracle - 1.959964) < 1e-6          # frozen from the oracle
    landmarks = fit_column(np.arange(1.0, 42.0))      # 41 landmarks
    z = apply_quantile_scaler(landmarks, column_matrix([40.0]))[0, 0]   # p = 39/40
    assert abs(z - oracle) < 1e-8


def test_ppf_against_bisection_oracle_grid():
    """At every landmark, and inside the tail segments, z is the oracle's Phi^-1(clip(p))."""
    rng = np.random.default_rng(99)
    landmarks = fit_column(rng.lognormal(0.0, 1.0, 2000))
    lm = landmarks[0]
    tails = np.concatenate([                # tails, where Phi^-1 is hardest
        lm[0] + rng.uniform(1e-4, 1.0, 100) * (lm[1] - lm[0]),
        lm[-1] - rng.uniform(1e-4, 1.0, 100) * (lm[-1] - lm[-2]),
    ])
    xs = np.concatenate([lm, tails])
    z = apply_quantile_scaler(landmarks, column_matrix(xs))[:, 0]
    for x, z_x in zip(xs, z):
        p = min(max(empirical_cdf_prob(lm, x), CDF_CLIP_LO), CDF_CLIP_HI)
        assert abs(z_x - bisection_normal_ppf(p)) <= 1e-8


@given(st.floats(1e-6, 1 - 1e-6))
def test_ppf_symmetry(p):
    lm = np.linspace(-1.0, 1.0, 101)
    landmarks = ((lm - lm[::-1]) / 2)[None, :]
    x = 2.0 * p - 1.0
    z = apply_quantile_scaler(landmarks, column_matrix([x, -x]))[:, 0]
    assert abs(z[0] + z[1]) <= 1e-8


# --- quantile scaler ----------------------------------------------------

def test_fit_landmarks_match_interp_oracle():
    data = np.linspace(1.0, 100.0, 101)     # 101 rows give 101 landmarks
    landmarks = fit_column(data)
    probs = np.linspace(0, 1, 101)
    expected = [interp_quantile(np.sort(data), p) for p in probs]
    assert np.allclose(landmarks[0], expected, atol=1e-12)
    # spot values: 1, 1.99, ..., 100
    assert landmarks[0][0] == 1.0
    assert abs(landmarks[0][1] - 1.99) < 1e-12
    assert landmarks[0][-1] == 100.0


@pytest.mark.parametrize("rows", [2480, 19715, 1001, 1000, 999, 7, 2])
def test_fit_landmarks_bit_identical_to_numpy_quantile(rows):
    """Landmarks equal np.quantile's linear rule: random and tied columns,
    1000 landmarks for more rows than that, one per row up to 1000, and 2
    rows. Only the sign of a zero drawn from tied -0.0 and 0.0 may differ,
    which array_equal ignores."""
    rng = np.random.default_rng(rows)
    values = np.column_stack([
        rng.normal(size=rows),
        rng.lognormal(0.0, 2.0, rows),
        rng.integers(-2, 3, rows) * 1.5,
        np.where(rng.random(rows) < 0.5, -0.0, 0.0),
    ])
    landmarks = fit_quantile_scaler(values, ("a", "b", "c", "d"))
    assert landmarks.shape[1] == min(1000, rows)
    expected = np.quantile(values, np.linspace(0.0, 1.0, landmarks.shape[1]), axis=0).T
    assert np.array_equal(landmarks, expected)


def test_fit_constant_column_all_landmarks_equal():
    landmarks = fit_column([5.0] * 7)
    assert np.all(landmarks[0] == 5.0)


def test_fit_single_row_rejected():
    with pytest.raises(DataError, match="^need at least 2 training rows to fit quantiles, got 1$"):
        fit_column([1.0])


def test_fit_rejects_non_finite_values():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.inf]])
    with pytest.raises(DataError, match="^non-finite value at row 2, column 'b'$"):
        fit_quantile_scaler(values, ("a", "b"))


def test_transform_median_maps_near_zero():
    data = np.arange(1.0, 101.0)
    landmarks = fit_column(data)
    median = float(np.median(data))
    z = apply_quantile_scaler(landmarks, column_matrix([median]))[0, 0]
    # oracle: empirical CDF composed with the normal quantile function
    p = empirical_cdf_prob(np.sort(data), median)
    assert abs(z - bisection_normal_ppf(max(min(p, 1 - 1e-7), 1e-7))) < 1e-8
    assert abs(z) < 0.05


def test_transform_clips_below_training_minimum():
    data = np.arange(1.0, 101.0)
    landmarks = fit_column(data)
    below = apply_quantile_scaler(landmarks, column_matrix([-50.0]))[0, 0]
    at_min = apply_quantile_scaler(landmarks, column_matrix([1.0]))[0, 0]
    assert below == at_min


def test_transform_constant_training_column_maps_to_zero():
    landmarks = fit_column([5.0, 5.0, 5.0])
    out = apply_quantile_scaler(landmarks, column_matrix([5.0, 7.0, -2.0]))
    assert np.all(out == 0.0)


def _awkward_columns(rng, rows):
    """Training and query columns with ties, landmark hits, values outside
    the training range, -0.0 next to 0.0 and a constant column."""
    train = np.column_stack([
        rng.normal(size=rows),
        rng.integers(-3, 4, size=rows).astype(float),          # heavy ties
        np.full(rows, 2.5),                                    # constant
        np.array([-0.0, 0.0, 1.0])[rng.integers(0, 3, size=rows)],
        rng.lognormal(size=rows)])
    landmarks = fit_quantile_scaler(train, ("a", "b", "c", "d", "e"))
    queries = np.vstack([
        train,
        landmarks.T,                                           # every landmark
        landmarks.T[::7] * 1.5 - 1.0,                          # in between and outside
        [[-1e9, -10.0, -0.0, -0.0, 0.0], [1e9, 10.0, 2.5, 0.0, 1e9]]])
    return landmarks, queries


@pytest.mark.parametrize("rows", [2, 9, 1500])
def test_transform_row_permutation_is_bit_identical(rows):
    rng = np.random.default_rng(rows)
    landmarks, queries = _awkward_columns(rng, rows)
    perm = rng.permutation(len(queries))
    out = apply_quantile_scaler(landmarks, queries)
    assert apply_quantile_scaler(landmarks, queries[perm]).tobytes() == out[perm].tobytes()


@pytest.mark.parametrize("rows", [2, 9, 1500])
def test_transform_matches_per_value_oracle(rows):
    landmarks, queries = _awkward_columns(np.random.default_rng(rows + 1), rows)
    out = apply_quantile_scaler(landmarks, queries)
    probs = np.linspace(0.0, 1.0, landmarks.shape[1])
    for j, row in enumerate(landmarks):
        p = np.array([landmark_cdf_oracle(row, probs, x) for x in queries[:, j].tolist()])
        expected = ndtri(np.clip(p, CDF_CLIP_LO, CDF_CLIP_HI))
        assert out[:, j].tobytes() == expected.tobytes(), j


def test_transform_column_mismatch():
    landmarks = fit_column([1.0, 2.0, 3.0], code="a")
    with pytest.raises(DataError,
                       match=r"^values of shape \(1, 2\) do not match fitted column count 1$"):
        apply_quantile_scaler(landmarks, np.ones((1, 2)))


def test_training_matrix_statistics():
    """Transformed training columns look standard normal (n=362, continuous)."""
    rng = np.random.default_rng(5)
    values = np.column_stack([
        rng.lognormal(0.0, 1.0, 362),
        rng.normal(5.0, 2.0, 362),
        rng.exponential(3.0, 362),
    ])
    z = apply_quantile_scaler(fit_quantile_scaler(values, ("a", "b", "c")), values)
    assert np.all(np.abs(z.mean(axis=0)) < 0.05)
    assert np.all((z.std(axis=0) >= 0.85) & (z.std(axis=0) <= 1.15))


@settings(deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=40),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_transform_monotone(train, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    landmarks = fit_column(train)
    out = apply_quantile_scaler(landmarks, column_matrix([lo, hi]))
    assert out[0, 0] <= out[1, 0]


# --- L2 row normalization ----------------------------------------------

def test_l2_rows_345_triangle():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]])


def test_l2_rows_unit_vector_unchanged():
    out = l2_normalize_rows(np.array([[1.0, 0.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 0.0, 0.0]])


def test_l2_zero_row_flagged():
    out = l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert (np.linalg.norm(out, axis=1) == 0.0).tolist() == [True, False]
    assert np.array_equal(out[0], [0.0, 0.0])


@given(st.lists(st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3),
                min_size=1, max_size=20))
@example(rows=[[0.0, 0.0, 1.3892954084877716e-159]])    # plain norm is subnormal
@example(rows=[[1e200, 0.0]])                           # plain norm overflows
def test_l2_norms_and_direction(rows):
    arr = np.asarray(rows, dtype=float)
    out = l2_normalize_rows(arr)
    zero = ~np.any(arr, axis=1)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(np.abs(norms[~zero] - 1.0) <= 1e-9)
    assert np.all(out[zero] == 0.0)
    # direction preserved: output is a positive multiple of the input,
    # compared in units of the row's largest |value| so no norm overflows
    for i in range(arr.shape[0]):
        if not zero[i]:
            unit = arr[i] / np.abs(arr[i]).max()
            assert np.allclose(out[i] * np.linalg.norm(unit), unit,
                               rtol=1e-9, atol=1e-12)
