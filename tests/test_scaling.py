import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regio_forecast.errors import ColumnMismatch, EmptyMatrix, OutOfDomain, TooFewRows
from regio_forecast.features import FeatureMatrix, TargetMatrix
from regio_forecast.scaling import (
    MinMaxScalerState,
    apply_minmax,
    apply_quantile_scaler,
    fit_minmax,
    fit_quantile_scaler,
    inverse_normal_cdf,
    invert_minmax,
    l2_normalize_rows,
)

from oracles import bisection_normal_ppf, empirical_cdf_prob, interp_quantile


def column_matrix(values, code="x"):
    return FeatureMatrix(np.asarray(values, dtype=float)[:, None], (code,))


# --- inverse normal CDF -------------------------------------------------

def test_ppf_median_is_zero():
    assert inverse_normal_cdf(0.5) == 0.0


def test_ppf_0975_matches_bisection_oracle():
    oracle = bisection_normal_ppf(0.975)
    assert abs(oracle - 1.959964) < 1e-6          # frozen from the oracle
    assert abs(inverse_normal_cdf(0.975) - oracle) < 1e-8


@pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.7])
def test_ppf_out_of_domain(p):
    with pytest.raises(OutOfDomain):
        inverse_normal_cdf(p)


def test_ppf_against_bisection_oracle_grid():
    rng = np.random.default_rng(99)
    ps = np.concatenate([
        rng.uniform(1e-7, 1 - 1e-7, 300),
        rng.uniform(1e-7, 1e-3, 100),       # tails, where the approximation is hardest
        rng.uniform(1 - 1e-3, 1 - 1e-7, 100),
    ])
    for p in ps:
        assert abs(inverse_normal_cdf(float(p)) - bisection_normal_ppf(float(p))) <= 1e-8


@given(st.floats(1e-6, 1 - 1e-6))
def test_ppf_symmetry(p):
    assert abs(inverse_normal_cdf(p) + inverse_normal_cdf(1 - p)) <= 1e-8


# --- quantile scaler ----------------------------------------------------

def test_fit_landmarks_match_interp_oracle():
    data = np.arange(1.0, 101.0)
    scaler = fit_quantile_scaler(column_matrix(data), n_quantiles=101)
    probs = np.linspace(0, 1, 101)
    expected = [interp_quantile(np.sort(data), p) for p in probs]
    assert np.allclose(scaler.landmarks[0], expected, atol=1e-12)
    # spot values: 1, 1.99, ..., 100
    assert scaler.landmarks[0][0] == 1.0
    assert abs(scaler.landmarks[0][1] - 1.99) < 1e-12
    assert scaler.landmarks[0][-1] == 100.0


def test_fit_constant_column_all_landmarks_equal():
    scaler = fit_quantile_scaler(column_matrix([5.0, 5.0, 5.0]), n_quantiles=7)
    assert np.all(scaler.landmarks[0] == 5.0)


def test_fit_single_row_rejected():
    with pytest.raises(TooFewRows):
        fit_quantile_scaler(column_matrix([1.0]))


def test_fit_bad_n_quantiles():
    with pytest.raises(TooFewRows):
        fit_quantile_scaler(column_matrix([1.0, 2.0]), n_quantiles=1)


def test_transform_median_maps_near_zero():
    data = np.arange(1.0, 101.0)
    scaler = fit_quantile_scaler(column_matrix(data))
    median = float(np.median(data))
    z = apply_quantile_scaler(scaler, column_matrix([median])).values[0, 0]
    # oracle: empirical CDF composed with the normal quantile function
    p = empirical_cdf_prob(np.sort(data), median)
    assert abs(z - bisection_normal_ppf(max(min(p, 1 - 1e-7), 1e-7))) < 1e-8
    assert abs(z) < 0.05


def test_transform_clips_below_training_minimum():
    data = np.arange(1.0, 101.0)
    scaler = fit_quantile_scaler(column_matrix(data))
    below = apply_quantile_scaler(scaler, column_matrix([-50.0])).values[0, 0]
    at_min = apply_quantile_scaler(scaler, column_matrix([1.0])).values[0, 0]
    assert below == at_min


def test_transform_constant_training_column_maps_to_zero():
    scaler = fit_quantile_scaler(column_matrix([5.0, 5.0, 5.0]))
    out = apply_quantile_scaler(scaler, column_matrix([5.0, 7.0, -2.0]))
    assert np.all(out.values == 0.0)


def test_transform_column_mismatch():
    scaler = fit_quantile_scaler(column_matrix([1.0, 2.0, 3.0], code="a"))
    with pytest.raises(ColumnMismatch):
        apply_quantile_scaler(scaler, column_matrix([1.0], code="b"))


def test_training_matrix_statistics():
    """Transformed training columns look standard normal (n=362, continuous)."""
    rng = np.random.default_rng(5)
    values = np.column_stack([
        rng.lognormal(0.0, 1.0, 362),
        rng.normal(5.0, 2.0, 362),
        rng.exponential(3.0, 362),
    ])
    m = FeatureMatrix(values, ("a", "b", "c"))
    z = apply_quantile_scaler(fit_quantile_scaler(m), m).values
    assert np.all(np.abs(z.mean(axis=0)) < 0.05)
    assert np.all((z.std(axis=0) >= 0.85) & (z.std(axis=0) <= 1.15))


@settings(deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=40),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_transform_monotone(train, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    scaler = fit_quantile_scaler(column_matrix(train))
    out = apply_quantile_scaler(scaler, column_matrix([lo, hi])).values
    assert out[0, 0] <= out[1, 0]


def test_scaler_json_roundtrip():
    from regio_forecast.scaling import QuantileNormalScaler
    data = np.random.default_rng(0).normal(size=(50, 2))
    scaler = fit_quantile_scaler(FeatureMatrix(data, ("a", "b")))
    clone = QuantileNormalScaler.from_json_dict(scaler.to_json_dict())
    assert np.array_equal(clone.landmarks, scaler.landmarks)
    assert clone.column_codes == scaler.column_codes


# --- L2 row normalization ----------------------------------------------

def test_l2_rows_345_triangle():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out.values, [[0.6, 0.8]])
    assert not out.zero_rows[0]


def test_l2_rows_unit_vector_unchanged():
    out = l2_normalize_rows(np.array([[1.0, 0.0, 0.0]]))
    assert np.array_equal(out.values, [[1.0, 0.0, 0.0]])


def test_l2_zero_row_flagged():
    out = l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert out.zero_rows.tolist() == [True, False]
    assert np.array_equal(out.values[0], [0.0, 0.0])


@given(st.lists(st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3),
                min_size=1, max_size=20))
@example(rows=[[0.0, 0.0, 1.3892954084877716e-159]])    # plain norm is subnormal
@example(rows=[[1e200, 0.0]])                           # plain norm overflows
def test_l2_norms_and_direction(rows):
    arr = np.asarray(rows, dtype=float)
    out = l2_normalize_rows(arr)
    norms = np.linalg.norm(out.values, axis=1)
    assert np.all(np.abs(norms[~out.zero_rows] - 1.0) <= 1e-9)
    # direction preserved: output is a positive multiple of the input,
    # compared in units of the row's largest |value| so no norm overflows
    for i in range(arr.shape[0]):
        if not out.zero_rows[i]:
            unit = arr[i] / np.abs(arr[i]).max()
            assert np.allclose(out.values[i] * np.linalg.norm(unit), unit,
                               rtol=1e-9, atol=1e-12)


# --- min-max ------------------------------------------------------------

def targets(values, names=("count",)):
    return TargetMatrix(np.asarray(values, dtype=float).reshape(-1, len(names)), names)


def test_fit_minmax_basic():
    state = fit_minmax(targets([10.0, 20.0, 30.0]))
    assert state.mins[0] == 10.0 and state.maxs[0] == 30.0


def test_fit_minmax_single_value():
    state = fit_minmax(targets([7.0]))
    assert state.mins[0] == 7.0 and state.maxs[0] == 7.0


def test_fit_minmax_empty():
    with pytest.raises(EmptyMatrix):
        fit_minmax(targets(np.empty((0, 1))))


def test_apply_minmax_values():
    state = fit_minmax(targets([10.0, 20.0, 30.0]))
    out = apply_minmax(state, targets([10.0, 20.0, 30.0]))
    assert np.allclose(out.values.ravel(), [0.0, 0.5, 1.0])


def test_apply_minmax_extrapolates_unclipped():
    state = fit_minmax(targets([10.0, 20.0, 30.0]))
    out = apply_minmax(state, targets([40.0]))
    assert out.values[0, 0] == pytest.approx(1.5)


def test_apply_minmax_constant_column_maps_to_zero():
    state = fit_minmax(targets([7.0, 7.0]))
    out = apply_minmax(state, targets([7.0, 9.0]))
    assert np.all(out.values == 0.0)


def test_invert_minmax_midpoint():
    state = MinMaxScalerState(np.array([10.0]), np.array([30.0]))
    out = invert_minmax(state, targets([0.5]))
    assert out.values[0, 0] == pytest.approx(20.0)


def test_invert_minmax_count_mode_floors():
    state = MinMaxScalerState(np.array([0.0]), np.array([100.0]))
    out = invert_minmax(state, targets([-0.1]), count_mode=True)
    assert out.values[0, 0] == 0.0
    raw = invert_minmax(state, targets([-0.1]))
    assert raw.values[0, 0] == pytest.approx(-10.0)


def test_minmax_column_mismatch():
    state = MinMaxScalerState(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ColumnMismatch):
        apply_minmax(state, targets([1.0]))


@settings(deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
def test_minmax_roundtrip(values):
    t = targets(values)
    state = fit_minmax(t)
    back = invert_minmax(state, apply_minmax(state, t))
    span = float(state.maxs[0] - state.mins[0])
    if span > 0:
        assert np.all(np.abs(back.values - t.values) <= 1e-9 * max(1.0, span))


def test_minmax_order_preserving():
    state = fit_minmax(targets([1.0, 5.0, 9.0]))
    out = apply_minmax(state, targets([2.0, 3.0, 8.0])).values.ravel()
    assert out[0] < out[1] < out[2]
