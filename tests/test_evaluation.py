import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regio_forecast.errors import DataError, ZeroVariance
from regio_forecast.evaluation import (
    BootstrapConfig,
    bootstrap_interval,
    evaluate_model,
    evs,
    mae,
    r2,
    reports_to_long_csv,
    reports_to_target_table,
    rmse,
)


def test_r2_fixed_points():
    assert r2([1, 2, 3], [1, 2, 3]) == 1.0
    assert r2([1, 2, 3], [2, 2, 2]) == 0.0
    assert r2([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5)   # 1 - 1/2


def test_r2_errors():
    with pytest.raises(ZeroVariance):
        r2([2, 2, 2], [1, 2, 3])
    with pytest.raises(DataError, match="^2 actuals vs 3 predictions$"):
        r2([1, 2], [1, 2, 3])


def test_evs_fixed_points():
    assert evs([1, 2, 3], [1, 2, 3]) == 1.0
    assert evs([1, 2, 3], [2, 2, 2]) == 0.0


def test_evs_shift_invariance():
    y = np.array([1.0, 2.0, 3.0])
    assert evs(y, y + 5.0) == pytest.approx(1.0)
    assert r2(y, y + 5.0) < 1.0


def test_mae_rmse_values():
    assert mae([0, 0], [1, 1]) == 1.0
    assert rmse([0, 0], [1, 1]) == 1.0
    assert mae([0, 0], [0, 2]) == 1.0
    assert rmse([0, 0], [0, 2]) == pytest.approx(math.sqrt(2.0))
    assert mae([1, 2], [1, 2]) == 0.0
    assert rmse([1, 2], [1, 2]) == 0.0


def test_metric_empty_input():
    with pytest.raises(DataError, match="^metric inputs are empty$"):
        mae([], [])


@settings(deadline=None, max_examples=250)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
       st.integers(0, 2**32 - 1))
def test_metric_inequalities(y, seed):
    rng = np.random.default_rng(seed)
    y = np.asarray(y)
    y_hat = y + rng.normal(scale=max(1.0, np.abs(y).max() * 0.1), size=y.shape)
    assert rmse(y, y_hat) >= mae(y, y_hat) - 1e-12
    if np.var(y) > 0:
        assert r2(y, y_hat) <= evs(y, y_hat) + 1e-12


def test_metric_permutation_invariance(rng):
    y = rng.normal(size=30)
    y_hat = rng.normal(size=30)
    perm = rng.permutation(30)
    for metric in (r2, evs, mae, rmse):
        assert metric(y, y_hat) == pytest.approx(metric(y[perm], y_hat[perm]))


def test_bootstrap_perfect_predictions():
    y = np.arange(10.0)
    iv = bootstrap_interval(y, y, r2, BootstrapConfig(replicates=200, seed=1))
    assert (iv.low, iv.mid, iv.top) == (1.0, 1.0, 1.0)


def test_bootstrap_single_replicate_degenerate_flag(rng):
    y = rng.normal(size=12)
    y_hat = y + rng.normal(size=12)
    iv = bootstrap_interval(y, y_hat, mae, BootstrapConfig(replicates=1, seed=4))
    assert iv.low == iv.top
    assert iv.degenerate


def test_bootstrap_deterministic(rng):
    y = rng.normal(size=20)
    y_hat = y + rng.normal(size=20)
    cfg = BootstrapConfig(replicates=300, seed=11)
    a = bootstrap_interval(y, y_hat, rmse, cfg)
    b = bootstrap_interval(y, y_hat, rmse, cfg)
    assert a == b
    c = bootstrap_interval(y, y_hat, rmse, BootstrapConfig(replicates=300, seed=12))
    assert c != a


def test_bootstrap_ordering(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        y = r.normal(size=54)
        y_hat = y + r.normal(scale=0.5, size=54)
        for metric in (r2, evs, mae, rmse):
            iv = bootstrap_interval(y, y_hat, metric,
                                    BootstrapConfig(replicates=1000, seed=seed))
            assert iv.low <= iv.mid <= iv.top


def test_bootstrap_skips_degenerate_replicates():
    # nearly-constant actuals: many resamples have zero variance
    y = np.array([1.0, 1.0, 1.0, 2.0])
    y_hat = np.array([1.0, 1.1, 0.9, 1.8])
    iv = bootstrap_interval(y, y_hat, r2, BootstrapConfig(replicates=500, seed=2))
    assert iv.skipped_replicates > 0


def test_bootstrap_all_degenerate():
    # constant actuals fail in the full-sample metric itself
    with pytest.raises(ZeroVariance):
        bootstrap_interval([3.0, 3.0], [2.0, 4.0], r2,
                           BootstrapConfig(replicates=20, seed=0))
    # seed 0's single replicate resamples index 1 twice -> constant actuals
    with pytest.raises(DataError, match="^all 1 bootstrap replicates had constant actuals$"):
        bootstrap_interval([1.0, 2.0], [1.0, 2.0], r2,
                           BootstrapConfig(replicates=1, seed=0))


def test_evaluate_model_report_shape(trained_small_model, small_datasets):
    model, train_report, split = trained_small_model
    ds = small_datasets[0]
    report = evaluate_model(model, ds.subset(split.test_indices),
                            BootstrapConfig(replicates=100, seed=5),
                            training_time_seconds=train_report.fit_seconds)
    assert report.region == ds.region.name
    assert len(reports_to_long_csv([report]).splitlines()) == 1 + 16   # 4 targets x 4 metrics
    for target in report.intervals:
        for iv in report.intervals[target].values():
            assert iv.low <= iv.mid <= iv.top
    # metrics are on counts: mae is far larger than the [0, 1] scaled range
    assert report.interval("infections", "mae").mid > 1.0


def test_evaluate_perfect_model(small_datasets):
    """A model queried at stored training points predicts them exactly."""
    from regio_forecast.ingest import split_train_test
    from regio_forecast.mtl import train_mtl

    ds = small_datasets[0]
    split = split_train_test(ds, 16, seed=7)
    model, _ = train_mtl(small_datasets, ds.region, split.train_indices)
    report = evaluate_model(model, ds.subset(split.train_indices[:20]),
                            BootstrapConfig(replicates=50, seed=1))
    for target in report.intervals:
        assert report.interval(target, "r2").mid == pytest.approx(1.0, abs=1e-9)
        assert report.interval(target, "evs").mid == pytest.approx(1.0, abs=1e-9)
        assert report.interval(target, "mae").mid == pytest.approx(0.0, abs=1e-6)
        assert report.interval(target, "rmse").mid == pytest.approx(0.0, abs=1e-6)


def test_csv_exports(trained_small_model, small_datasets):
    model, train_report, split = trained_small_model
    ds = small_datasets[0]
    report = evaluate_model(model, ds.subset(split.test_indices), BootstrapConfig(replicates=50, seed=5))
    long_csv = reports_to_long_csv([report])
    assert long_csv.splitlines()[0] == "province,target,metric,low,mid,top,tt_seconds"
    assert len(long_csv.strip().splitlines()) == 17
    wide = reports_to_target_table([report], "infections")
    header = wide.splitlines()[0].split(",")
    assert header[0] == "province" and header[-1] == "tt_seconds"
    assert len(header) == 14                       # 4 metrics x 3 bounds + 2
    assert len(wide.strip().splitlines()) == 2
