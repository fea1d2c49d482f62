import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regio_forecast import evaluation
from regio_forecast.errors import ConfigError, DataError
from regio_forecast.evaluation import (
    CONFIDENCE,
    MAX_REPLICATES,
    METRIC_FUNCTIONS,
    BootstrapConfig,
    bootstrap_intervals,
    evaluate_model,
    evs,
    mae,
    r2,
    reports_to_long_csv,
    reports_to_target_table,
    rmse,
    rotate_regions,
)
from regio_forecast.features import TARGET_COLUMNS
from regio_forecast.scaling import linear_quantiles
from regio_forecast.synth import SyntheticSpec, generate_regions

from oracles import bootstrap_oracle, metric_oracle


def test_r2_fixed_points():
    assert r2([1, 2, 3], [1, 2, 3]) == 1.0
    assert r2([1, 2, 3], [2, 2, 2]) == 0.0
    assert r2([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5)   # 1 - 1/2


def test_r2_errors():
    assert math.isnan(r2([2, 2, 2], [1, 2, 3]))
    assert math.isnan(evs([2, 2, 2], [1, 2, 3]))
    # equal fractions leave a spread of rounding noise; unequal tiny values, one that underflows
    for y in ([0.1, 0.1, 0.1], [0.0, 1e-170]):
        assert math.isnan(r2(y, [0.2, 0.1, 0.0][:len(y)]))
        assert math.isnan(evs(y, [0.2, 0.1, 0.0][:len(y)]))
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
    if np.all(y == y[0]):   # np.var of equal floats can be rounding noise, not 0
        assert math.isnan(r2(y, y_hat)) and math.isnan(evs(y, y_hat))
    elif np.var(y) > 0:
        assert r2(y, y_hat) <= evs(y, y_hat) + 1e-12


def test_metric_permutation_invariance(rng):
    y = rng.normal(size=30)
    y_hat = rng.normal(size=30)
    perm = rng.permutation(30)
    for metric in (r2, evs, mae, rmse):
        assert metric(y, y_hat) == pytest.approx(metric(y[perm], y_hat[perm]))


def targets(*series):
    """An (n, 4) array of target columns; a single series fills all four."""
    return np.column_stack(series * (4 // len(series)))


def all_intervals(intervals):
    return [iv for metrics in intervals.values() for iv in metrics.values()]


def test_bootstrap_perfect_predictions():
    y = targets(np.arange(10.0))
    intervals = bootstrap_intervals(y, y, BootstrapConfig(replicates=200, seed=1))
    assert list(intervals) == list(TARGET_COLUMNS)
    for metrics in intervals.values():
        assert list(metrics) == ["r2", "evs", "mae", "rmse"]
        iv = metrics["r2"]
        assert (iv.low, iv.mid, iv.top) == (1.0, 1.0, 1.0)


def test_bootstrap_single_replicate_low_equals_top(rng):
    y = rng.normal(size=(12, 4))
    y_hat = y + rng.normal(size=(12, 4))
    for iv in all_intervals(bootstrap_intervals(y, y_hat, BootstrapConfig(replicates=1, seed=4))):
        assert iv.low == iv.top


def test_bootstrap_deterministic(rng):
    y = rng.normal(size=(20, 4))
    y_hat = y + rng.normal(size=(20, 4))
    cfg = BootstrapConfig(replicates=300, seed=11)
    a = bootstrap_intervals(y, y_hat, cfg)
    b = bootstrap_intervals(y, y_hat, cfg)
    assert a == b
    c = bootstrap_intervals(y, y_hat, BootstrapConfig(replicates=300, seed=12))
    assert all(x != z for x, z in zip(all_intervals(a), all_intervals(c)))


def test_bootstrap_ordering(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        y = r.normal(size=(54, 4))
        y_hat = y + r.normal(scale=0.5, size=(54, 4))
        for iv in all_intervals(bootstrap_intervals(y, y_hat,
                                                    BootstrapConfig(replicates=1000, seed=seed))):
            assert iv.low <= iv.mid <= iv.top


def test_bootstrap_skips_degenerate_replicates():
    # nearly-constant actuals: many resamples have zero variance
    y = targets(np.array([1.0, 1.0, 1.0, 2.0]))
    y_hat = targets(np.array([1.0, 1.1, 0.9, 1.8]))
    intervals = bootstrap_intervals(y, y_hat, BootstrapConfig(replicates=500, seed=2))
    assert intervals["infections"]["r2"].skipped_replicates > 0


def test_r2_and_evs_skip_the_same_resamples(trained_small_model, small_datasets):
    """Integer counts on 3 held-out days leave about one resample in nine
    with constant actuals; r2 and evs of a target score the same resamples,
    so they skip the same ones."""
    model, _, split = trained_small_model
    test = small_datasets[0].subset(split.test_indices[3:6])
    assert np.all(test.targets == np.rint(test.targets))
    report = evaluate_model(model, test, BootstrapConfig(replicates=400, seed=3))
    for target in report.intervals:
        skipped = report.interval(target, "r2").skipped_replicates
        assert skipped > 0
        assert report.interval(target, "evs").skipped_replicates == skipped


def test_bootstrap_all_degenerate():
    # constant actuals fail in the full-sample metric itself
    with pytest.raises(DataError, match="^infections: actuals are constant; r2 is undefined$"):
        bootstrap_intervals(targets(np.array([3.0, 3.0])), targets(np.array([2.0, 4.0])),
                            BootstrapConfig(replicates=20, seed=0))
    # a spread that underflows only when divided by n: r2 is defined, evs is not
    y = targets(np.array([0.0, 0.0, 4e-162]))
    with pytest.raises(DataError, match=("^infections: actuals are constant; "
                                         "explained variance is undefined$")):
        bootstrap_intervals(y, y, BootstrapConfig(replicates=20, seed=0))
    # seed 0's single (1, 2) index draw is [[1, 1]] -> constant actuals
    # (a search of seeds 0-9 finds 0, 3, 5, 8 and 9)
    with pytest.raises(DataError, match=("^infections: all 1 bootstrap replicates had "
                                         "constant actuals; r2 is undefined$")):
        bootstrap_intervals(targets(np.array([1.0, 2.0])), targets(np.array([1.0, 2.0])),
                            BootstrapConfig(replicates=1, seed=0))


def test_bootstrap_names_a_spread_that_overflows():
    # finite, varying actuals whose squared sums overflow: inf / inf is no constant
    y, y_hat = np.array([1e200, -1e200, 0.0]), np.array([-1e200, 1e200, 0.0])
    good = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DataError, match=("^infections: actuals' spread overflows float64; "
                                         "r2 is undefined$")):
        bootstrap_intervals(targets(y, good, good, good), targets(y_hat, good, good, good),
                            BootstrapConfig(replicates=20, seed=0))
    with pytest.raises(DataError, match=("^recoveries: actuals' spread overflows float64; "
                                         "r2 is undefined$")):
        bootstrap_intervals(targets(good, good, y, good), targets(good, good, y_hat, good),
                            BootstrapConfig(replicates=20, seed=0))


def test_bootstrap_names_residuals_that_overflow():
    # finite, varying actuals and finite predictions whose residuals overflow:
    # r2's mid is -inf, and rmse's draw would square them
    good, wild = np.array([1.0, 2.0, 3.0]), np.array([1e200, -1e200, 0.0])
    with pytest.raises(DataError, match=("^infections: residuals overflow float64; "
                                         "r2 is undefined$")):
        bootstrap_intervals(targets(good), targets(wild, good, good, good),
                            BootstrapConfig(replicates=10, seed=0))
    with pytest.raises(DataError, match=("^recoveries: residuals overflow float64; "
                                         "r2 is undefined$")):
        bootstrap_intervals(targets(good), targets(good, good, wild, good),
                            BootstrapConfig(replicates=10, seed=0))
    # a spread that is finite over all days, but not over a resample that
    # draws one day three times
    y = np.array([7e153, -7e153, 0.0])
    with pytest.raises(DataError, match=("^infections: actuals' spread overflows float64; "
                                         "r2 is undefined$")):
        bootstrap_intervals(targets(y), targets(y), BootstrapConfig(replicates=10, seed=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bootstrap_rejects_non_finite_inputs(bad):
    # a NaN mid would otherwise read as constant actuals
    good = np.array([1.0, 2.0, 3.0])
    cfg = BootstrapConfig(replicates=10)
    with pytest.raises(DataError, match="^infections: metric inputs must be finite$"):
        bootstrap_intervals(targets(np.array([1.0, bad, 3.0]), good, good, good),
                            targets(good), cfg)
    # the targets before the first non-finite one are scored without a warning
    with pytest.raises(DataError, match="^hospitalizations: metric inputs must be finite$"):
        bootstrap_intervals(targets(good), targets(good, np.array([1.0, bad, 3.0]), good, good),
                            cfg)
    # an earlier target's failure is reported first, in (target, metric) order
    with pytest.raises(DataError,
                       match="^hospitalizations: actuals are constant; r2 is undefined$"):
        bootstrap_intervals(targets(good, np.full(3, 2.0), good, np.array([1.0, bad, 3.0])),
                            targets(good), cfg)


class NoDraws:
    """A generator that fails when anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


def test_bootstrap_input_faults_are_raised_before_any_draw(monkeypatch):
    monkeypatch.setattr(evaluation.np.random, "default_rng", lambda *args: NoDraws())
    good, constant, bad = np.array([1.0, 2.0, 3.0]), np.full(3, 2.0), np.array([1.0, np.nan, 3.0])
    cfg = BootstrapConfig(replicates=10)
    for actuals, predicted, message in [
            (targets(bad, good, good, good), targets(good),
             "infections: metric inputs must be finite"),
            (targets(good), targets(good, good, good, bad), "deaths: metric inputs must be finite"),
            (targets(good, constant, good, bad), targets(good),
             "hospitalizations: actuals are constant; r2 is undefined")]:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            bootstrap_intervals(actuals, predicted, cfg)
    with pytest.raises(AssertionError, match="drew from the generator"):
        bootstrap_intervals(targets(good), targets(good), cfg)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (3, 5)])
def test_bootstrap_needs_four_target_columns(shape):
    y = np.arange(np.prod(shape), dtype=float).reshape(shape)
    with pytest.raises(DataError, match=rf"^need \(n, 4\) actuals, got {re.escape(str(shape))}$"):
        bootstrap_intervals(y, y, BootstrapConfig(replicates=10))


def test_rotation_refuses_a_bad_replicate_count_before_training(monkeypatch):
    calls = []
    real = evaluation.train_mtl
    monkeypatch.setattr(evaluation, "train_mtl",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    datasets = generate_regions(SyntheticSpec(regions=2, rows=30, seed=0))
    with pytest.raises(ConfigError,
                       match=r"^bootstrap replicates must be in \[1, 100000\], got 0$"):
        rotate_regions(datasets, test_size=10, bootstrap_replicates=0)
    assert calls == []
    rotate_regions(datasets, test_size=10, bootstrap_replicates=10)
    assert len(calls) == 2


def test_rotation_names_the_region_of_a_bad_test_size():
    datasets = generate_regions(SyntheticSpec(regions=2, rows=30, seed=0))
    with pytest.raises(ConfigError, match=r"^Alberta: test_size must be in \(0, 30\), got 40$"):
        rotate_regions(datasets, test_size=40, bootstrap_replicates=10)


@pytest.mark.parametrize("days", [0, 1])
def test_bootstrap_needs_two_days(days):
    y = np.zeros((days, 4))
    detail = "metric inputs are empty" if days == 0 else "need at least 2 points, got 1"
    with pytest.raises(DataError, match=f"^infections: {detail}$"):
        bootstrap_intervals(y, y, BootstrapConfig(replicates=10))


@pytest.mark.parametrize("replicates", [0, MAX_REPLICATES + 1, 10 ** 11])
def test_bootstrap_replicates_are_bounded(replicates):
    with pytest.raises(ConfigError, match=(rf"^bootstrap replicates must be in "
                                           rf"\[1, {MAX_REPLICATES}\], got {replicates}$")):
        BootstrapConfig(replicates=replicates)


@st.composite
def replicate_batches(draw):
    """Actuals with few distinct values, predictions and a (B, n) index matrix.

    The actuals are integers or fractions such as 0.1, whose mean rounds
    off. Rows repeat indices, and some rows repeat one index, so their
    actuals are constant.
    """
    n = draw(st.integers(2, 30))
    top = draw(st.sampled_from([1, 3, 1000]))
    cells = draw(st.sampled_from([st.integers(0, top), st.sampled_from([0.1, 0.7, 1 / 3])]))
    y = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    y_hat = np.array(draw(st.lists(
        st.integers(0, 1000) | st.floats(0.0, 1000.0), min_size=n, max_size=n)), dtype=np.float64)
    b = draw(st.integers(1, 6))
    idx = np.array(draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                                 min_size=b, max_size=b)))
    for row, same in enumerate(draw(st.lists(st.booleans(), min_size=b, max_size=b))):
        if same:
            idx[row] = idx[row, 0]
    return y, y_hat, idx


@settings(deadline=None, max_examples=300)
@given(replicate_batches(), st.integers(0, 2**32 - 1))
@example(batch=(np.array([0.1, 0.1, 0.1]), np.array([0.2, 0.1, 0.0]),
                np.array([[0, 1, 2], [2, 2, 0]])), seed=0)
def test_batched_metrics_match_rows_and_oracle(batch, seed):
    y, y_hat, idx = batch
    constant = [len({y[i] for i in row}) == 1 for row in idx]
    for name, metric in METRIC_FUNCTIONS.items():
        values = metric(y[idx], y_hat[idx])
        assert values.shape == (idx.shape[0],)
        for row, value in zip(idx, values):
            one = metric(y[row], y_hat[row])
            assert one == value or (math.isnan(one) and math.isnan(value))
            expected = metric_oracle(name, y[row], y_hat[row])
            if math.isnan(expected):
                assert math.isnan(value)
            else:
                assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12)
        assert np.array_equal(np.isnan(values), constant if name in ("r2", "evs") else
                              np.zeros(len(idx), dtype=bool))

    # bootstrap_intervals draws one (B, n) index matrix from its seed and skips the constant rows
    b, n = 40, len(y)
    draws = np.random.default_rng(
        np.random.SeedSequence(seed).spawn(1)[0]).integers(0, n, size=(b, n))
    skips = sum(len({y[i] for i in row}) == 1 for row in draws)
    cfg = BootstrapConfig(replicates=b, seed=seed)
    if len(set(y)) == 1:
        with pytest.raises(DataError, match="^infections: actuals are constant; r2 "):
            bootstrap_intervals(targets(y), targets(y_hat), cfg)
    elif skips == b:
        with pytest.raises(DataError, match=f"^infections: all {b} bootstrap replicates"):
            bootstrap_intervals(targets(y), targets(y_hat), cfg)
    else:
        for metrics in bootstrap_intervals(targets(y), targets(y_hat), cfg).values():
            for name, iv in metrics.items():
                assert iv.skipped_replicates == (skips if name in ("r2", "evs") else 0)


@pytest.mark.parametrize("replicates", [1, 999, 1000])
@pytest.mark.parametrize("n", [2, 54, 1715])
def test_blocked_bootstrap_matches_one_draw(n, replicates):
    """Counting resamples in blocks of rows and scoring every target on each
    block matches gathering every (target, metric) pair from the single
    draw: mid, skipped constant resamples and the first error exactly, and
    low/top to 1e-9 of their scale, since the sums are grouped otherwise."""
    rng = np.random.default_rng(n * 10_007 + replicates)
    y = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
    y[:2] = [[0.0], [1.0]]            # with n = 2 half the resamples are constant
    y_hat = y + rng.normal(size=(n, 4))
    skipped = 0
    for seed in (0, 7):
        try:
            expected = bootstrap_oracle(y, y_hat, replicates, seed)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                bootstrap_intervals(y, y_hat, BootstrapConfig(replicates, seed))
            continue
        intervals = bootstrap_intervals(y, y_hat, BootstrapConfig(replicates, seed))
        assert list(intervals) == list(expected)
        for target, metrics in intervals.items():
            assert list(metrics) == list(expected[target])
            for metric, iv in metrics.items():
                low, mid, top, skips = expected[target][metric]
                assert (iv.mid, iv.skipped_replicates) == (mid, skips)
                for got, want in ((iv.low, low), (iv.top, top)):
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (target, metric)
        skipped += sum(iv.skipped_replicates for iv in all_intervals(intervals))
    assert skipped > 0 or n > 2 or replicates == 1


@pytest.mark.parametrize("bias", [1e2, 1e4, 1e5])
def test_bootstrap_matches_oracle_under_biased_predictions(bias):
    """Predictions off by a constant far above their spread: evs takes the
    residual centred on its mean, so the regrouped sums stay within 1e-9
    (an uncentred residual sum of squares was 1e-7 off at a bias of 1e4)."""
    rng = np.random.default_rng(5)
    y = rng.integers(0, 3, size=(54, 4)).astype(np.float64)
    y_hat = y + bias + rng.normal(size=(54, 4))
    expected = bootstrap_oracle(y, y_hat, 1000, 1)
    for target, metrics in bootstrap_intervals(y, y_hat, BootstrapConfig(1000, 1)).items():
        for metric, iv in metrics.items():
            low, mid, top, _ = expected[target][metric]
            assert iv.mid == mid
            for got, want in ((iv.low, low), (iv.top, top)):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (target, metric)


def test_constant_resamples_are_found_exactly_where_moments_round():
    """With actuals of 0.1 and 1/3, a resample that drew only one of the
    values has constant actuals, but its centred moment variance is
    rounding noise (about -7e-18), not 0. Such resamples are still skipped,
    each of them, and no r2 or evs above 1 slips through."""
    y = targets(np.array([0.1, 0.1, 1 / 3, 1 / 3, 1 / 3]))
    y_hat = y + np.array([0.05, -0.02, 0.01, 0.0, -0.04])[:, None]
    b, n = 200, len(y)
    draws = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0]).integers(
        0, n, size=(b, n))
    constant = np.array([len(set(y[row, 0])) == 1 for row in draws])
    counts = np.array([np.bincount(row, minlength=n) for row in draws], dtype=np.float64)
    a = y[:, 0] - y[:, 0].mean()
    moment = counts @ (a * a) - (counts @ a) ** 2 / n
    assert constant.sum() > 0 and np.all(moment[constant] != 0)
    for metrics in bootstrap_intervals(y, y_hat, BootstrapConfig(b, 0)).values():
        for name, iv in metrics.items():
            assert iv.skipped_replicates == (constant.sum() if name in ("r2", "evs") else 0)
            assert name not in ("r2", "evs") or iv.top <= 1.0


@pytest.mark.parametrize("replicates", [1, 2, 7, 1000])
def test_sorted_percentiles_equal_numpy_with_nan_gaps(replicates):
    """The bootstrap's quantiles of each column's non-NaN values, taken from
    one sort of the whole score array, equal np.percentile bit for bit."""
    rng = np.random.default_rng(replicates)
    scores = rng.normal(size=(replicates, 16)) * 10.0 ** rng.integers(-3, 4, size=16)
    scores[rng.random(scores.shape) < rng.random(16)] = np.nan      # a gap rate per column
    scores[1:, 0] = np.nan                                          # one value left
    scores[:, 1] = rng.normal()                                     # no gap, all equal
    kept = np.count_nonzero(~np.isnan(scores), axis=0)
    alpha = 1.0 - CONFIDENCE
    q = [100 * alpha / 2, 100 * (1 - alpha / 2)]
    got = linear_quantiles(np.sort(scores, axis=0), np.array(q) / 100, kept)
    for j in np.flatnonzero(kept):
        expected = np.percentile(scores[:, j][~np.isnan(scores[:, j])], q)
        assert got[:, j].tobytes() == expected.tobytes(), j


def test_bootstrap_memory_stays_small():
    """1000 resamples of 54 days of 4 targets peak under 512 KiB of
    allocations (one (B, n) draw and its temporaries took about 2 MiB)."""
    rng = np.random.default_rng(3)
    y = rng.integers(0, 50, size=(54, 4)).astype(np.float64)
    y_hat = y + rng.normal(size=(54, 4))
    cfg = BootstrapConfig(replicates=1000, seed=3)
    bootstrap_intervals(y, y_hat, cfg)          # first-call allocations
    tracemalloc.start()
    try:
        bootstrap_intervals(y, y_hat, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak


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
