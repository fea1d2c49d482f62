"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest -s tests/test_acceptance.py``).

The real-data check at the bottom is optional: it runs only when
REGIO_FORECAST_REAL_DATA points at a directory of regional CSV files in
the published schema.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from regio_forecast.cli import main as cli_main
from regio_forecast.evaluation import BootstrapConfig, bootstrap_intervals, evs, mae, r2, rmse
from regio_forecast.ingest import (
    parse_regional_csv,
    region_by_name,
    split_train_test,
)
from regio_forecast.knn import predict_knn_batch
from regio_forecast.mtl import predict_monitoring, train_mtl
from regio_forecast.ppe import predict_ppe_kits
from regio_forecast.scaling import (
    CDF_CLIP_HI,
    CDF_CLIP_LO,
    apply_quantile_scaler,
    fit_quantile_scaler,
    l2_normalize_rows,
)
from regio_forecast.synth import SyntheticSpec, generate_regions

from oracles import bisection_normal_ppf, knn_oracle


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - started:.2f}s)")


def test_scaling_suite():
    with criterion("scaling: normal-column stats, unit rows, "
                   "normal-quantile accuracy, < 5 s"):
        started = time.perf_counter()

        rng = np.random.default_rng(17)
        values = np.column_stack([
            rng.lognormal(0.0, 1.0, 362),
            rng.normal(10.0, 4.0, 362),
            rng.exponential(2.5, 362),
            rng.beta(2.0, 5.0, 362),
        ])
        scaler = fit_quantile_scaler(values, ("a", "b", "c", "d"))
        z = apply_quantile_scaler(scaler, values)
        assert np.all(np.abs(z.mean(axis=0)) < 0.05)
        stds = z.std(axis=0)
        assert np.all((stds >= 0.85) & (stds <= 1.15))

        unit = l2_normalize_rows(z)
        norms = np.linalg.norm(unit, axis=1)
        assert np.all(np.abs(norms[np.any(z, axis=1)] - 1.0) <= 1e-9)

        # at each landmark, z is the oracle's Phi^-1 of the clipped landmark probability
        at_landmarks = apply_quantile_scaler(scaler, scaler.landmarks.T)
        ps = np.clip(scaler.probabilities, CDF_CLIP_LO, CDF_CLIP_HI)
        for j in range(values.shape[1]):
            for p, z_p in zip(ps, at_landmarks[:, j]):
                assert abs(z_p - bisection_normal_ppf(float(p))) <= 1e-8

        assert time.perf_counter() - started < 5.0


def test_knn_oracle_equivalence():
    with criterion("kNN: oracle equivalence on 200 cases and training-point "
                   "interpolation on 100 stores, < 10 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(23)

        for trial in range(200):
            n = int(rng.integers(1, 60))
            d = int(rng.integers(1, 8))
            if trial % 2:
                x = rng.integers(0, 3, size=(n, d)).astype(float)  # forces ties
            else:
                x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, 3))
            w = rng.uniform(0.2, 4.0, size=n)
            q = x[int(rng.integers(n))] if trial % 3 == 0 else \
                rng.integers(0, 3, size=d).astype(float)
            k = int(rng.integers(1, 10))
            assert np.allclose(predict_knn_batch(x, y, w, [q], k)[0],
                               knn_oracle(x, y, w, q, k), atol=1e-10)

        for _ in range(100):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 6))
            x = np.unique(rng.normal(size=(n, d)), axis=0)
            y = rng.normal(size=(x.shape[0], 2))
            i = int(rng.integers(x.shape[0]))
            assert np.array_equal(predict_knn_batch(x, y, np.ones(len(y)), [x[i]], 6)[0], y[i])

        assert time.perf_counter() - started < 10.0


def test_transfer_algebra():
    with criterion("transfer: generic weight 1 == union kNN and 0 == "
                   "dedicated-only kNN, diff <= 1e-10 on 100 queries"):
        rng = np.random.default_rng(31)
        datasets = generate_regions(SyntheticSpec(regions=3, rows=90, seed=13))
        ds = datasets[0]
        split = split_train_test(ds, 18, seed=13)
        case_train = ds.subset(split.train_indices)

        model_union, _ = train_mtl(datasets, ds.region, split.train_indices,
                                   generic_weight=1.0)
        model_solo, _ = train_mtl(datasets, ds.region, split.train_indices,
                                  generic_weight=0.0)

        def scaled(model, parts):
            raw = np.vstack([p.columns(model.selected_features) for p in parts])
            x = l2_normalize_rows(apply_quantile_scaler(model.feature_scaler, raw))
            return x, np.vstack([p.targets for p in parts])

        xu, yu = scaled(model_union, [*datasets[1:], case_train])
        xs, ys = scaled(model_solo, [case_train])

        def vote(m, x, y, q):
            """The model's vote, and plain kNN's on (x, y) with its k."""
            return (predict_knn_batch(m.features, m.targets, m.weights, [q], m.k)[0],
                    predict_knn_batch(x, y, np.ones(len(y)), [q], m.k)[0])

        for _ in range(100):
            q = rng.normal(size=xu.shape[1])
            q /= np.linalg.norm(q)
            assert np.allclose(*vote(model_union, xu, yu, q), atol=1e-10)
            assert np.allclose(*vote(model_solo, xs, ys, q), atol=1e-10)


def test_kit_demand_laws():
    with criterion("kit demand: branch continuity, saturation bound on 10k "
                   "inputs, linear slope, worked examples 150 and 75"):
        assert predict_ppe_kits(120.0, 40, 0.75, 200) == 150.0
        assert predict_ppe_kits(20.0, 40, 0.75, 200) == 75.0

        for chc, cap, staff in ((40, 0.75, 200), (7, 0.33, 1234), (1, 1.0, 5)):
            below = predict_ppe_kits(float(chc), chc, cap, staff)
            assert abs(below - cap * staff) <= 1e-12

        rng = np.random.default_rng(41)
        hospitalized = rng.uniform(0.0, 1e4, 10_000)
        chc_count = rng.integers(1, 500, 10_000)
        operating_capacity = rng.uniform(0.0, 1.0, 10_000)
        personnel = rng.uniform(0.0, 5e3, 10_000)
        kits = predict_ppe_kits(hospitalized, chc_count, operating_capacity, personnel)
        assert np.all(kits <= operating_capacity * personnel + 1e-12)
        assert np.all(kits >= 0.0)

        cap, staff, chc = 0.62, 870.0, 31
        slope = cap * staff / chc
        h = np.linspace(0.0, float(chc), 41)
        assert np.all(np.abs(predict_ppe_kits(h, chc, cap, staff) - slope * h) <= 1e-9)


def test_metric_identities():
    with criterion("metrics: rmse >= mae and r2 <= evs on 1000 vectors, exact "
                   "fixed points, ordered deterministic bootstrap intervals"):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            n = int(rng.integers(2, 80))
            y = rng.normal(scale=rng.uniform(0.5, 50.0), size=n)
            y_hat = y + rng.normal(scale=rng.uniform(0.1, 20.0), size=n)
            assert rmse(y, y_hat) >= mae(y, y_hat) - 1e-12
            if not math.isnan(r2(y, y_hat)):
                assert r2(y, y_hat) <= evs(y, y_hat) + 1e-12

        y = np.array([1.0, 2.0, 3.0])           # exactly representable mean
        assert r2(y, y) == 1.0 and evs(y, y) == 1.0
        assert mae(y, y) == 0.0 and rmse(y, y) == 0.0
        assert r2(y, np.full(3, y.mean())) == 0.0
        assert evs(y, np.full(3, y.mean())) == 0.0

        y = rng.normal(size=(54, 4))
        y_hat = y + rng.normal(scale=0.4, size=(54, 4))
        cfg = BootstrapConfig(replicates=1000, seed=7)
        intervals = bootstrap_intervals(y, y_hat, cfg)
        for metrics in intervals.values():
            for iv in metrics.values():
                assert iv.low <= iv.mid <= iv.top
        assert bootstrap_intervals(y, y_hat, cfg) == intervals


def test_synthetic_transfer_benefit():
    with criterion("end-to-end: pooled transfer beats dedicated-only on >= 4 of "
                   "5 seeds (infections, 60 training rows), < 60 s"):
        started = time.perf_counter()
        wins = 0
        for seed in range(1, 6):
            datasets = generate_regions(SyntheticSpec(regions=7, rows=362, seed=seed))
            ds = datasets[0]
            split = split_train_test(ds, 54, seed=seed)
            rng = np.random.default_rng(seed)
            train60 = tuple(sorted(
                int(i) for i in rng.choice(split.train_indices, 60, replace=False)))
            test = ds.subset(split.test_indices)
            y = test.targets[:, 0].astype(float)

            with_transfer, _ = train_mtl(datasets, ds.region, train60,
                                         generic_weight=1.0)
            without, _ = train_mtl(datasets, ds.region, train60,
                                   generic_weight=0.0)
            r2_transfer = r2(y, predict_monitoring(with_transfer, test)[:, 0])
            r2_solo = r2(y, predict_monitoring(without, test)[:, 0])
            wins += r2_transfer > r2_solo
        assert wins >= 4, f"transfer won on only {wins} of 5 seeds"
        assert time.perf_counter() - started < 60.0


def test_rotation_table_shape(tmp_path):
    with criterion("rotation report: 4 per-target tables x 7 province rows x "
                   "low/mid/top x 4 metrics + training time; r2/evs <= 1"):
        data = tmp_path / "data"
        out = tmp_path / "out"
        assert cli_main(["synth", "--regions", "7", "--rows", "362",
                         "--seed", "5", "--out", str(data)]) == 0
        assert cli_main(["rotate", "--data-dir", str(data), "--test-days", "54",
                         "--seed", "5", "--bootstrap", "1000",
                         "--out", str(out)]) == 0

        for target in ("infections", "hospitalizations", "recoveries", "deaths"):
            lines = (out / f"monitoring_{target}.csv").read_text().strip().splitlines()
            header = lines[0].split(",")
            assert header == [
                "province",
                "r2_low", "r2_mid", "r2_top",
                "evs_low", "evs_mid", "evs_top",
                "mae_low", "mae_mid", "mae_top",
                "rmse_low", "rmse_mid", "rmse_top",
                "tt_seconds",
            ]
            assert len(lines) == 1 + 7
            for line in lines[1:]:
                cells = line.split(",")
                values = dict(zip(header[1:], map(float, cells[1:])))
                for metric in ("r2", "evs"):
                    for bound in ("low", "mid", "top"):
                        assert values[f"{metric}_{bound}"] <= 1.0
                for metric in ("r2", "evs", "mae", "rmse"):
                    assert values[f"{metric}_low"] <= values[f"{metric}_mid"] \
                        <= values[f"{metric}_top"]


REAL_DATA_DIR = os.environ.get("REGIO_FORECAST_REAL_DATA", "")


@pytest.mark.skipif(not REAL_DATA_DIR,
                    reason="set REGIO_FORECAST_REAL_DATA to a directory of real "
                           "regional CSVs to run the best-effort check")
def test_real_data_best_effort():
    with criterion("real data (best effort): Ontario infections and "
                   "hospitalizations mid-r2 >= 0.85"):
        root = Path(REAL_DATA_DIR)
        datasets = []
        for path in sorted(root.glob("*.csv")):
            datasets.append(parse_regional_csv(path, region_by_name(path.stem)))
        ontario = next(ds for ds in datasets if ds.region.name == "Ontario")
        split = split_train_test(ontario, 54, seed=1)
        model, _ = train_mtl(datasets, ontario.region, split.train_indices)
        test = ontario.subset(split.test_indices)
        predicted = predict_monitoring(model, test)
        actual = test.targets.astype(float)
        assert r2(actual[:, 0], predicted[:, 0]) >= 0.85
        assert r2(actual[:, 1], predicted[:, 1]) >= 0.85
