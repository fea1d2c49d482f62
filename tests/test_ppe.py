import csv
import datetime as dt
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regio_forecast.errors import ConfigError, DataError
from regio_forecast.features import PRIMARY_FEATURE_CODES, TARGET_COLUMNS
from regio_forecast.ingest import RegionalDataset
from regio_forecast.mtl import predict_monitoring
from regio_forecast.ppe import (
    PpeForecast,
    forecast_series,
    forecast_to_csv,
    predict_ppe_kits,
)

from oracles import ppe_kits_oracle

ITEM_COLUMNS = ("face_shields", "n95", "glove_pairs", "shoe_cover_pairs", "gowns")


def csv_rows(forecast):
    return list(csv.DictReader(io.StringIO(forecast_to_csv(forecast))))


def item_columns_for(kits):
    """The writer's item columns for one day of ``kits`` kits."""
    forecast = PpeForecast((dt.date(2020, 3, 1),), np.zeros(1), np.zeros(1), np.array([kits]))
    row = csv_rows(forecast)[0]
    return {name: int(row[name]) for name in ITEM_COLUMNS}


def test_saturated_example():
    # ratio 120/40 = 3 > 1 -> 0.75 * 200 * 1.0 = 150
    kits = predict_ppe_kits(120.0, 40, 0.75, 200)
    assert kits == 150.0


def test_linear_example():
    # ratio 20/40 = 0.5 -> 0.75 * 200 * 0.5 = 75
    kits = predict_ppe_kits(20.0, 40, 0.75, 200)
    assert kits == 75.0


def test_zero_hospitalized():
    assert predict_ppe_kits(0.0, 40, 0.75, 200) == 0.0


def test_invalid_capacity():
    with pytest.raises(ConfigError, match=r"^operating capacity must be in \[0, 1\], got 1.2$"):
        predict_ppe_kits(1.0, 10, 1.2, 50)
    with pytest.raises(ConfigError, match=r"^operating capacity must be in \[0, 1\], got -0.1$"):
        predict_ppe_kits(1.0, 10, -0.1, 50)


def test_zero_chc_count():
    with pytest.raises(ConfigError, match="^health centre count must be >= 1, got 0$"):
        predict_ppe_kits(1.0, 0, 0.5, 50)


def test_continuity_at_ratio_one():
    # both branches agree exactly when hospitalized == chc_count
    at = predict_ppe_kits(40.0, 40, 0.6, 117)
    assert abs(at - 0.6 * 117) <= 1e-12


@given(st.floats(0, 1e6), st.integers(1, 10_000),
       st.floats(0, 1), st.floats(0, 1e5))
def test_saturation_bound(hospitalized, chc, cap, personnel):
    kits = predict_ppe_kits(hospitalized, chc, cap, personnel)
    assert kits <= cap * personnel + 1e-12
    assert kits >= 0.0


@given(st.lists(st.tuples(st.floats(0, 1e6), st.integers(1, 10_000),
                          st.floats(0, 1), st.floats(0, 1e5)), min_size=1, max_size=20))
def test_array_rule_matches_per_day_oracle(days):
    """The broadcast rule equals the per-day branch rule bit for bit."""
    columns = [np.array(c) for c in zip(*days)]
    assert predict_ppe_kits(*columns).tolist() == [ppe_kits_oracle(*day) for day in days]


def test_linearity_below_saturation():
    cap, personnel, chc = 0.8, 500.0, 50
    slope = cap * personnel / chc
    for h in np.linspace(0.0, float(chc), 11):
        kits = predict_ppe_kits(float(h), chc, cap, personnel)
        assert abs(kits - slope * h) <= 1e-9


def test_monotone_in_hospitalized():
    prev = -1.0
    for h in np.linspace(0.0, 120.0, 25):
        kits = predict_ppe_kits(float(h), 40, 0.75, 200)
        assert kits >= prev
        prev = kits
    assert prev == predict_ppe_kits(1e9, 40, 0.75, 200)


def test_csv_item_columns_defaults():
    items = item_columns_for(150.0)
    assert items == {"face_shields": 150, "n95": 150, "glove_pairs": 150,
                     "shoe_cover_pairs": 150, "gowns": 150}
    assert item_columns_for(0.0) == {k: 0 for k in items}


def test_csv_item_columns_ceil_first():
    items = item_columns_for(74.2)
    assert all(v == 75 for v in items.values())


def test_forecast_series_composition(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    test = ds.subset(split.test_indices)
    forecast = forecast_series(model, test, 0.75, 200.0)
    assert len(forecast) == test.n_rows
    rows = csv_rows(forecast)
    for i, chc_value in enumerate(test.columns(["feat_11"])[:, 0]):
        chc = int(round(chc_value))
        assert forecast.hsp_ratio[i] == pytest.approx(forecast.predicted_hospitalized[i] / chc)
        assert forecast.kits[i] <= 0.75 * 200.0 + 1e-9
        assert int(rows[i]["kits_ceil"]) == math.ceil(forecast.kits[i])
        assert rows[i]["face_shields"] == rows[i]["kits_ceil"]


def test_fractional_health_centre_count_rejected(small_datasets):
    test = small_datasets[0].subset(range(4))
    for value, shown in [(2.5, "2.5"), (0.5000001, "0.5000001"), (0.0, "0.0"),
                         (1e300, "1e+300")]:
        features = test.features.copy()
        features[1, PRIMARY_FEATURE_CODES.index("feat_11")] = value
        with pytest.raises(DataError, match=(
                rf"^bad value at {test.dates[1]}, column 'feat_11': {re.escape(shown)} "
                r"is not a health centre count in \[1, 9007199254740992\]$")):
            RegionalDataset(test.region, test.dates, features, test.targets)


def test_forecast_series_zero_personnel_day(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    forecast = forecast_series(model, ds.subset(split.test_indices[:3]), 1.0, 0.0)
    assert forecast.kits.tolist() == [0.0, 0.0, 0.0]


def test_forecast_series_saturation_everywhere(trained_small_model, small_datasets):
    """capacity 1 and hospitalized >= chc on every day -> kits == personnel."""
    model, _, split = trained_small_model
    ds = small_datasets[0]
    test = ds.subset(split.test_indices)
    hospitalized = predict_monitoring(model, test)[:, TARGET_COLUMNS.index("hospitalizations")]
    chcs = [int(round(c)) for c in test.columns(["feat_11"])[:, 0]]
    saturated = [i for i, (h, c) in enumerate(zip(hospitalized, chcs)) if h / c > 1.0]
    forecast = forecast_series(model, test, 1.0, 320.0)
    for i in saturated:
        assert forecast.kits[i] == 320.0


def test_forecast_csv_schema(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    test = ds.subset(split.test_indices[:5])
    text = forecast_to_csv(forecast_series(model, test, 0.75, 200.0))
    lines = text.strip().splitlines()
    assert lines[0] == ("date,predicted_hospitalized,hsp_ratio,kits,kits_ceil,"
                        "face_shields,n95,glove_pairs,shoe_cover_pairs,gowns")
    assert len(lines) == 6
    assert lines[1].split(",")[0] == test.dates[0].isoformat()


@pytest.mark.parametrize("hospitalized", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_hospitalized_rejected(hospitalized):
    with pytest.raises(ConfigError,
                       match=rf"^hospitalized count must be finite and >= 0, got {hospitalized}$"):
        predict_ppe_kits(np.array([3.0, hospitalized]), 40, 0.75, 200)
