import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regio_forecast.errors import ConfigError
from regio_forecast.mtl import predict_monitoring
from regio_forecast.ppe import (
    PpeInputs,
    expand_kit_items,
    forecast_series,
    forecast_to_csv,
    predict_ppe_kits,
)


def test_saturated_example():
    # ratio 120/40 = 3 > 1 -> 0.75 * 200 * 1.0 = 150
    kits = predict_ppe_kits(PpeInputs(120.0, 40, 0.75, 200))
    assert kits == 150.0


def test_linear_example():
    # ratio 20/40 = 0.5 -> 0.75 * 200 * 0.5 = 75
    kits = predict_ppe_kits(PpeInputs(20.0, 40, 0.75, 200))
    assert kits == 75.0


def test_zero_hospitalized():
    assert predict_ppe_kits(PpeInputs(0.0, 40, 0.75, 200)) == 0.0


def test_invalid_capacity():
    with pytest.raises(ConfigError, match=r"^operating capacity must be in \[0, 1\], got 1.2$"):
        PpeInputs(1.0, 10, 1.2, 50)
    with pytest.raises(ConfigError, match=r"^operating capacity must be in \[0, 1\], got -0.1$"):
        PpeInputs(1.0, 10, -0.1, 50)


def test_zero_chc_count():
    with pytest.raises(ConfigError, match="^health centre count must be >= 1, got 0$"):
        PpeInputs(1.0, 0, 0.5, 50)


def test_continuity_at_ratio_one():
    # both branches agree exactly when hospitalized == chc_count
    at = predict_ppe_kits(PpeInputs(40.0, 40, 0.6, 117))
    assert abs(at - 0.6 * 117) <= 1e-12


@given(st.floats(0, 1e6), st.integers(1, 10_000),
       st.floats(0, 1), st.floats(0, 1e5))
def test_saturation_bound(hospitalized, chc, cap, personnel):
    kits = predict_ppe_kits(PpeInputs(hospitalized, chc, cap, personnel))
    assert kits <= cap * personnel + 1e-12
    assert kits >= 0.0


def test_linearity_below_saturation():
    cap, personnel, chc = 0.8, 500.0, 50
    slope = cap * personnel / chc
    for h in np.linspace(0.0, float(chc), 11):
        kits = predict_ppe_kits(PpeInputs(float(h), chc, cap, personnel))
        assert abs(kits - slope * h) <= 1e-9


def test_monotone_in_hospitalized():
    prev = -1.0
    for h in np.linspace(0.0, 120.0, 25):
        kits = predict_ppe_kits(PpeInputs(float(h), 40, 0.75, 200))
        assert kits >= prev
        prev = kits
    assert prev == predict_ppe_kits(PpeInputs(1e9, 40, 0.75, 200))


def test_expand_kit_items_defaults():
    items = expand_kit_items(150.0)
    assert items == {"face_shields": 150, "n95_respirators": 150,
                     "glove_pairs": 150, "shoe_cover_pairs": 150,
                     "isolation_gowns": 150}
    assert expand_kit_items(0.0) == {k: 0 for k in items}


def test_expand_kit_items_ceils_first():
    items = expand_kit_items(74.2)
    assert all(v == 75 for v in items.values())


def test_forecast_series_composition(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    test = ds.subset(split.test_indices)
    series = forecast_series(model, test, 0.75, 200.0)
    assert len(series) == test.n_rows
    for day, chc_value in zip(series, test.feature_matrix().column("feat_11")):
        chc = int(round(chc_value))
        assert day.hsp_ratio == pytest.approx(day.predicted_hospitalized / chc)
        assert day.kits <= 0.75 * 200.0 + 1e-9
        assert day.kits_ceil == math.ceil(day.kits)
        assert day.items["face_shields"] == day.kits_ceil


def test_forecast_series_zero_personnel_day(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    ds = small_datasets[0]
    series = forecast_series(model, ds.subset(split.test_indices[:3]), 1.0, 0.0)
    assert [day.kits for day in series] == [0.0, 0.0, 0.0]


def test_forecast_series_saturation_everywhere(trained_small_model, small_datasets):
    """capacity 1 and hospitalized >= chc on every day -> kits == personnel."""
    model, _, split = trained_small_model
    ds = small_datasets[0]
    test = ds.subset(split.test_indices)
    hospitalized = predict_monitoring(model, test).column("hospitalizations")
    chcs = [int(round(c)) for c in test.feature_matrix().column("feat_11")]
    saturated = [i for i, (h, c) in enumerate(zip(hospitalized, chcs)) if h / c > 1.0]
    series = forecast_series(model, test, 1.0, 320.0)
    for i in saturated:
        assert series[i].kits == 320.0


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
