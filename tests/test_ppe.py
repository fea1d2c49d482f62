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
    PPE_CSV_HEADER,
    PpeForecast,
    forecast_series,
    forecast_to_csv,
    predict_ppe_kits,
)

from oracles import ppe_csv_oracle, ppe_kits_oracle

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
    assert lines[1].split(",")[0] == test.dates.tolist()[0].isoformat()


@pytest.mark.parametrize("hospitalized", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_hospitalized_rejected(hospitalized):
    with pytest.raises(ConfigError,
                       match=rf"^hospitalized count must be finite and >= 0, got {hospitalized}$"):
        predict_ppe_kits(np.array([3.0, hospitalized]), 40, 0.75, 200)


# -0.0, halves that 6-decimal and integer rounding take either way, and 1e15
FORMAT_VALUES = [-0.0, 0.0, 0.5, 1.5, 2.5, 5e-7, 1.5e-6, 1.0000005, 2.675, 0.1 + 0.2,
                 7.4999999, 123456.7890125, 1e15, 1e15 + 0.5, 3.0, 1e15 - 0.25]


def test_forecast_csv_matches_value_by_value_formatting():
    kits = np.array(FORMAT_VALUES)
    forecast = PpeForecast(tuple(dt.date(2021, 3, 1) + dt.timedelta(days=i)
                                 for i in range(len(kits))),
                           np.roll(kits, 1), np.roll(kits, 2), kits)
    assert forecast_to_csv(forecast) == ppe_csv_oracle(PPE_CSV_HEADER, forecast)


def test_forecast_csv_prints_the_extreme_dates_as_isoformat():
    days = (dt.date.min, dt.date.max)
    forecast = PpeForecast(days, np.zeros(2), np.zeros(2), np.zeros(2))
    assert forecast.dates.dtype == np.dtype("datetime64[D]")
    assert [row["date"] for row in csv_rows(forecast)] == [day.isoformat() for day in days]


def test_forecast_holds_the_datasets_dates(trained_small_model, small_datasets):
    model, _, split = trained_small_model
    test = small_datasets[0].subset(split.test_indices[:5])
    assert np.shares_memory(forecast_series(model, test, 0.75, 200.0).dates, test.dates)


def test_forecast_arrays_are_read_only_views_of_the_callers_arrays():
    kits = np.array([1.0, 2.0])
    forecast = PpeForecast(np.array(["2021-03-01", "2021-03-02"], dtype="datetime64[D]"),
                           np.zeros(2), np.ones(2), kits)
    for name in ("dates", "predicted_hospitalized", "hsp_ratio", "kits"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(forecast, name)[0] = getattr(forecast, name)[1]
    assert np.shares_memory(forecast.kits, kits) and kits.flags.writeable


DAYS = (dt.date(2021, 3, 1), dt.date(2021, 3, 2))


@pytest.mark.parametrize("dates, kits, shapes", [
    (DAYS[:1], np.zeros(2), "(1,), (2,), (2,), (2,)"),
    (DAYS, np.zeros(1), "(2,), (2,), (2,), (1,)"),
    ((DAYS, DAYS), np.zeros(2), "(2, 2), (2,), (2,), (2,)"),
], ids=["short-dates", "short-kits", "2-D-dates"])
def test_forecast_refuses_arrays_of_another_shape(dates, kits, shapes):
    with pytest.raises(DataError, match=re.escape(
            "dates, predicted_hospitalized, hsp_ratio and kits must be 1-D and of one length, "
            f"got shapes [{shapes}]")):
        PpeForecast(dates, np.zeros(2), np.zeros(2), kits)



def test_forecast_refuses_a_nat_date():
    with pytest.raises(DataError, match=r"^dates\[0\] is NaT, not a day$"):
        PpeForecast(["NaT", "2021-03-02"], np.ones(2), np.ones(2), np.ones(2))


@pytest.mark.parametrize("field", ["predicted_hospitalized", "hsp_ratio", "kits"])
@pytest.mark.parametrize("value", [-2.0, math.nan, math.inf, -math.inf])
def test_forecast_refuses_values_not_finite_or_negative(field, value):
    values = {name: np.ones(2) for name in ("predicted_hospitalized", "hsp_ratio", "kits")}
    values[field] = np.array([1.0, value])
    message = f"{field}[1] is {value}, not a finite value >= 0"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        PpeForecast(DAYS, **values)
