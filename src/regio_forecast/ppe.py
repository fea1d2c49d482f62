"""Daily PPE-kit demand prediction for community health centres.

The kit estimate interpolates on the predicted hospitalized count: the
average hospitalized patients per health centre (``hsp_ratio``) scales
the active workforce until every centre has at least one patient, at
which point demand saturates at operating_capacity x personnel. One kit
bundles one face shield, N95 respirator, glove pair, shoe-cover pair and
isolation gown, so the CSV's five item columns each equal ``kits_ceil``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, as_array
from .features import PRIMARY_FEATURE_CODES, TARGET_COLUMNS
from .ingest import RegionalDataset
from .mtl import MtlModel, predict_monitoring


def predict_ppe_kits(hospitalized, chc_count, operating_capacity, personnel) -> np.ndarray:
    """Kit demand per day; each argument is a scalar or an array, broadcast.

    With r = hospitalized / chc_count: demand is capacity x personnel x r
    while r <= 1, and saturates at capacity x personnel once every centre
    has a patient. Both branches agree at r = 1.
    """
    capacity, personnel, chc, hospitalized = (as_array(a, name, "biuf") for a, name in (
        (operating_capacity, "operating capacity"), (personnel, "personnel"),
        (chc_count, "health centre count"), (hospitalized, "hospitalized count")))
    for values, ok, rule in (
            (capacity, (0 <= capacity) & (capacity <= 1), "operating capacity must be in [0, 1]"),
            (personnel, (0 <= personnel) & (personnel < math.inf),
             "personnel must be finite and >= 0"),
            (chc, chc >= 1, "health centre count must be >= 1"),
            (hospitalized, (0 <= hospitalized) & (hospitalized < math.inf),
             "hospitalized count must be finite and >= 0")):
        if not ok.all():
            raise ConfigError(f"{rule}, got {values[~ok][0]}")
    return capacity * personnel * np.minimum(hospitalized / chc, 1.0)


@dataclass(frozen=True, eq=False)
class PpeForecast:
    """Daily kit demand; element i of each array belongs to ``dates[i]``.

    ``dates`` is ``datetime64[D]``; other sequences of days are converted.
    The four arrays are read-only views, 1-D and of one length; the dates
    hold no NaT, and the values are finite and >= 0.
    """

    dates: np.ndarray
    predicted_hospitalized: np.ndarray
    hsp_ratio: np.ndarray          # predicted hospitalized per health centre
    kits: np.ndarray

    def __post_init__(self):
        arrays = [as_array(self.dates, "dates", "MOSU", dtype="datetime64[D]").view()]
        arrays += [as_array(getattr(self, f.name), f.name, "biuf").view() for f in fields(self)[1:]]
        if arrays[0].ndim != 1 or len({a.shape for a in arrays}) != 1:
            raise DataError(f"dates, predicted_hospitalized, hsp_ratio and kits must be 1-D "
                            f"and of one length, got shapes {[a.shape for a in arrays]}")
        for f, array in zip(fields(self), arrays):    # views: the caller's arrays stay writable
            bad = np.isnat(array) if f.name == "dates" else ~((array >= 0) & (array < math.inf))
            if bad.any():
                rule = "a day" if f.name == "dates" else "a finite value >= 0"
                raise DataError(f"{f.name}[{bad.argmax()}] is {array[bad.argmax()]}, not {rule}")
            array.setflags(write=False)
            object.__setattr__(self, f.name, array)

    def __len__(self) -> int:
        return len(self.dates)


PPE_CSV_HEADER = ("date,predicted_hospitalized,hsp_ratio,kits,kits_ceil,"
                  "face_shields,n95,glove_pairs,shoe_cover_pairs,gowns")


def forecast_series(
    model: MtlModel,
    ds: RegionalDataset,
    operating_capacity: float,
    personnel: float,
) -> PpeForecast:
    """Chain the monitoring model's hospitalization predictions into kit demand.

    ``operating_capacity`` and ``personnel`` hold for every day. The health
    centre count is each day's feat_11, which every dataset holds as an
    integer of at least 1.
    """
    hospitalized = predict_monitoring(model, ds)[:, TARGET_COLUMNS.index("hospitalizations")]
    chc = ds.features[:, PRIMARY_FEATURE_CODES.index("feat_11")]
    kits = predict_ppe_kits(hospitalized, chc, operating_capacity, personnel)
    return PpeForecast(ds.dates, hospitalized, hospitalized / chc, kits)


def forecast_to_csv(forecast: PpeForecast) -> str:
    """One row per day; ``kits_ceil`` and the five item columns are the kits ceiled."""
    lines = [PPE_CSV_HEADER]
    row = "%s,%.6f,%.6f,%.6f" + ",%d" * 6                # kits_ceil, then the five items
    for date, h, ratio, kits in zip(np.datetime_as_string(forecast.dates).tolist(),
                                    forecast.predicted_hospitalized.tolist(),
                                    forecast.hsp_ratio.tolist(), forecast.kits.tolist()):
        lines.append(row % ((date, h, ratio, kits) + (math.ceil(kits),) * 6))
    return "\n".join(lines) + "\n"
