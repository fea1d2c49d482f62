"""Daily PPE-kit demand prediction for community health centres.

The kit estimate interpolates on the predicted hospitalized count: the
average hospitalized patients per health centre (``hsp_ratio``) scales
the active workforce until every centre has at least one patient, at
which point demand saturates at operating_capacity x personnel. One kit
bundles one of each of the five KIT_ITEMS: face shield, N95 respirator,
glove pair, shoe-cover pair, and isolation gown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BadConfig, InvalidCapacity, ZeroChcCount
from .ingest import RegionalDataset
from .mtl import MtlModel, predict_monitoring


KIT_ITEMS = ("face_shields", "n95_respirators", "glove_pairs",
             "shoe_cover_pairs", "isolation_gowns")


@dataclass(frozen=True)
class PpeInputs:
    """One day's inputs to the kit-demand rule."""

    hospitalized: float            # predicted hospitalized patients
    chc_count: int                 # community health centres in the region
    operating_capacity: float      # active fraction of the workforce, in [0, 1]
    personnel: float               # frontline workforce headcount

    def __post_init__(self):
        if not 0.0 <= self.operating_capacity <= 1.0:
            raise InvalidCapacity(
                f"operating capacity must be in [0, 1], got {self.operating_capacity}")
        if self.chc_count < 1:
            raise ZeroChcCount(f"health centre count must be >= 1, got {self.chc_count}")
        if self.hospitalized < 0:
            raise BadConfig(f"hospitalized count must be >= 0, got {self.hospitalized}")
        if self.personnel < 0:
            raise BadConfig(f"personnel must be >= 0, got {self.personnel}")


def predict_ppe_kits(inputs: PpeInputs) -> float:
    """Kit demand for one day.

    With r = hospitalized / chc_count: demand is capacity x personnel x r
    while r <= 1, and saturates at capacity x personnel once every centre
    has a patient. Both branches agree at r = 1.
    """
    ratio = inputs.hospitalized / inputs.chc_count
    ceiling = inputs.operating_capacity * inputs.personnel
    if ratio > 1.0:
        return ceiling * 1.0
    return ceiling * ratio


def expand_kit_items(kits: float) -> dict[str, int]:
    """Whole-item demand: kits are ceiled first (no fractional physical items)."""
    if kits < 0:
        raise BadConfig(f"kit count must be >= 0, got {kits}")
    whole = math.ceil(kits)
    return {name: whole for name in KIT_ITEMS}


@dataclass(frozen=True)
class PpeDayForecast:
    date: object                   # datetime.date
    predicted_hospitalized: float
    hsp_ratio: float
    kits: float
    kits_ceil: int
    items: dict[str, int]


PPE_CSV_HEADER = ("date,predicted_hospitalized,hsp_ratio,kits,kits_ceil,"
                  "face_shields,n95,glove_pairs,shoe_cover_pairs,gowns")


def forecast_series(
    model: MtlModel,
    ds: RegionalDataset,
    operating_capacity: float,
    personnel: float,
) -> list[PpeDayForecast]:
    """Chain the monitoring model's hospitalization predictions into kit demand.

    ``operating_capacity`` and ``personnel`` hold for every day. The health
    centre count is read from each day's feat_11.
    """
    hospitalized = predict_monitoring(model, ds).column("hospitalizations")
    chcs = ds.feature_matrix().column("feat_11").tolist()
    out = []
    for date, h, chc_value in zip(ds.dates, hospitalized, chcs):
        chc = int(round(chc_value))
        inputs = PpeInputs(float(h), chc, float(operating_capacity), float(personnel))
        kits = predict_ppe_kits(inputs)
        out.append(PpeDayForecast(
            date=date,
            predicted_hospitalized=float(h),
            hsp_ratio=float(h) / chc,
            kits=kits,
            kits_ceil=math.ceil(kits),
            items=expand_kit_items(kits),
        ))
    return out


def forecast_to_csv(series: Sequence[PpeDayForecast]) -> str:
    lines = [PPE_CSV_HEADER]
    for day in series:
        items = day.items
        lines.append(
            f"{day.date.isoformat()},{day.predicted_hospitalized:.6f},"
            f"{day.hsp_ratio:.6f},{day.kits:.6f},{day.kits_ceil},"
            f"{items['face_shields']},{items['n95_respirators']},"
            f"{items['glove_pairs']},{items['shoe_cover_pairs']},"
            f"{items['isolation_gowns']}")
    return "\n".join(lines) + "\n"
