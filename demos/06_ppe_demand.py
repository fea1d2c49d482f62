"""PPE walkthrough: the kit-demand law and a model-driven daily forecast.

    python demos/06_ppe_demand.py
"""

import numpy as np

from regio_forecast import (
    SyntheticSpec,
    forecast_series,
    generate_regions,
    predict_ppe_kits,
    split_train_test,
    train_mtl,
)
from regio_forecast.ppe import forecast_to_csv

# The demand law: linear in hospitalized patients per health centre,
# saturating once every centre has at least one patient.
print("kit demand at capacity 0.75, personnel 200, 40 health centres:")
hospitalized = np.array([0, 10, 20, 40, 80, 120])
for h, kits in zip(hospitalized, predict_ppe_kits(hospitalized, 40, 0.75, 200)):
    print(f"  hospitalized={h:4d} -> kits={kits:7.2f}")

# Chain the monitoring model's hospitalization predictions into demand.
datasets = generate_regions(SyntheticSpec(regions=3, rows=200, seed=8))
case_ds = datasets[0]
split = split_train_test(case_ds, test_size=30, seed=8)
model, _ = train_mtl(datasets, case_ds.region, split.train_indices)

forecast = forecast_series(model, case_ds.subset(split.test_indices), operating_capacity=0.75,
                           personnel=220.0)
print(f"\n{len(forecast)}-day forecast for {case_ds.region.name} "
      "(capacity 0.75, personnel 220):")
for i in range(8):
    print(f"  {forecast.dates[i]}  hospitalized={forecast.predicted_hospitalized[i]:7.1f}  "
          f"ratio={forecast.hsp_ratio[i]:5.2f}  kits={forecast.kits[i]:7.1f} "
          f"(ceil {int(np.ceil(forecast.kits[i]))})")
saturated = int(np.sum(forecast.hsp_ratio > 1.0))
print(f"  ... {saturated} of {len(forecast)} days at saturation")

# A kit is one face shield, N95, glove pair, shoe-cover pair and gown, so
# the CSV ceils kits to whole kits and repeats that count per item.
print("\nfirst rows of the forecast CSV:")
for line in forecast_to_csv(forecast).splitlines()[:3]:
    print(f"  {line}")
