"""PPE walkthrough: the kit-demand law and a model-driven daily forecast.

    python demos/06_ppe_demand.py
"""

from regio_forecast import (
    PpeInputs,
    SyntheticSpec,
    expand_kit_items,
    forecast_series,
    generate_regions,
    predict_ppe_kits,
    split_train_test,
    train_mtl,
)

# The demand law: linear in hospitalized patients per health centre,
# saturating once every centre has at least one patient.
print("kit demand at capacity 0.75, personnel 200, 40 health centres:")
for hospitalized in (0, 10, 20, 40, 80, 120):
    kits = predict_ppe_kits(PpeInputs(float(hospitalized), 40, 0.75, 200))
    print(f"  hospitalized={hospitalized:4d} -> kits={kits:7.2f}")

print("\nitem breakdown for 74.2 kits (ceiled to whole kits first):")
for item, count in expand_kit_items(74.2).items():
    print(f"  {item}: {count}")

# Chain the monitoring model's hospitalization predictions into demand.
datasets = generate_regions(SyntheticSpec(regions=3, rows=200, seed=8))
case_ds = datasets[0]
split = split_train_test(case_ds, test_size=30, seed=8)
model, _ = train_mtl(datasets, case_ds.region, split.train_indices)

series = forecast_series(model, case_ds.subset(split.test_indices), operating_capacity=0.75,
                         personnel=220.0)
print(f"\n{len(series)}-day forecast for {case_ds.region.name} "
      "(capacity 0.75, personnel 220):")
for day in series[:8]:
    print(f"  {day.date}  hospitalized={day.predicted_hospitalized:7.1f}  "
          f"ratio={day.hsp_ratio:5.2f}  kits={day.kits:7.1f} "
          f"(ceil {day.kits_ceil})")
saturated = sum(1 for day in series if day.hsp_ratio > 1.0)
print(f"  ... {saturated} of {len(series)} days at saturation")
