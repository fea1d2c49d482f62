"""Transfer walkthrough: one weighted instance store, and the transfer-weight ablation.

The case-study region is truncated to 60 training days to mimic a
data-poor region; pooling instances from the other regions should lift
held-out accuracy.

    python demos/04_transfer_model.py
"""

import numpy as np

from regio_forecast import (
    SyntheticSpec,
    generate_regions,
    predict_monitoring,
    r2,
    split_train_test,
    train_mtl,
)

datasets = generate_regions(SyntheticSpec(regions=7, rows=362, seed=1))
case_ds = datasets[0]
split = split_train_test(case_ds, test_size=54, seed=1)

rng = np.random.default_rng(1)
train60 = tuple(sorted(int(i) for i in
                       rng.choice(split.train_indices, 60, replace=False)))
test = case_ds.subset(split.test_indices)
actual_infections = test.targets[:, 0].astype(float)

print(f"case study: {case_ds.region.name}, 60 training days, "
      f"{test.n_rows} held-out days")
print(f"generic pool: {[ds.region.name for ds in datasets[1:]]}\n")

for weight in (0.0, 0.5, 1.0):
    model, report = train_mtl(datasets, case_ds.region, train60,
                              generic_weight=weight)
    predicted = predict_monitoring(model, test)[:, 0]
    score = r2(actual_infections, predicted)
    print(f"generic weight {weight:3.1f}: store of "
          f"{report.dedicated_instances:4d} instances, infections r2 = {score:.4f}")

model, _ = train_mtl(datasets, case_ds.region, train60, generic_weight=1.0)
rounded = np.rint(predict_monitoring(model, test)).astype(np.int64)
print("\nsample of held-out predictions (infections):")
for i in (0, 10, 20, 30):
    print(f"  {test.dates[i]}  actual={int(actual_infections[i]):4d}  "
          f"predicted={rounded[i, 0]:4d}")
