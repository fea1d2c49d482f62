"""Scaling walkthrough: quantile-normal columns, unit rows, min-max targets.

    python demos/03_scaling_geometry.py
"""

import numpy as np

from regio_forecast import (
    FeatureMatrix,
    SyntheticSpec,
    apply_quantile_scaler,
    fit_minmax,
    fit_quantile_scaler,
    generate_regions,
    l2_normalize_rows,
)

ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=2))[0]
raw = FeatureMatrix(ds.feature_matrix().values[:, [0, 16, 17]],
                    ("rt_index", "residential", "travelers"))

print("raw column skew (mean vs median):")
for j, code in enumerate(raw.column_codes):
    col = raw.values[:, j]
    print(f"  {code:12s} mean={col.mean():12.2f} median={np.median(col):12.2f}")

scaler = fit_quantile_scaler(raw)
z = apply_quantile_scaler(scaler, raw)
print("\nafter the quantile-normal transform:")
for j, code in enumerate(z.column_codes):
    col = z.values[:, j]
    print(f"  {code:12s} mean={col.mean():7.4f} std={col.std():6.4f}")

unit = l2_normalize_rows(z.values)
norms = np.linalg.norm(unit, axis=1)
print(f"\nrow norms after L2 normalization: "
      f"min={norms.min():.12f} max={norms.max():.12f} "
      f"(zero rows left at zero: {int((norms == 0.0).sum())})")

targets = ds.target_matrix()
state = fit_minmax(targets)
back = state.inverse_values(state.transform_values(targets.values))
print(f"\nmin-max roundtrip max error: "
      f"{np.abs(back - targets.values).max():.2e}")

print("\na training quantile at probability p maps to the normal quantile of p:")
picks = [9, 180, 351]
probe = FeatureMatrix(scaler.landmarks.T[picks], raw.column_codes)
for p, row in zip(scaler.probabilities[picks], apply_quantile_scaler(scaler, probe).values):
    print(f"  p={p:.3f}: {row[0]: .6f}")
