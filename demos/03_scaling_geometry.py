"""Scaling walkthrough: quantile-normal columns, unit rows, unscaled targets.

    python demos/03_scaling_geometry.py
"""

import numpy as np

from regio_forecast import (
    SyntheticSpec,
    apply_quantile_scaler,
    fit_quantile_scaler,
    generate_regions,
    l2_normalize_rows,
)

ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=2))[0]
raw = ds.columns(["feat_01", "feat_17", "feat_18"])
names = ("rt_index", "residential", "travelers")

print("raw column skew (mean vs median):")
for j, code in enumerate(names):
    col = raw[:, j]
    print(f"  {code:12s} mean={col.mean():12.2f} median={np.median(col):12.2f}")

landmarks = fit_quantile_scaler(raw, names)      # one sorted row of landmarks per column
z = apply_quantile_scaler(landmarks, raw)
print(f"\nafter the quantile-normal transform ({landmarks.shape[1]} landmarks per column):")
for j, code in enumerate(names):
    col = z[:, j]
    print(f"  {code:12s} mean={col.mean():7.4f} std={col.std():6.4f}")

unit = l2_normalize_rows(z)
norms = np.linalg.norm(unit, axis=1)
print(f"\nrow norms after L2 normalization: "
      f"min={norms.min():.12f} max={norms.max():.12f} "
      f"(zero rows left at zero: {int((norms == 0.0).sum())})")

# Targets stay raw counts: a kNN vote is a weighted mean of stored rows,
# and a weighted mean commutes with any per-column affine map, so min-max
# scaling before the vote and inverting it after would change nothing.
targets = ds.targets.astype(float)
lo, span = targets.min(axis=0), np.ptp(targets, axis=0)
w = np.random.default_rng(2).uniform(0.1, 1.0, size=6)
rows = targets[:6]
raw_vote = w @ rows / w.sum()
scaled_vote = (w @ ((rows - lo) / span) / w.sum()) * span + lo
print(f"\nweighted vote, raw vs min-max round trip: max difference "
      f"{np.abs(raw_vote - scaled_vote).max():.2e}")

print("\na training quantile at probability p maps to the normal quantile of p:")
picks = [9, 180, 351]
probs = np.linspace(0.0, 1.0, landmarks.shape[1])   # landmark j sits at probability probs[j]
probe = landmarks.T[picks]
for p, row in zip(probs[picks], apply_quantile_scaler(landmarks, probe)):
    print(f"  p={p:.3f}: {row[0]: .6f}")
