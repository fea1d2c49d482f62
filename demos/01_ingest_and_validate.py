"""Ingest walkthrough: generate region files, parse them back, split, and
see a dataset refuse a bad cell.

Run from the repository root after `pip install -e .`:

    python demos/01_ingest_and_validate.py
"""

import dataclasses
import tempfile
from pathlib import Path

from regio_forecast import (
    DataError,
    SyntheticSpec,
    parse_regional_csv,
    region_by_name,
    split_train_test,
    write_region_files,
)

# The files live only as long as this block; the datasets hold every value.
with tempfile.TemporaryDirectory(prefix="regio_demo_") as workdir:
    paths = write_region_files(SyntheticSpec(regions=3, rows=362, seed=1), Path(workdir))
    print(f"wrote {len(paths)} region files under {workdir}")
    datasets = [parse_regional_csv(p, region_by_name(p.stem)) for p in paths]
for ds in datasets:
    print(f"{ds.region.name}: {ds.n_rows} rows ({ds.dates[0]} .. {ds.dates[-1]})")

# Hold out 54 random days of the first region, reproducibly.
split = split_train_test(datasets[0], test_size=54, seed=1)
print(f"\nsplit of {datasets[0].region.name}: "
      f"{len(split.train_indices)} train / {len(split.test_indices)} test days")
print("first five held-out days:",
      [str(datasets[0].dates[i]) for i in split.test_indices[:5]])

# Each dataset is columnar: one row per day, features and targets as arrays.
ds = datasets[0]
print(f"\n{ds.region.name}: features {ds.features.shape}, targets {ds.targets.shape}; "
      f"feat_04 holds region code {int(ds.features[0, 3])} on every day")

# A dataset checks its cells when it is built, however it is built. Setting
# the lockdown stage (feat_07, one of 1, 2, 3) to 5 on day 10 is refused.
features = ds.features.copy()
features[10, 6] = 5.0
try:
    dataclasses.replace(ds, features=features)
except DataError as exc:
    print(f"\nrefused: {exc}")
