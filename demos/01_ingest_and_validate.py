"""Ingest walkthrough: generate region files, parse them back, validate, split.

Run from the repository root after `pip install -e .`:

    python demos/01_ingest_and_validate.py
"""

import tempfile
from pathlib import Path

from regio_forecast import (
    SyntheticSpec,
    parse_regional_csv,
    region_by_name,
    split_train_test,
    validate_dataset,
    write_region_files,
)

workdir = Path(tempfile.mkdtemp(prefix="regio_demo_"))
paths = write_region_files(SyntheticSpec(regions=3, rows=362, seed=1), workdir)
print(f"wrote {len(paths)} region files under {workdir}")

datasets = [parse_regional_csv(p, region_by_name(p.stem)) for p in paths]
for ds in datasets:
    report = validate_dataset(ds)
    print(f"{ds.region.name}: {ds.n_rows} rows "
          f"({ds.dates[0]} .. {ds.dates[-1]}), violations: {len(report)}")

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
