import numpy as np
import pytest

from regio_forecast.errors import ConfigError
from regio_forecast.evaluation import r2
from regio_forecast.ingest import parse_regional_csv, region_by_name, split_train_test
from regio_forecast.mtl import predict_monitoring, train_mtl
from regio_forecast.synth import MAX_ROWS, SyntheticSpec, generate_regions, write_region_files


def test_spec_validation():
    with pytest.raises(ConfigError, match=r"^regions must be in \[1, 10\], got 0$"):
        SyntheticSpec(regions=0)
    with pytest.raises(ConfigError, match="^rows must be >= 10, got 5$"):
        SyntheticSpec(rows=5)
    assert SyntheticSpec(rows=MAX_ROWS).rows == MAX_ROWS      # its last date is 9999-12-31
    with pytest.raises(ConfigError, match=f"^rows must be <= {MAX_ROWS} "
                                          r"\(the last date must fit in datetime\.date\), "
                                          f"got {MAX_ROWS + 1}$"):
        SyntheticSpec(rows=MAX_ROWS + 1)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"^noise must be finite and >= 0, got {noise}$"):
            SyntheticSpec(noise=noise)


def test_files_parse_back(tmp_path):
    paths = write_region_files(SyntheticSpec(regions=7, rows=362, seed=1), tmp_path)
    assert len(paths) == 7
    for path in paths:
        ds = parse_regional_csv(path, region_by_name(path.stem))
        assert ds.n_rows == 362


def test_default_window_matches_reference_range():
    ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=0))[0]
    assert ds.dates[0].isoformat() == "2020-01-25"
    assert ds.dates[-1].isoformat() == "2021-01-20"


def test_generation_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_region_files(SyntheticSpec(regions=2, rows=50, seed=9), a)
    write_region_files(SyntheticSpec(regions=2, rows=50, seed=9), b)
    for pa, pb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert pa.read_bytes() == pb.read_bytes()
    c = tmp_path / "c"
    write_region_files(SyntheticSpec(regions=2, rows=50, seed=10), c)
    assert (c / "alberta.csv").read_bytes() != (a / "alberta.csv").read_bytes()


def test_noiseless_dedicated_model_is_nearly_exact():
    datasets = generate_regions(SyntheticSpec(regions=3, rows=362, seed=2, noise=0.0))
    ds = datasets[0]
    split = split_train_test(ds, 54, seed=2)
    model, _ = train_mtl(datasets, ds.region, split.train_indices)
    test = ds.subset(split.test_indices)
    predicted = predict_monitoring(model, test)
    y = test.targets.astype(float)
    for j in range(4):
        assert r2(y[:, j], predicted[:, j]) > 0.99


def test_targets_are_nonnegative_integers(small_datasets):
    for ds in small_datasets:
        t = ds.targets.astype(float)
        assert np.all(t >= 0)
        assert np.array_equal(t, np.rint(t))
