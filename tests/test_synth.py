import numpy as np
import pytest

from regio_forecast.errors import ConfigError
from regio_forecast.evaluation import r2
from regio_forecast.features import score_relevance
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
    assert ds.dates.tolist()[0].isoformat() == "2020-01-25"
    assert ds.dates.tolist()[-1].isoformat() == "2021-01-20"


def test_season_and_weekend_follow_the_calendar():
    ds = generate_regions(SyntheticSpec(regions=1, rows=400, seed=0))[0]
    season = {12: 4, 1: 4, 2: 4, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3, 11: 3}
    days = ds.dates.tolist()
    assert ds.columns(["feat_02"])[:, 0].tolist() == [float(season[d.month]) for d in days]
    assert ds.columns(["feat_10"])[:, 0].tolist() == [float(d.weekday() >= 5) for d in days]


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


# What generate_regions plants: these columns follow the shared intensity
# that drives every target, and these are a per-region constant under
# per-day jitter.
PLANTED_DRIVERS = ("feat_07", "feat_08", "feat_12", "feat_13", "feat_14", "feat_15", "feat_16",
                   "feat_17", "feat_19", "feat_20")
CONSTANT_COLUMNS = ("feat_03", "feat_11", "feat_21", "feat_22", "feat_23", "feat_24",
                    "feat_25", "feat_26", "feat_27")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("regions, rows, test_days", [(7, 362, 54), (10, 2000, 285)],
                         ids=["monitor_paper", "serve_large"])
def test_planted_drivers_outrank_constant_columns_on_training_days(regions, rows, test_days,
                                                                    seed):
    """Relevance scored on each region's training days puts every planted
    driver above every constant column, for every target."""
    codes = PLANTED_DRIVERS + CONSTANT_COLUMNS
    for ds in generate_regions(SyntheticSpec(regions=regions, rows=rows, seed=seed)):
        train = ds.subset(split_train_test(ds, test_days, seed).train_indices)
        report = score_relevance(train.columns(codes), codes, train.targets)
        drivers, constant = np.split(report.scores, [len(PLANTED_DRIVERS)])
        assert np.all(drivers.min(axis=0) > constant.max(axis=0)), ds.region.name
