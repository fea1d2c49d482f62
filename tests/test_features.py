import datetime as dt

import numpy as np
import pytest

from regio_forecast.errors import ConfigError, DataError
from regio_forecast.features import (
    DEFAULT_SELECTED_FEATURES,
    DERIVED_FEATURE_CODES,
    DERIVED_FORMULAS,
    FEATURE_CODES,
    PRIMARY_FEATURE_CODES,
    TARGET_COLUMNS,
    RelevanceReport,
    score_relevance,
)
from regio_forecast.ingest import RegionalDataset, region_by_code

ALL_CODES = PRIMARY_FEATURE_CODES + DERIVED_FEATURE_CODES


def primary_dataset(rows):
    """rows: list of dicts of overrides on a default-1.0 primary row.

    All-1.0 rows are valid days of British Columbia (region code 1).
    """
    out = []
    for overrides in rows:
        row = {code: 1.0 for code in PRIMARY_FEATURE_CODES}
        row.update(overrides)
        out.append([row[c] for c in PRIMARY_FEATURE_CODES])
    dates = tuple(dt.date(2020, 3, 1) + dt.timedelta(days=i) for i in range(len(rows)))
    return RegionalDataset(region_by_code(1), dates, np.asarray(out, dtype=float),
                           np.zeros((len(rows), len(TARGET_COLUMNS))))


def derived(ds, code):
    return ds.columns([code])[:, 0]


def test_derived_population_totals():
    ds = primary_dataset([{f"feat_{i}": 100.0 for i in range(22, 28)}])
    assert derived(ds, "d01")[0] == 600.0
    assert derived(ds, "d04")[0] == pytest.approx(200.0 / 600.0)
    assert derived(ds, "d02")[0] == pytest.approx(0.5)
    assert derived(ds, "d06")[0] == pytest.approx(200.0 / 600.0)


def test_derived_zero_land_guard():
    ds = primary_dataset([{"feat_03": 0.0}])
    assert derived(ds, "d07")[0] == 0.0


def test_derived_zero_mobility_composite():
    ds = primary_dataset([{f"feat_{i}": 0.0 for i in range(12, 18)}])
    assert derived(ds, "d13")[0] == 0.0
    assert derived(ds, "d17")[0] == 0.0


def test_derived_shape_and_codes():
    ds = primary_dataset([{}, {}, {}])
    assert ds.columns(DERIVED_FEATURE_CODES).shape == (3, 17)
    assert tuple(DERIVED_FORMULAS) == DERIVED_FEATURE_CODES
    assert FEATURE_CODES == PRIMARY_FEATURE_CODES + DERIVED_FEATURE_CODES
    assert DERIVED_FEATURE_CODES == tuple(f"d{i:02d}" for i in range(1, 18))


def test_derived_is_row_local(small_datasets):
    ds = small_datasets[0]
    perm = np.random.default_rng(3).permutation(ds.n_rows)
    shuffled = RegionalDataset(ds.region, ds.dates, ds.features[perm], ds.targets[perm])
    direct = ds.columns(DERIVED_FEATURE_CODES)[perm]
    assert np.array_equal(direct, shuffled.columns(DERIVED_FEATURE_CODES))


def test_derived_column_computed_only_when_named():
    # d11 = feat_19 / (feat_20 + 1e-9) divides by zero on the second day
    ds = primary_dataset([{}, {"feat_20": -1e-9}])
    assert np.array_equal(ds.columns(DEFAULT_SELECTED_FEATURES),
                          ds.features[:, [PRIMARY_FEATURE_CODES.index(c)
                                          for c in DEFAULT_SELECTED_FEATURES]])
    with np.errstate(all="raise"):
        assert np.isfinite(derived(ds, "d10")).all()
        with pytest.raises(DataError, match="^bad value at British Columbia, 2020-03-02, "
                                            "column 'd11': derived value inf is not finite$"):
            ds.columns(["feat_01", "d11"])


def test_concat_shapes_and_order():
    ds = primary_dataset([{}, {"feat_03": 5.0}])
    full = ds.columns(ALL_CODES)
    assert full.shape == (2, 44)
    assert full.flags.c_contiguous
    assert np.array_equal(full[:, :27], ds.features)
    for j, code in enumerate(DERIVED_FEATURE_CODES):
        assert np.array_equal(full[:, 27 + j], derived(ds, code))


def test_relevance_perfect_monotone_association():
    rng = np.random.default_rng(0)
    t = rng.normal(size=30)
    features = np.column_stack([t, rng.normal(size=30)])
    targets = np.column_stack([t] * 4)
    report = score_relevance(features, ("same", "noise"), targets)
    for target in TARGET_COLUMNS:
        assert report.score("same", target) == pytest.approx(1.0)


def test_relevance_constant_feature_scores_zero():
    rng = np.random.default_rng(1)
    features = np.column_stack([np.full(20, 3.0), rng.normal(size=20)])
    targets = rng.normal(size=(20, 4))
    report = score_relevance(features, ("const", "varies"), targets)
    for target in TARGET_COLUMNS:
        assert report.score("const", target) == 0.0


def test_relevance_too_few_rows():
    targets = np.ones((2, 4))
    with pytest.raises(DataError, match="^relevance scoring needs at least 3 rows$"):
        score_relevance(np.ones((2, 1)), ("a",), targets)


@pytest.mark.parametrize("targets, message", [
    (np.ones((5, 3)), r"^targets must have shape \(n, 4\), got \(5, 3\)$"),
    (np.ones(5), r"^targets must have shape \(n, 4\), got \(5,\)$"),
    (np.ones((4, 4)), "^row counts differ: 5 vs 4$"),
    (np.where(np.eye(5, 4) > 0, np.nan, 1.0), "^targets contain non-finite values$"),
    (np.full((5, 4), np.inf), "^targets contain non-finite values$"),
], ids=["three_columns", "one_dimensional", "row_count", "nan", "inf"])
def test_relevance_rejects_bad_targets(targets, message):
    with pytest.raises(DataError, match=message):
        score_relevance(np.arange(10.0).reshape(5, 2), ("a", "b"), targets)


@pytest.mark.parametrize("features, message", [
    (np.where(np.eye(5, 2) > 0, np.inf, 1.0), "^features contain non-finite values$"),
    (np.ones((5, 3)), r"^2 column codes for features of shape \(5, 3\)$"),
    (np.ones(5), r"^2 column codes for features of shape \(5,\)$"),
], ids=["inf", "three_columns", "one_dimensional"])
def test_relevance_rejects_bad_features(features, message):
    with pytest.raises(DataError, match=message):
        score_relevance(features, ("a", "b"), np.ones((5, 4)))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_relevance_report_rejects_scores_outside_unit_interval(bad):
    with pytest.raises(DataError, match=r"^relevance scores must lie in \[0, 1\]$"):
        RelevanceReport(("a", "b"), ("t",), np.array([[bad], [0.5]]))


def test_relevance_report_rejects_a_mis_shaped_score_matrix():
    with pytest.raises(DataError, match="^score matrix shape does not match codes/targets$"):
        RelevanceReport(("a", "b"), ("t",), np.full((2, 2), 0.5))


def test_relevance_score_of_an_unknown_code_is_a_config_error():
    report = RelevanceReport(("a", "b"), ("t",), np.array([[1.0], [0.5]]))
    assert report.score("b", "t") == 0.5
    with pytest.raises(ConfigError, match="^unknown feature code: 'feat_99'$"):
        report.score("feat_99", "t")


def test_relevance_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(40, 2))
    targets = rng.normal(size=(40, 4))
    plain = score_relevance(base, ("f", "g"), targets)
    warped = score_relevance(np.column_stack([np.exp(base[:, 0]), base[:, 1]]), ("f", "g"),
                             targets)
    assert np.allclose(plain.scores, warped.scores, atol=1e-12)


def test_relevance_csv_export():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(30, 2))
    targets = rng.normal(size=(30, 4))
    text = score_relevance(features, ("a", "b"), targets).to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "feature,infections,hospitalizations,recoveries,deaths"
    assert len(lines) == 3
    assert lines[1].startswith("a,") and lines[1].count("%") == 4


def test_select_explicit_default_list(small_datasets):
    ds = small_datasets[0]
    selected = ds.columns(DEFAULT_SELECTED_FEATURES)
    assert selected.shape == (ds.n_rows, 13)
    # selected columns equal the full 44-column array's columns of those codes
    full = ds.columns(ALL_CODES)
    indices = [ALL_CODES.index(c) for c in DEFAULT_SELECTED_FEATURES]
    assert np.array_equal(selected, full[:, indices])


def test_select_unknown_code():
    ds = primary_dataset([{}])
    with pytest.raises(ConfigError, match="^unknown feature code: 'feat_99'$"):
        ds.columns(["feat_01", "feat_99"])


def test_select_ranked_full_width_is_rank_reorder():
    rng = np.random.default_rng(6)
    t = rng.normal(size=50)
    features = np.column_stack([t + 0.1 * rng.normal(size=50), rng.normal(size=50), t])
    targets = np.column_stack([t] * 4)
    report = score_relevance(features, ("close", "noise", "exact"), targets)
    picked = report.top(3)
    assert set(picked) == {"close", "noise", "exact"}
    assert picked[0] == "exact"


def test_select_ranked_ties_keep_column_order():
    codes = ("a", "b", "c", "d")
    # mean scores 0.5, 1.0, 0.5, 1.0 (b and d built from different per-target scores)
    scores = [[0.5] * 4, [1.0] * 4, [0.25, 0.75, 0.5, 0.5], [1.0] * 4]
    report = RelevanceReport(codes, ("t1", "t2", "t3", "t4"), np.array(scores))
    assert report.top(3) == ("b", "d", "a")


def test_select_ranked_bad_top_n():
    ds = primary_dataset([{}, {}, {}])
    rng = np.random.default_rng(7)
    report = score_relevance(ds.features, PRIMARY_FEATURE_CODES, rng.normal(size=(3, 4)))
    with pytest.raises(ConfigError, match=r"^top_n must be in \[1, 27\], got 0$"):
        report.top(0)
    with pytest.raises(ConfigError, match=r"^top_n must be in \[1, 27\], got 28$"):
        report.top(28)
