import numpy as np
import pytest

from regio_forecast.errors import ConfigError, DataError
from regio_forecast.features import (
    DEFAULT_SELECTED_FEATURES,
    PRIMARY_FEATURE_CODES,
    FeatureMatrix,
    TargetMatrix,
    compute_derived_features,
    concat_features,
    score_relevance,
    select_features,
)


def primary_matrix(rows):
    """rows: list of dicts of overrides on a default-1.0 primary row."""
    out = []
    for overrides in rows:
        row = {code: 1.0 for code in PRIMARY_FEATURE_CODES}
        row.update(overrides)
        out.append([row[c] for c in PRIMARY_FEATURE_CODES])
    return FeatureMatrix(np.asarray(out, dtype=float), PRIMARY_FEATURE_CODES)


def test_derived_population_totals():
    m = primary_matrix([{f"feat_{i}": 100.0 for i in range(22, 28)}])
    derived = compute_derived_features(m)
    assert derived.column("d01")[0] == 600.0
    assert derived.column("d04")[0] == pytest.approx(200.0 / 600.0)
    assert derived.column("d02")[0] == pytest.approx(0.5)
    assert derived.column("d06")[0] == pytest.approx(200.0 / 600.0)


def test_derived_zero_land_guard():
    m = primary_matrix([{"feat_03": 0.0}])
    derived = compute_derived_features(m)
    assert derived.column("d07")[0] == 0.0


def test_derived_zero_mobility_composite():
    m = primary_matrix([{f"feat_{i}": 0.0 for i in range(12, 18)}])
    derived = compute_derived_features(m)
    assert derived.column("d13")[0] == 0.0
    assert derived.column("d17")[0] == 0.0


def test_derived_shape_and_codes():
    m = primary_matrix([{}, {}, {}])
    derived = compute_derived_features(m)
    assert derived.values.shape == (3, 17)
    assert derived.column_codes == tuple(f"d{i:02d}" for i in range(1, 18))


def test_derived_missing_primary_column():
    m = FeatureMatrix(np.ones((2, 26)), PRIMARY_FEATURE_CODES[:26])
    with pytest.raises(DataError, match="^primary feature column missing: 'feat_27'$"):
        compute_derived_features(m)


def test_derived_is_row_local():
    rng = np.random.default_rng(3)
    values = np.abs(rng.normal(10.0, 3.0, size=(8, 27)))
    m = FeatureMatrix(values, PRIMARY_FEATURE_CODES)
    perm = rng.permutation(8)
    direct = compute_derived_features(m).values[perm]
    permuted = compute_derived_features(
        FeatureMatrix(values[perm], PRIMARY_FEATURE_CODES)).values
    assert np.array_equal(direct, permuted)


def test_concat_shapes_and_order():
    m = primary_matrix([{}, {}])
    derived = compute_derived_features(m)
    full = concat_features(m, derived)
    assert full.values.shape == (2, 44)
    assert full.column_codes == m.column_codes + derived.column_codes
    assert np.array_equal(full.values[:, :27], m.values)
    assert np.array_equal(full.values[:, 27:], derived.values)


def test_concat_row_mismatch():
    with pytest.raises(DataError, match="^row counts differ: 2 vs 3$"):
        concat_features(primary_matrix([{}, {}]),
                        FeatureMatrix(np.ones((3, 1)), ("d01",)))


def test_relevance_perfect_monotone_association():
    rng = np.random.default_rng(0)
    t = rng.normal(size=30)
    features = FeatureMatrix(np.column_stack([t, rng.normal(size=30)]), ("same", "noise"))
    targets = TargetMatrix(np.column_stack([t] * 4))
    report = score_relevance(features, targets)
    for target in targets.column_names:
        assert report.score("same", target) == pytest.approx(1.0)


def test_relevance_constant_feature_scores_zero():
    rng = np.random.default_rng(1)
    features = FeatureMatrix(
        np.column_stack([np.full(20, 3.0), rng.normal(size=20)]), ("const", "varies"))
    targets = TargetMatrix(rng.normal(size=(20, 4)))
    report = score_relevance(features, targets)
    for target in targets.column_names:
        assert report.score("const", target) == 0.0


def test_relevance_too_few_rows():
    features = FeatureMatrix(np.ones((2, 1)), ("a",))
    targets = TargetMatrix(np.ones((2, 4)))
    with pytest.raises(DataError, match="^relevance scoring needs at least 3 rows$"):
        score_relevance(features, targets)


def test_relevance_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(40, 2))
    targets = TargetMatrix(rng.normal(size=(40, 4)))
    plain = score_relevance(FeatureMatrix(base, ("f", "g")), targets)
    warped = score_relevance(
        FeatureMatrix(np.column_stack([np.exp(base[:, 0]), base[:, 1]]), ("f", "g")),
        targets)
    assert np.allclose(plain.scores, warped.scores, atol=1e-12)


def test_relevance_csv_export():
    rng = np.random.default_rng(4)
    features = FeatureMatrix(rng.normal(size=(30, 2)), ("a", "b"))
    targets = TargetMatrix(rng.normal(size=(30, 4)))
    text = score_relevance(features, targets).to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "feature,infections,hospitalizations,recoveries,deaths"
    assert len(lines) == 3
    assert lines[1].startswith("a,") and lines[1].count("%") == 4


def test_select_explicit_default_list(small_datasets):
    ds = small_datasets[0]
    primary = ds.feature_matrix()
    full = concat_features(primary, compute_derived_features(primary))
    selected = select_features(full, list(DEFAULT_SELECTED_FEATURES))
    assert selected.column_codes == DEFAULT_SELECTED_FEATURES
    assert len(selected.column_codes) == 13
    # no recomputation: selected columns equal the concatenated originals
    for code in DEFAULT_SELECTED_FEATURES:
        assert np.array_equal(selected.column(code), full.column(code))


def test_select_unknown_code():
    m = primary_matrix([{}])
    with pytest.raises(ConfigError, match="^unknown feature code: 'feat_99'$"):
        select_features(m, ["feat_99"])


def test_select_ranked_full_width_is_rank_reorder():
    rng = np.random.default_rng(6)
    t = rng.normal(size=50)
    features = FeatureMatrix(
        np.column_stack([t + 0.1 * rng.normal(size=50),
                         rng.normal(size=50),
                         t]),
        ("close", "noise", "exact"))
    targets = TargetMatrix(np.column_stack([t] * 4))
    report = score_relevance(features, targets)
    picked = select_features(features, report=report, top_n=3)
    assert set(picked.column_codes) == {"close", "noise", "exact"}
    assert picked.column_codes[0] == "exact"


def test_select_ranked_bad_top_n():
    m = primary_matrix([{}, {}, {}])
    rng = np.random.default_rng(7)
    report = score_relevance(m, TargetMatrix(rng.normal(size=(3, 4))))
    with pytest.raises(ConfigError, match=r"^top_n must be in \[1, 27\], got 0$"):
        select_features(m, report=report, top_n=0)
    with pytest.raises(ConfigError, match=r"^top_n must be in \[1, 27\], got 28$"):
        select_features(m, report=report, top_n=28)
    with pytest.raises(ConfigError,
                       match=r"^pass either an explicit code list or \(report, top_n\), not both$"):
        select_features(m, ["feat_01"], report=report, top_n=2)
