"""Instance-transfer composition of regional monitoring models.

The paper trains a *generic* model on the pooled regions and transfers it
into a *dedicated* model for the case-study region. The learner is kNN, so
that transfer is a weighted union of instances: one store holds the rows
of every other region at weight ``generic_weight``, followed by the
case-study training rows at weight 1.0. Weight 1 is plain kNN on the
union, and weight 0 drops the pooled rows, leaving kNN on the case study
alone.

The quantile feature scaler is fitted once, on pool plus case-study
*training* rows. Held-out rows are only ever transformed with the fitted
state. The store holds raw target counts: a vote is a weighted mean of
them, so it is a non-negative count with no target scaling to undo.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .features import (
    DEFAULT_SELECTED_FEATURES,
    DERIVED_FEATURE_CODES,
    PRIMARY_FEATURE_CODES,
    FeatureMatrix,
    compute_derived_features,
    concat_features,
    select_features,
)
from .ingest import RegionalDataset, RegionId, split_train_test
from .knn import InstanceStore, KnnConfig, fit_knn, predict_knn_batch
from .scaling import (
    QuantileNormalScaler,
    apply_quantile_scaler,
    fit_quantile_scaler,
    l2_normalize_rows,
)


def build_design_matrix(
    primary: FeatureMatrix,
    selection: Sequence[str] = DEFAULT_SELECTED_FEATURES,
) -> FeatureMatrix:
    """Primary 27 columns -> +17 derived -> selected model columns."""
    derived = compute_derived_features(primary)
    full = concat_features(primary, derived)
    return select_features(full, list(selection))


def transform_design(
    scaler: QuantileNormalScaler,
    raw_design: FeatureMatrix,
) -> np.ndarray:
    """Quantile-normalize columns, then L2-normalize rows to unit vectors."""
    return l2_normalize_rows(apply_quantile_scaler(scaler, raw_design).values)


@dataclass(frozen=True)
class TrainReport:
    """Instance counts, wall-clock fit time and quantile landmark count for one run.

    ``generic_instances`` counts the rows pooled from the other regions;
    the store holds them only when the generic weight is above 0.
    """

    generic_instances: int
    dedicated_instances: int
    case_train_rows: int
    fit_seconds: float
    n_quantiles: int


@dataclass(frozen=True)
class MtlModel:
    """Trained monitoring model for one case-study region.

    ``store`` holds the pooled-region instances at ``generic_weight``
    (none when it is 0), then the case-study training instances at weight
    1.0; its source tags are region codes, so its weights follow from them
    (``source_weights``).
    """

    store: InstanceStore
    feature_scaler: QuantileNormalScaler
    selected_features: tuple[str, ...]
    cfg: KnnConfig
    generic_weight: float
    case_study: RegionId

    def __post_init__(self):
        codes = self.selected_features
        if codes != self.feature_scaler.column_codes:
            raise DataError("selected features differ from the feature scaler's columns")
        unknown = [c for c in codes if c not in PRIMARY_FEATURE_CODES + DERIVED_FEATURE_CODES]
        if unknown:
            raise DataError(f"unknown selected feature codes: {unknown}")
        if self.store.dimension != len(codes):
            raise DataError(f"store has {self.store.dimension} feature columns "
                            f"for {len(codes)} selected features")
        if not np.array_equal(self.store.weights, source_weights(
                self.store.source_tags, self.case_study, self.generic_weight)):
            raise DataError("store weights are not 1.0 on case-study rows "
                            "and the generic weight on pooled rows")


def source_weights(source_tags: np.ndarray, case_study: RegionId,
                   generic_weight: float) -> np.ndarray:
    """Vote weight of each instance: 1.0 if tagged ``case_study``, else ``generic_weight``."""
    return np.where(source_tags == case_study.code, 1.0, float(generic_weight))


def train_mtl(
    datasets: Sequence[RegionalDataset],
    case_study: RegionId,
    case_train_indices: Sequence[int],
    cfg: KnnConfig = KnnConfig(),
    generic_weight: float = 1.0,
    selection: Sequence[str] = DEFAULT_SELECTED_FEATURES,
) -> tuple[MtlModel, TrainReport]:
    """Train the model for ``case_study`` on its rows ``case_train_indices``.

    Every dataset of another region joins the pool, in the given order.
    Instances keep that order, pool first, so kNN distance ties break the
    same way on every run.
    """
    if not 0 <= generic_weight < math.inf:
        raise ConfigError(f"generic weight must be finite and >= 0, got {generic_weight}")
    case_ds = next((d for d in datasets if d.region.code == case_study.code), None)
    if case_ds is None:
        raise DataError(f"no dataset for case study {case_study.name!r}")
    case = case_ds.subset(case_train_indices)
    if case.n_rows == 0:
        raise DataError(f"no training rows for case study {case_study.name!r}")
    pool = [d for d in datasets if d.region.code != case_study.code]
    if not pool:
        raise DataError("training needs at least one region besides the case study")
    n_pool = sum(d.n_rows for d in pool)
    features = np.vstack([d.features for d in pool] + [case.features])
    targets = np.vstack([d.targets for d in pool] + [case.targets])
    tags = np.concatenate([np.full(d.n_rows, d.region.code) for d in pool + [case]])
    weights = source_weights(tags, case_study, generic_weight)

    t0 = time.perf_counter()
    raw_design = build_design_matrix(
        FeatureMatrix(features, PRIMARY_FEATURE_CODES), selection)
    feature_scaler = fit_quantile_scaler(raw_design)
    # zero-weight instances cannot vote, so they are dropped, not stored
    keep = slice(n_pool if generic_weight == 0 else 0, None)
    store = fit_knn(transform_design(feature_scaler, raw_design)[keep], targets[keep],
                    source_tags=tags[keep], weights=weights[keep])
    fit_seconds = time.perf_counter() - t0

    model = MtlModel(
        store=store,
        feature_scaler=feature_scaler,
        selected_features=tuple(selection),
        cfg=cfg,
        generic_weight=float(generic_weight),
        case_study=case_study,
    )
    report = TrainReport(
        generic_instances=n_pool,
        dedicated_instances=len(store),
        case_train_rows=case.n_rows,
        fit_seconds=fit_seconds,
        n_quantiles=feature_scaler.n_quantiles,
    )
    return model, report


def predict_monitoring(model: MtlModel, ds: RegionalDataset) -> np.ndarray:
    """Predict (infections, hospitalizations, recoveries, deaths) per day of ``ds``.

    Returns the (n, 4) float counts in TARGET_COLUMNS order. Pipeline:
    derive features, select the model columns, apply the fitted scaler,
    then let the store's nearest instances vote.
    """
    raw_design = build_design_matrix(ds.feature_matrix(), model.selected_features)
    x = transform_design(model.feature_scaler, raw_design)
    return predict_knn_batch(model.store, x, model.cfg)


def rotate_regions(
    datasets: Sequence[RegionalDataset],
    cfg: KnnConfig = KnnConfig(),
    test_size: int = 54,
    seed: int = 0,
    generic_weight: float = 1.0,
    bootstrap_replicates: int = 1000,
):
    """Let every region take a turn as the case study and evaluate it.

    For each region the remaining datasets form the pool, a held-out
    split of ``test_size`` days is predicted on the default feature
    selection, and metric intervals are computed. Returns one MetricReport
    per region, in dataset order. Per-region split and bootstrap seeds
    derive from the master seed, so a fixed seed reproduces every number.
    """
    from .evaluation import BootstrapConfig, evaluate_model  # cycle: evaluation uses predict_monitoring

    datasets = list(datasets)
    if len(datasets) < 2:
        raise DataError("region rotation needs at least 2 datasets")

    reports = []
    for ds in datasets:
        case = ds.region
        split_seed = _derived_seed(seed, case.code, 0)
        boot_seed = _derived_seed(seed, case.code, 1)
        split = split_train_test(ds, test_size, split_seed)
        model, train_report = train_mtl(
            datasets, case, split.train_indices, cfg, generic_weight)
        report = evaluate_model(
            model, ds.subset(split.test_indices),
            BootstrapConfig(replicates=bootstrap_replicates, seed=boot_seed),
            training_time_seconds=train_report.fit_seconds,
        )
        reports.append(report)
    return reports


def _derived_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])
