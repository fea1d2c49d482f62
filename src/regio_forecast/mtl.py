"""Instance-transfer composition of regional monitoring models.

The paper trains a *generic* model on the pooled regions and transfers it
into a *dedicated* model for the case-study region. The learner is kNN, so
that transfer is a weighted union of instances: one store holds the rows
of every other region at weight ``generic_weight``, followed by the
case-study training rows at weight 1.0. The weight is in [0, 1]: 1 is
plain kNN on the union, and 0 drops the pooled rows, leaving kNN on the
case study alone. ``MtlModel`` is that store together with the quantile
landmarks that scaled it; it derives each vote weight from the instance's
region tag and checks every rule, trained or loaded.

Training and prediction share one feature path: ``RegionalDataset.columns``
gives the selected columns (a derived one is computed only when
selected), the model's landmarks map each column, and each row is scaled
to unit length. The landmarks are fitted once, on exactly the stored rows
(case-study *training* rows, after the pool unless the weight is 0);
held-out rows are only ever transformed with them. The store
holds raw target counts: a vote is a weighted mean of them, so it is a
non-negative count with no target scaling to undo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, as_array, as_float, as_int
from .features import DEFAULT_SELECTED_FEATURES, FEATURE_CODES, TARGET_COLUMNS
from .ingest import REGION_ENCODINGS, RegionalDataset, RegionId
from .knn import predict_knn_batch
from .scaling import (apply_quantile_scaler, checked_landmarks, fit_quantile_scaler,
                      l2_normalize_rows)


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


@dataclass(frozen=True, eq=False)
class MtlModel:
    """Trained monitoring model for one case-study region: its landmarks and instance store.

    ``landmarks`` holds a row of quantile landmarks per selected feature.
    The store holds unit ``features`` rows, raw ``targets`` counts and
    ``source_tags`` (region codes, each a key of ``REGION_ENCODINGS``): the
    pooled-region instances (none when ``generic_weight`` is 0), then the
    case-study training instances. Their vote weights follow from the tags
    (``weights``). The messages name the artifact, the one source of a
    model that training did not check.
    """

    selected_features: tuple[str, ...]
    landmarks: np.ndarray       # (len(selected_features), n_quantiles), each row sorted
    features: np.ndarray        # (n, len(selected_features))
    targets: np.ndarray         # (n, len(TARGET_COLUMNS))
    source_tags: np.ndarray     # (n,) int
    k: int
    generic_weight: float
    case_study: RegionId

    @property
    def weights(self) -> np.ndarray:
        """Vote weight of each instance: 1.0 if tagged ``case_study``, else ``generic_weight``."""
        return np.where(self.source_tags == self.case_study.code, 1.0, self.generic_weight)

    def __post_init__(self):
        codes = tuple(self.selected_features)
        lm = checked_landmarks(self.landmarks, len(codes))
        f = as_array(self.features, "training rows", "biuf", dtype=np.float64)
        t = as_array(self.targets, "training targets", "biuf", dtype=np.float64)
        tags = as_array(self.source_tags, "source tags", "iu", dtype=np.int64)
        object.__setattr__(self, "generic_weight", as_float(self.generic_weight, "generic weight"))
        if f.ndim != 2 or t.ndim != 2:
            raise DataError(f"features and targets must be 2-D, "
                            f"got shapes {f.shape} and {t.shape}")
        n = f.shape[0]
        if n == 0:
            raise DataError("cannot fit on zero rows")
        if t.shape[0] != n or tags.shape != (n,):
            raise DataError(f"instance counts disagree across store fields: {n} feature rows, "
                            f"{t.shape[0]} target rows, {len(tags)} tags")
        object.__setattr__(self, "selected_features", codes)
        for name, arr in (("landmarks", lm), ("features", f), ("targets", t),
                          ("source_tags", tags)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        known = np.isin(tags, tuple(REGION_ENCODINGS))
        if not known.all():
            raise DataError(f"source tags name no region: {np.unique(tags[~known]).tolist()}")
        if not np.all(self.weights > 0):      # NaN fails the comparison too
            raise DataError("source weights must be strictly positive")
        object.__setattr__(self, "k", as_int(self.k, "k", 1))
        unknown = [c for c in codes if c not in FEATURE_CODES]
        if unknown:
            raise DataError(f"unknown selected feature codes: {unknown}")
        if len(set(codes)) != len(codes):
            raise DataError(f"selected feature codes repeat: {list(codes)}")
        if f.shape[1] != len(codes):
            raise DataError(f"store has {f.shape[1]} feature columns "
                            f"for {len(codes)} selected features")
        if t.shape[1] != len(TARGET_COLUMNS):
            raise DataError(f"store has {t.shape[1]} target columns, not {len(TARGET_COLUMNS)}")
        numbers = {"features": f, "targets": t, "landmarks": lm,
                   "generic_weight": self.generic_weight}
        for name, values in numbers.items():
            if not np.all(np.isfinite(values)):
                raise DataError(f"model artifact holds a non-finite number ({name})")
        if not 0 <= self.generic_weight <= 1:
            raise DataError(f"model artifact's generic weight must be in [0, 1], "
                            f"got {self.generic_weight}")
        if np.any(t < 0):
            raise DataError("model artifact holds a negative count (targets)")


def train_mtl(
    datasets: Sequence[RegionalDataset],
    case_study: RegionId,
    case_train_indices: np.ndarray | Sequence[int],
    k: int = 6,
    generic_weight: float = 1.0,
    selection: Sequence[str] = DEFAULT_SELECTED_FEATURES,
) -> tuple[MtlModel, TrainReport]:
    """Train the model for ``case_study`` on its rows ``case_train_indices``.

    Every dataset of another region joins the pool, in the given order; no
    region may have two datasets. Instances keep that order, pool first, so
    kNN distance ties break the same way on every run. At generic weight 0
    the model stores, and fits its landmarks on, the case-study rows alone;
    the report counts the pool.
    """
    generic_weight = as_float(generic_weight, "generic weight", 0, 1)
    as_int(k, "k", 1)
    pool = [d for d in datasets if d.region.code != case_study.code]
    if len(pool) == len(datasets):
        raise DataError(f"no dataset for case study {case_study.name!r}")
    if not pool:
        raise DataError("training needs at least one region besides the case study")
    by_code: dict[int, RegionalDataset] = {}
    for d in datasets:
        if by_code.setdefault(d.region.code, d) is not d:
            raise DataError(f"more than one dataset of region {d.region.name!r}")
    case = by_code[case_study.code].subset(case_train_indices)
    if case.n_rows == 0:
        raise DataError(f"no training rows for case study {case_study.name!r}")
    selection = tuple(selection)
    stored = pool + [case] if generic_weight > 0 else [case]
    targets = np.vstack([d.targets for d in stored])
    tags = np.concatenate([np.full(d.n_rows, d.region.code) for d in stored])

    t0 = time.perf_counter()
    raw = np.vstack([d.columns(selection) for d in stored])
    landmarks = fit_quantile_scaler(raw, selection)
    scaled = apply_quantile_scaler(landmarks, raw)
    del raw                 # free each matrix once the next is built: a lower training peak
    unit_rows = l2_normalize_rows(scaled)
    del scaled
    model = MtlModel(selection, landmarks, unit_rows, targets, tags, k, generic_weight,
                     case_study)
    fit_seconds = time.perf_counter() - t0

    return model, TrainReport(
        generic_instances=sum(d.n_rows for d in pool),
        dedicated_instances=len(model.targets),
        case_train_rows=case.n_rows,
        fit_seconds=fit_seconds,
        n_quantiles=landmarks.shape[1],
    )


def predict_monitoring(model: MtlModel, ds: RegionalDataset) -> np.ndarray:
    """Predict (infections, hospitalizations, recoveries, deaths) per day of ``ds``.

    Returns the (n, 4) float counts in TARGET_COLUMNS order: the model's
    columns of ``ds``, a dataset of its case study (else DataError), scaled
    by its landmarks and to unit rows, take its nearest instances' votes.
    """
    if ds.region != model.case_study:
        raise DataError(f"a {ds.region.name} dataset given to the {model.case_study.name} model")
    raw = ds.columns(model.selected_features)
    x = l2_normalize_rows(apply_quantile_scaler(model.landmarks, raw))
    return predict_knn_batch(model.features, model.targets, model.weights, x, model.k)
