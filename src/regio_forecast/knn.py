"""Distance-weighted k-nearest-neighbor multi-output regression.

The learner is instance-based: fitting memorizes the training rows, and a
prediction is the inverse-distance-weighted mean of the k nearest stored
targets. Each instance carries a positive source weight so pooled
instances from other regions can be up- or down-weighted as a group.

Neighbor search is an exhaustive scan. The test suite holds a plain-loop
oracle of the same contract that validates the vectorized predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadConfig, DimensionMismatch, EmptyTrainingSet


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count plus the (fixed) weighting and metric choices."""

    k: int = 6
    weighting: str = "distance"
    distance: str = "euclidean"

    def __post_init__(self):
        if self.k < 1:
            raise BadConfig(f"k must be >= 1, got {self.k}")
        if self.weighting != "distance":
            raise BadConfig(f"unsupported weighting: {self.weighting!r}")
        if self.distance != "euclidean":
            raise BadConfig(f"unsupported distance: {self.distance!r}")

    def to_json_dict(self) -> dict:
        return {"k": self.k, "weighting": self.weighting, "distance": self.distance}

    @classmethod
    def from_json_dict(cls, d: dict) -> "KnnConfig":
        return cls(k=int(d["k"]), weighting=d["weighting"], distance=d["distance"])


@dataclass(frozen=True)
class InstanceStore:
    """Memorized training instances with per-instance source weights.

    ``source_tags`` records where each instance came from as an integer
    (the region code in a monitoring model); -1 marks an untagged instance.
    """

    features: np.ndarray           # (n, d)
    targets: np.ndarray            # (n, m)
    source_tags: np.ndarray        # (n,) int
    weights: np.ndarray            # (n,), all > 0

    def __post_init__(self):
        # contiguous storage so identical values give identical predictions
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        t = np.ascontiguousarray(self.targets, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        tags = np.ascontiguousarray(self.source_tags, dtype=np.int64)
        if f.ndim != 2 or t.ndim != 2:
            raise DimensionMismatch("features and targets must be 2-D")
        if f.shape[0] != t.shape[0] or f.shape[0] != w.shape[0] \
                or tags.shape != (f.shape[0],):
            raise DimensionMismatch("instance counts disagree across store fields")
        if np.any(w <= 0):
            raise DimensionMismatch("source weights must be strictly positive")
        for arr in (f, t, w, tags):
            arr.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "source_tags", tags)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "features": self.features.tolist(),
            "targets": self.targets.tolist(),
            "source_tags": self.source_tags.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "InstanceStore":
        return cls(
            np.asarray(d["features"], dtype=np.float64),
            np.asarray(d["targets"], dtype=np.float64),
            np.asarray(d["source_tags"], dtype=np.int64),
            np.asarray(d["weights"], dtype=np.float64),
        )


def fit_knn(
    features: np.ndarray,
    targets: np.ndarray,
    cfg: KnnConfig | None = None,
    source_tags: Sequence[int] | None = None,
    weights: np.ndarray | None = None,
) -> InstanceStore:
    """Memorize (feature, target) rows; fitting is storage, nothing more."""
    try:
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"ragged training rows: {exc}") from None
    if features.ndim != 2:
        raise DimensionMismatch(f"features must be 2-D, got shape {features.shape}")
    if targets.ndim == 1:
        targets = targets[:, None]
    if features.shape[0] == 0:
        raise EmptyTrainingSet("cannot fit on zero rows")
    if targets.shape[0] != features.shape[0]:
        raise DimensionMismatch(
            f"{features.shape[0]} feature rows vs {targets.shape[0]} target rows")
    n = features.shape[0]
    if source_tags is None:
        source_tags = np.full(n, -1)
    if weights is None:
        weights = np.ones(n)
    return InstanceStore(features, targets, source_tags, weights)


def predict_knn(store: InstanceStore, query: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """Predict one target vector for a query point.

    The min(k, |store|) nearest instances by Euclidean distance vote with
    weight source_weight / distance; ties at equal distance prefer the
    earlier-inserted instance. If any selected neighbor sits at distance
    exactly 0, the prediction is the source-weighted mean of the
    zero-distance instances alone.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    if query.shape[0] != store.dimension:
        raise DimensionMismatch(
            f"query has {query.shape[0]} dims, store has {store.dimension}")
    diffs = store.features - query
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    k = min(cfg.k, len(store))
    order = np.argsort(d, kind="stable")[:k]

    nd = d[order]
    nw = store.weights[order]
    ny = store.targets[order]
    zero = nd == 0.0
    if np.any(zero):
        if zero.sum() == 1:
            return ny[zero][0].copy()
        w = nw[zero]
        return (w[:, None] * ny[zero]).sum(axis=0) / w.sum()
    if k == 1:
        return ny[0].copy()
    w = nw / nd
    return (w[:, None] * ny).sum(axis=0) / w.sum()


def predict_knn_batch(store: InstanceStore, queries: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """Stack predict_knn over the rows of a query matrix."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise DimensionMismatch(f"queries must be 2-D, got shape {queries.shape}")
    return np.vstack([predict_knn(store, q, cfg) for q in queries])
