"""Distance-weighted k-nearest-neighbor multi-output regression.

The learner is instance-based: fitting memorizes the training rows, and a
prediction is the inverse-distance-weighted mean of the k nearest stored
targets. The metric (Euclidean) and the vote weighting (inverse distance)
are fixed; only k is configurable. Each instance carries a positive source
weight so pooled instances from other regions can be up- or down-weighted
as a group.

Neighbor search takes queries in blocks. One matrix product gives every
approximate squared distance of a block, a partition finds each query's
k-th smallest, and every instance within a forward-error margin of it is
shortlisted. The shortlist is then ranked by exact distance, computed as
an exhaustive scan would compute it, so predictions, ties and the
zero-distance rule match the scan bit for bit. The test suite holds a
plain-loop oracle of the same contract that validates the predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count of the inverse-distance Euclidean vote."""

    k: int = 6

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def to_json_dict(self) -> dict:
        return {"k": self.k}

    @classmethod
    def from_json_dict(cls, d: dict) -> "KnnConfig":
        if type(d["k"]) is not int:   # int() would take 6.9, "6" and true
            raise TypeError(f"config.k must be a JSON integer, got {d['k']!r}")
        return cls(k=d["k"])


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
            raise DataError("features and targets must be 2-D")
        if f.shape[0] != t.shape[0] or f.shape[0] != w.shape[0] \
                or tags.shape != (f.shape[0],):
            raise DataError("instance counts disagree across store fields")
        if np.any(w <= 0):
            raise DataError("source weights must be strictly positive")
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


def fit_knn(
    features: np.ndarray,
    targets: np.ndarray,
    source_tags: Sequence[int] | None = None,
    weights: np.ndarray | None = None,
) -> InstanceStore:
    """Memorize (feature, target) rows; fitting is storage, nothing more."""
    try:
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"ragged training rows: {exc}") from None
    if features.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {features.shape}")
    if targets.ndim == 1:
        targets = targets[:, None]
    if features.shape[0] == 0:
        raise DataError("cannot fit on zero rows")
    if targets.shape[0] != features.shape[0]:
        raise DataError(
            f"{features.shape[0]} feature rows vs {targets.shape[0]} target rows")
    n = features.shape[0]
    if source_tags is None:
        source_tags = np.full(n, -1)
    if weights is None:
        weights = np.ones(n)
    return InstanceStore(features, targets, source_tags, weights)


# Queries are handled in blocks of about this many approximate distances
# (2 MB of float64), so memory does not grow with the number of queries.
_BLOCK_CELLS = 2 ** 18


def predict_knn_batch(store: InstanceStore, queries: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """Predict one target vector per row of a query matrix.

    For each query the min(k, |store|) nearest instances by Euclidean
    distance vote with weight source_weight / distance; ties at equal
    distance prefer the earlier-inserted instance. If any selected neighbor
    sits at distance exactly 0, the prediction is the source-weighted mean
    of the zero-distance instances alone.

    A block of queries gets approximate squared distances from one matrix
    product, ||q||^2 + ||x||^2 - 2 q.x. Every instance within a rounding
    margin of the k-th smallest approximation is shortlisted, and the
    shortlist is ranked by exact distance, so the output equals that of
    an exhaustive scan bit for bit.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise DataError(f"queries must be 2-D, got shape {queries.shape}")
    n, d = store.features.shape
    if queries.shape[1] != d:
        raise DataError(f"query has {queries.shape[1]} dims, store has {d}")
    k = min(cfg.k, n)
    x_sq = np.einsum("ij,ij->i", store.features, store.features)
    # Shortlist margin M. The expansion and the exact re-rank's sum of
    # squared differences each lie within (d + 2)·eps·(||q||^2 + ||x||^2) of
    # the true squared distance. So the k smallest approximations belong to
    # instances whose re-rank value is at most kth + M, and an instance that
    # ties or beats the k-th re-ranked distance has an approximation of at
    # most kth + 2M (the square root adds a few ulps). M = 4·(d + 4)·eps·
    # (||q||^2 + max ||x||^2) covers this with room to spare; the subnormal
    # term covers products that underflow.
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    x_sq_max = x_sq.max()
    out = np.empty((queries.shape[0], store.targets.shape[1]))
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, queries.shape[0], step):
        q = queries[start:start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            q_sq = np.einsum("ij,ij->i", q, q)
            approx = q @ store.features.T
            approx *= -2.0
            approx += x_sq
            approx += q_sq[:, None]
            margin = 4 * (d + 4) * (eps * (q_sq + x_sq_max) + tiny)
            bound = np.partition(approx, k - 1, axis=1)[:, k - 1] + 2 * margin
            shortlist = approx <= bound[:, None]
        # values beyond ~1e154 overflow when squared; such rows scan everything
        shortlist[~(np.isfinite(bound) & np.isfinite(approx).all(axis=1))] = True
        for i, (query, mask) in enumerate(zip(q, shortlist), start=start):
            out[i] = _nearest_vote(store, query, np.flatnonzero(mask), k)
    return out


def _nearest_vote(store: InstanceStore, query: np.ndarray, candidates: np.ndarray,
                  k: int) -> np.ndarray:
    """Vote of the k nearest among ascending ``candidates`` by exact distance."""
    diffs = store.features[candidates] - query
    dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    # candidates ascend, so a stable sort keeps earlier-inserted instances first
    order = np.argsort(dist, kind="stable")[:k]
    nd = dist[order]
    nw = store.weights[candidates[order]]
    ny = store.targets[candidates[order]]
    zero = nd == 0.0
    if np.any(zero):
        if zero.sum() == 1:
            return ny[zero][0]
        w = nw[zero]
        return (w[:, None] * ny[zero]).sum(axis=0) / w.sum()
    if k == 1:
        return ny[0]
    w = nw / nd
    return (w[:, None] * ny).sum(axis=0) / w.sum()
