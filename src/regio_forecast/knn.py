"""Distance-weighted k-nearest-neighbor multi-output regression.

The learner is instance-based: the model is an InstanceStore of the
training rows, built directly from them with no fitting step, and a
prediction is the inverse-distance-weighted mean of the k nearest stored
targets. The metric (Euclidean) and the vote weighting (inverse distance)
are fixed; only k is configurable. Each instance carries a positive source
weight so pooled instances from other regions can be up- or down-weighted
as a group.

Neighbor search (``neighbours``) takes queries in blocks. One matrix
product of the queries [-2q, 1] with the augmented store [F^T; ||x||^2]
gives every approximate squared distance of a block, less each query's
own ||q||^2. Minima across 16 slabs of each row bound its k-th smallest
approximation from above without partitioning the whole row, and every
instance within a forward-error margin of that bound is shortlisted. The
shortlists are packed into one padded matrix and ranked by exact
distance, computed as an exhaustive scan would compute it, so neighbors,
distances and ties match the scan bit for bit. ``predict_knn_batch`` is
one vectorized vote over the resulting (queries, k) arrays. The test
suite holds a plain-loop oracle of the same contract that validates the
predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count of the inverse-distance Euclidean vote."""

    k: int = 6

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class InstanceStore:
    """Training instances with per-instance source weights.

    ``source_tags`` records where each instance came from as an integer
    (the region code in a monitoring model); -1, the default, marks an
    untagged instance. ``weights`` default to 1.0.
    """

    features: np.ndarray                    # (n, d)
    targets: np.ndarray                     # (n, m)
    source_tags: np.ndarray | None = None   # (n,) int
    weights: np.ndarray | None = None       # (n,), all > 0

    def __post_init__(self):
        # contiguous storage so identical values give identical predictions
        try:
            f = np.ascontiguousarray(self.features, dtype=np.float64)
            t = np.ascontiguousarray(self.targets, dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"ragged training rows: {exc}") from None
        if f.ndim != 2 or t.ndim != 2:
            raise DataError(f"features and targets must be 2-D, "
                            f"got shapes {f.shape} and {t.shape}")
        n = f.shape[0]
        if n == 0:
            raise DataError("cannot fit on zero rows")
        tags = np.full(n, -1) if self.source_tags is None else self.source_tags
        tags = np.ascontiguousarray(tags, dtype=np.int64)
        w = np.ascontiguousarray(np.ones(n) if self.weights is None else self.weights,
                                 dtype=np.float64)
        if t.shape[0] != n or w.shape != (n,) or tags.shape != (n,):
            raise DataError(f"instance counts disagree across store fields: {n} feature rows, "
                            f"{t.shape[0]} target rows, {len(tags)} tags, {len(w)} weights")
        if not np.all(w > 0):      # NaN fails the comparison too
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


# Queries are handled in blocks of about this many approximate distances
# (2 MB of float64), so memory does not grow with the number of queries.
_BLOCK_CELLS = 2 ** 18

# The shortlist bound views each row of approximations as this many slabs
# and takes the minimum across them at every position (see neighbours).
_SLABS = 16


def neighbours(store: InstanceStore, queries: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each query's k nearest instances.

    Returns ``(idx, dist)``, both of shape ``(len(queries), min(k, |store|))``.
    Row i lists query i's neighbors by ascending Euclidean distance, ties
    going to the earlier-inserted (lower) index, and the distances are
    computed as an exhaustive scan computes them. So both arrays equal a
    stable sort of the full scan bit for bit.

    Per block of queries, one matrix product of [-2q, 1] with the augmented
    store [F^T; ||x||^2] gives ||x||^2 - 2 q.x, the squared distance less
    the per-query constant ||q||^2. The first 16·m approximations of a
    row (m = n // 16) are viewed as 16 slabs of m; the minimum across the
    slabs at each of the m positions is the approximation of a different
    instance, so the k-th smallest of the m minima bounds the row's k-th
    smallest approximation from above. A store of fewer than 16·k rows is
    one slab, whose minima are the row itself, so the bound is exact.
    Every instance within a rounding margin of the bound is shortlisted,
    and the shortlist is re-ranked by exact distance in a padded (block,
    longest shortlist) matrix.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise DataError(f"queries must be 2-D, got shape {queries.shape}")
    n, d = store.features.shape
    if queries.shape[1] != d:
        raise DataError(f"query has {queries.shape[1]} dims, store has {d}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    k = min(k, n)
    x_sq = np.einsum("ij,ij->i", store.features, store.features)
    augmented = np.vstack([store.features.T, x_sq])     # (d + 1, n)
    # Shortlist margin M, with S = ||q||^2 + ||x||^2 and u = eps / 2, to
    # first order, and kth the k-th smallest approximation of a query. The
    # computed ||x||^2 carries its own rounding, within d·u·||x||^2. The
    # product sums d + 1 terms: -2q_i·x_i (scaling by -2 is exact) and
    # ||x||^2 times 1. Their magnitudes add up to at most
    # 2·sum|q_i·x_i| + ||x||^2 <= 2S, so the sum adds at most (d + 1)·u·2S. Each
    # approximation is thus within (1.5d + 1)·eps·S of ||x||^2 - 2 q.x,
    # the true squared distance less ||q||^2, which is the same for every
    # instance of a query and so does not change the order. The exact
    # re-rank's sum of squared differences is within (d + 2)·eps·S of the
    # true squared distance. So the k smallest approximations belong to
    # instances whose re-rank value is at most kth + ||q||^2 +
    # (2.5d + 3)·eps·S, and an instance that ties or beats the k-th
    # re-ranked distance has an approximation of at most kth +
    # (5d + 6)·eps·S, plus a few eps·S for the square root and for
    # rounding the bound itself. With M = 4·(d + 4)·eps·(||q||^2 +
    # max ||x||^2), 2M = (8d + 32)·eps·max S covers this with room to
    # spare; the subnormal term covers products that underflow. The slab
    # bound is at least kth, so it shortlists a superset. A query with
    # 4·(||q||^2 + max ||x||^2) finite has every term, partial sum and
    # bound finite.
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    x_sq_max = x_sq.max()
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    dist = np.empty((queries.shape[0], k))
    step = max(1, _BLOCK_CELLS // n)
    # with n < 16·k one slab, the whole row, gives the exact k-th smallest;
    # between 2 and 15 slabs of about k rows would bound it loosely
    slabs = _SLABS if n >= _SLABS * k else 1
    m = n // slabs                                        # >= k
    block = np.empty((min(step, queries.shape[0]), n))    # reused by every block
    for start in range(0, queries.shape[0], step):
        q = queries[start:start + step]
        b = q.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            q_sq = np.einsum("ij,ij->i", q, q)
            approx = np.matmul(np.hstack([-2.0 * q, np.ones((b, 1))]), augmented, out=block[:b])
            minima = approx[:, :slabs * m].reshape(b, slabs, m).min(axis=1)
            kth = np.partition(minima, k - 1, axis=1)[:, k - 1]
            bound = kth + 8 * (d + 4) * (eps * (q_sq + x_sq_max) + tiny)
            shortlist = approx <= bound[:, None]
            # values beyond ~1e154 overflow when squared; such rows scan everything
            shortlist[~np.isfinite(4 * (q_sq + x_sq_max))] = True
        # hits come ordered by query, then by ascending instance index; 2-D
        # np.nonzero gives the same arrays but is ~15x slower on this mask
        rows, cols = np.divmod(np.flatnonzero(shortlist), n)
        exact = np.empty(cols.shape[0])
        # a block of full scans (after an overflow) re-ranks every row: take
        # its differences in slices of at most about _BLOCK_CELLS values
        chunk = max(1, _BLOCK_CELLS // max(d, 1))
        for s in range(0, cols.shape[0], chunk):
            diffs = store.features[cols[s:s + chunk]] - q[rows[s:s + chunk]]
            exact[s:s + chunk] = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        pos = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        padded = np.full((b, pos.max() + 1), np.inf)
        padded[rows, pos] = exact
        members = np.zeros(padded.shape, dtype=np.intp)
        members[rows, pos] = cols
        # a padded row was shortlisted, so its hits are finite and sort ahead
        # of the inf padding; a row that scans everything has no padding
        order = np.argsort(padded, axis=1, kind="stable")[:, :k]
        idx[start:start + b] = np.take_along_axis(members, order, axis=1)
        dist[start:start + b] = np.take_along_axis(padded, order, axis=1)
    return idx, dist


def predict_knn_batch(store: InstanceStore, queries: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """Predict one target vector per row of a query matrix.

    For each query the min(k, |store|) nearest instances by Euclidean
    distance (``neighbours``) vote with weight source_weight / distance;
    ties at equal distance prefer the earlier-inserted instance. If any
    selected neighbor sits at distance exactly 0, the prediction is the
    source-weighted mean of the zero-distance instances alone.
    """
    idx, dist = neighbours(store, queries, cfg.k)
    # zero-distance hits lead each row; summing only that prefix keeps the
    # grouping numpy's pairwise sum gives to a vote of just those instances
    zeros = np.count_nonzero(dist == 0.0, axis=1)
    out = np.empty((idx.shape[0], store.targets.shape[1]))
    far = zeros == 0
    out[far] = _weighted_mean(store.weights[idx[far]] / dist[far], store.targets[idx[far]])
    for z in np.unique(zeros[~far]):
        near = zeros == z
        out[near] = _weighted_mean(store.weights[idx[near, :z]], store.targets[idx[near, :z]])
    return out


def _weighted_mean(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row means of ``y`` (r, c, m) weighted by ``w`` (r, c); one voter gives its target."""
    if w.shape[1] == 1:
        return y[:, 0]
    return (w[:, :, None] * y).sum(axis=1) / w.sum(axis=1)[:, None]
