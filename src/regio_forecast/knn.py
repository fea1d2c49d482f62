"""Distance-weighted k-nearest-neighbor multi-output regression over plain arrays.

The learner is instance-based: the training rows are the model, with no
fitting step, and a prediction is the inverse-distance-weighted mean of
the k nearest stored targets. The metric (Euclidean) and the vote
weighting (inverse distance) are fixed; only k is a parameter. Each
instance votes with a positive source weight. ``mtl.MtlModel`` owns and
checks the arrays; ``neighbours`` checks only what its search needs.

Neighbor search (``neighbours``) takes queries in blocks. One float32
matrix product of the augmented store [F, ||x||^2] with the queries
[-2q, 1] gives every approximate squared distance of a block, less each
query's own ||q||^2. Minima across 16 slabs of a query's approximations
bound its k-th smallest from above without partitioning them all. The
minima, not all n approximations, are compared with that bound plus a
float32 forward-error margin, and the slab values are read only where a
minimum passes; every instance within the margin is shortlisted. The
shortlists are packed into one padded matrix and ranked by exact float64
distance, computed as an exhaustive scan would compute it, so neighbors,
distances and ties match the scan bit for bit. ``predict_knn_batch`` is
one vectorized vote over the resulting (queries, k) arrays. The test
suite holds a plain-loop oracle of the same contract that validates the
predictor.

A query equal to a stored row, up to signed zero and coordinates below
2^-484, is answered without the scan. Its zero-distance instances decide
its vote, and a zero distance needs equal row keys (``_row_hashes``), so
``predict_knn_batch`` looks each query's hash up among the store's and
checks the candidates' exact distances. Only the queries with no
instance at distance 0 go to ``neighbours``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, DataError


# Queries are handled in blocks of about this many float32 approximations
# (4 MB), so memory does not grow with the number of queries.
_BLOCK_CELLS = 2 ** 20

# The shortlist bound views each row of approximations as this many slabs
# and takes the minimum across them at every position (see neighbours).
_SLABS = 16

# Row keys read a coordinate below this magnitude as 0 (see _row_hashes).
_TINY = 2.0 ** -484


def _checked(features, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``features`` and ``queries`` as float64 arrays, once their shapes and ``k`` pass."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise DataError(f"features must be a non-empty 2-D array, got shape {features.shape}")
    if queries.ndim != 2:
        raise DataError(f"queries must be 2-D, got shape {queries.shape}")
    if queries.shape[1] != features.shape[1]:
        raise DataError(f"query has {queries.shape[1]} dims, store has {features.shape[1]}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return features, queries


def neighbours(features: np.ndarray, queries: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each query's k nearest rows of ``features``.

    Returns ``(idx, dist)``, both of shape ``(len(queries), min(k, n))``.
    Row i lists query i's neighbors by ascending Euclidean distance, ties
    going to the earlier-inserted (lower) index, and the distances are
    computed as an exhaustive scan computes them. So both arrays equal a
    stable sort of the full scan bit for bit.

    Per block of queries, one float32 matrix product of the augmented
    store [F, ||x||^2] with [-2q, 1] approximates ||x||^2 - 2 q.x, the
    squared distance less the per-query constant ||q||^2. The first 16·m
    approximations of a query (m = n // 16) are viewed as 16 slabs of m;
    the minimum across the slabs at each of the m positions is the
    approximation of a different instance, so the k-th smallest of the m
    minima bounds the query's k-th smallest approximation from above. A
    store of fewer than 16·k rows is one slab, whose minima are the
    approximations themselves, so the bound is exact. Every instance whose
    approximation lies within a float32 rounding margin of the bound is
    shortlisted: the m minima are compared with it, the 16 slab values are
    read only at the positions whose minimum passes (a slab value within
    the bound puts its minimum within it too), and the last n - 16·m
    instances are compared directly. The shortlist is re-ranked by exact
    float64 distance in a padded (block, longest shortlist) matrix.
    """
    features, queries = _checked(features, queries, k)
    n, d = features.shape
    k = min(k, n)
    x_sq = np.einsum("ij,ij->i", features, features)
    x_sq_max = x_sq.max()
    with np.errstate(over="ignore"):        # such stores scan everything (below)
        augmented = np.hstack([features, x_sq[:, None]]).astype(np.float32)   # (n, d + 1)
    # Shortlist margin M. Let u = 2^-24 and t = 2^-149 be float32's unit
    # roundoff and smallest subnormal, g_j = j·u / (1 - j·u), S = ||q||^2 +
    # max ||x||^2, and T = ||x||^2 - 2 q.x, the true squared distance less
    # ||q||^2 (the same for every instance of a query, so it does not change
    # the order). Rounding v to float32 moves it by at most u|v| + t/2, and
    # |v|·t <= u·v^2 + t^2/u.
    # - Inputs: -2q_i (exact in float64), x_i and ||x||^2 (within
    #   1.01·d·2^-53·||x||^2 in float64) are rounded to float32, so the exact
    #   product of the rounded factors is within 4u·sum|q_i x_i| + u||q||^2
    #   + 1.51u||x||^2 + t/2 <= 3.52u·S + t/2 of T, up to terms below t·2^-100.
    # - Sum: the d + 1 terms' magnitudes add up to at most 2S·(1 + 3u) + t/2.
    #   Any summation order, with or without FMA, adds at most g_{d+1} times
    #   that (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    #   Under gradual underflow each of the d products that rounds in the
    #   subnormal range adds at most t/2 more; sums that underflow are exact.
    # So each approximation is within E = (3.52u + 2(1 + 3u)·g_{d+1})·S +
    # (d + 1)(1 + g_{d+1})·t/2 of its T. The k instances behind the k
    # smallest slab minima have T <= kth + E, kth being the k-th smallest
    # minimum. The exact float64 re-rank (below) orders instances by true
    # squared distance up to e = (2d + 11)·2^-52·S. So an instance that ties
    # or beats the k-th re-ranked distance has T <= kth + E + e and an
    # approximation of at most kth + 2E + e. As g_{d+5} >= g_{d+1} + 4u, M =
    # 4·g_{d+5}·S + (d + 2)(1 + g_{d+5})·t·(1 + S) covers that, and the
    # rounding of the bound in float64 and then up to float32, while
    # g_{d+1} < 1/3. With 4S within float32 range every factor, product,
    # partial sum and bound is finite. A query beyond it (norms past about
    # 1e19), and every query of a store of 4 million or more columns, scans
    # every instance.
    u, t = 2.0 ** -24, float(np.finfo(np.float32).smallest_subnormal)
    g = (d + 5) * u / (1 - (d + 5) * u)
    limit = float(np.finfo(np.float32).max) if (d + 5) * u < 0.25 else -np.inf
    nq = queries.shape[0]
    idx = np.empty((nq, k), dtype=np.intp)
    dist = np.empty((nq, k))
    step = max(1, _BLOCK_CELLS // n)
    # with n < 16·k one slab, the whole row, gives the exact k-th smallest;
    # between 2 and 15 slabs of about k rows would bound it loosely
    slabs = _SLABS if n >= _SLABS * k else 1
    m = n // slabs                                        # >= k
    block = np.empty((n, min(step, nq)), dtype=np.float32)   # reused by every block
    rhs = np.ones((d + 1, min(step, nq)), dtype=np.float32)  # [-2q, 1]^T
    for start in range(0, nq, step):
        q = queries[start:start + step]
        b = q.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.einsum("ij,ij->i", q, q) + x_sq_max
            full = ~(4 * s <= limit)                      # NaN too
            rhs[:d, :b] = -2.0 * q.T
            # one column per query: the (n, b) product is the faster layout
            approx = np.matmul(augmented, rhs[:, :b], out=block[:, :b])
            minima = np.ascontiguousarray(approx[:slabs * m].reshape(slabs, m, b).min(axis=0).T)
            bound = np.partition(minima, k - 1, axis=1)[:, k - 1] + (
                4 * g * s + (d + 2) * (1 + g) * t * (1 + s))
            bound32 = np.nextafter(bound.astype(np.float32), np.float32(np.inf))  # rounded up
            bound32[full] = np.nan                        # shortlists nothing
            # read the 16 slab values only where the minimum passes
            rows, pos = np.divmod(np.flatnonzero(minima <= bound32[:, None]), m)
            cols = pos[:, None] + m * np.arange(slabs)
            hits = (rows[:, None] * n + cols)[approx[cols, rows[:, None]] <= bound32[rows, None]]
            tail_cols, tail_rows = np.nonzero(approx[slabs * m:] <= bound32)
            everything = (np.flatnonzero(full)[:, None] * n + np.arange(n)).ravel()
        # hits ordered by query, then by ascending instance index
        rows, cols = np.divmod(np.sort(np.concatenate(
            [hits, tail_rows * n + slabs * m + tail_cols, everything])), n)
        exact = _exact_distances(features, q, rows, cols)
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


def _exact_distances(features: np.ndarray, queries: np.ndarray,
                     rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Distance of instance ``cols[i]`` to query ``rows[i]``, as a full scan computes it.

    The differences are taken in slices of at most about _BLOCK_CELLS / 2
    float64 values, so a block of full scans keeps to the block budget.
    """
    exact = np.empty(cols.shape[0])
    chunk = max(1, _BLOCK_CELLS // (2 * max(features.shape[1], 1)))
    for s in range(0, cols.shape[0], chunk):
        diffs = features[cols[s:s + chunk]] - queries[rows[s:s + chunk]]
        exact[s:s + chunk] = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    return exact


def _row_hashes(x: np.ndarray) -> np.ndarray:
    """One uint64 per row of ``x``: rows at exact distance 0 from each other hash alike.

    A row's key is the float64 bits of its coordinates, with every |v| <
    2^-484 read as 0 (which also folds -0.0 into 0.0). Coordinates with
    different keys differ by at least 2^-537, whose square is at least
    2^-1074, the smallest subnormal, so their distance is never 0. The
    hash is a fixed random linear form of the keys, each folded onto its
    low half; rows that share a hash are only candidates, which
    ``_zero_distance_instances`` checks.
    """
    keys = np.where(np.abs(x) < _TINY, 0.0, x).view(np.uint64)
    keys ^= keys >> np.uint64(32)     # so the high bits also move the low ones
    return np.einsum("ij,j->i", keys, _multipliers(x.shape[1]))


@functools.cache
def _multipliers(d: int) -> np.ndarray:
    """The same d random uint64 factors on every call."""
    m = np.random.default_rng(0).integers(0, 2 ** 64, size=d, dtype=np.uint64, endpoint=False)
    m.setflags(write=False)
    return m


def _zero_distance_instances(features: np.ndarray, queries: np.ndarray,
                             k: int) -> tuple[np.ndarray, np.ndarray]:
    """Of the z instances at exact distance 0 from a query, the first min(k, z) by index.

    Returns ``(rows, cols)``: query ``rows[i]`` lies at distance 0 from
    instance ``cols[i]``, ordered by query, then by ascending index. A
    candidate shares the query's hash (``_row_hashes``) and is kept only
    where ``_exact_distances`` gives exactly 0.0. A stable argsort of the
    store's hashes is taken only when some query's hash is present; the
    candidates are checked for blocks of queries of about _BLOCK_CELLS.
    """
    none = np.empty(0, dtype=np.intp)
    stored = _row_hashes(features)
    wanted = _row_hashes(queries)
    ranked = np.sort(stored)
    found = ranked[np.searchsorted(ranked, wanted).clip(max=len(ranked) - 1)] == wanted
    asked = np.flatnonzero(found)
    if asked.size == 0:
        return none, none
    order = np.argsort(stored, kind="stable")           # equal hashes in index order
    lo = np.searchsorted(ranked, wanted[asked])
    counts = np.searchsorted(ranked, wanted[asked], side="right") - lo
    step = max(1, _BLOCK_CELLS // int(counts.max()))
    rows, cols = [none], [none]
    for s in range(0, asked.size, step):
        c = counts[s:s + step]
        r = np.repeat(asked[s:s + step], c)
        i = order[np.arange(r.size) + np.repeat(lo[s:s + step] - (np.cumsum(c) - c), c)]
        hit = _exact_distances(features, queries, r, i) == 0.0
        r, i = r[hit], i[hit]
        first = np.arange(r.size) - np.searchsorted(r, r) < k
        rows.append(r[first])
        cols.append(i[first])
    return np.concatenate(rows), np.concatenate(cols)


def predict_knn_batch(features: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                      queries: np.ndarray, k: int) -> np.ndarray:
    """Predict one target vector per row of a query matrix.

    For each query the min(k, n) nearest rows of ``features`` by Euclidean
    distance (``neighbours``) vote their ``targets`` with weight
    ``weights`` / distance; ties at equal distance prefer the
    earlier-inserted instance. If any selected neighbor sits at distance
    exactly 0, the prediction is the weighted mean of the zero-distance
    instances alone.

    Those instances are found first, without the scan: a query equal to a
    stored row (up to signed zero and coordinates below 2^-484) with z
    instances at distance 0 is voted from the first min(k, z) of them by
    index, which the scan's stable order would rank first. Only the
    queries with none go to ``neighbours``. The output equals a vote over
    ``neighbours`` for every query bit for bit.
    """
    features, queries = _checked(features, queries, k)
    rows, cols = _zero_distance_instances(features, queries, k)
    zeros = np.bincount(rows, minlength=queries.shape[0])
    out = np.empty((queries.shape[0], targets.shape[1]))
    far = np.flatnonzero(zeros == 0)
    if far.size:
        idx, dist = neighbours(features, queries[far], k)
        out[far] = _weighted_mean(weights[idx] / dist, targets[idx])
    # grouping by z keeps the grouping numpy's pairwise sum gives to a vote
    # of just those instances
    counts = zeros[rows]
    for z in np.unique(counts):
        voters = cols[counts == z].reshape(-1, z)
        out[zeros == z] = _weighted_mean(weights[voters], targets[voters])
    return out


def _weighted_mean(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row means of ``y`` (r, c, m) weighted by ``w`` (r, c); one voter gives its target."""
    if w.shape[1] == 1:
        return y[:, 0]
    return (w[:, :, None] * y).sum(axis=1) / w.sum(axis=1)[:, None]
