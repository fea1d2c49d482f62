"""Independent reference implementations used to validate the package.

Everything here is deliberately written the slow, obvious way (loops,
bisection, direct formulas) with no code shared with the implementations
under test.
"""

import math

import numpy as np

from regio_forecast.errors import DataError
from regio_forecast.features import TARGET_COLUMNS
from regio_forecast.ingest import CATEGORICAL_RANGES, CSV_HEADER, MAX_COUNT
from regio_forecast.knn import InstanceStore, KnnConfig


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisection_normal_ppf(p: float, lo: float = -13.0, hi: float = 13.0,
                         iters: int = 200) -> float:
    """Solve normal_cdf(x) >= p by bisection; accurate far below 1e-10."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) >= p:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def interp_quantile(sorted_values: np.ndarray, p: float) -> float:
    """Linear-interpolated empirical quantile of pre-sorted data."""
    n = len(sorted_values)
    h = p * (n - 1)
    lo = int(math.floor(h))
    if lo >= n - 1:
        return float(sorted_values[-1])
    frac = h - lo
    return float(sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo]))


def empirical_cdf_prob(sorted_values: np.ndarray, x: float) -> float:
    """Midpoint-rank empirical CDF of pre-sorted data, in [0, 1]."""
    n = len(sorted_values)
    below = int(np.searchsorted(sorted_values, x, side="left"))
    tied = int(np.searchsorted(sorted_values, x, side="right")) - below
    if tied > 0:
        # mean rank of the tied block, scaled onto [0, 1]
        ranks = [(below + j) / (n - 1) for j in range(tied)]
        return float(np.mean(ranks))
    if below == 0:
        return 0.0
    if below == n:
        return 1.0
    x0, x1 = sorted_values[below - 1], sorted_values[below]
    t = (x - x0) / (x1 - x0)
    return ((below - 1) + t) / (n - 1)


def knn_oracle(store: InstanceStore, query: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """Reference kNN predictor: exhaustive scan with an explicit exact sort.

    Implements, for one query, the same contract as
    ``regio_forecast.knn.predict_knn_batch`` with no shared code path, so the
    two can cross-check each other.
    """
    query = [float(v) for v in np.asarray(query).ravel()]
    if len(query) != store.dimension:
        raise DataError(
            f"query has {len(query)} dims, store has {store.dimension}")
    distances = []
    for i in range(len(store)):
        s = 0.0
        for a, b in zip(store.features[i], query):
            s += (float(a) - b) ** 2
        distances.append(math.sqrt(s))

    k = min(cfg.k, len(store))
    ranked = sorted(range(len(store)), key=lambda i: (distances[i], i))[:k]

    m = store.targets.shape[1]
    exact = [i for i in ranked if distances[i] == 0.0]
    if exact:
        if len(exact) == 1:
            return np.array([float(store.targets[exact[0], j]) for j in range(m)])
        total_w = sum(float(store.weights[i]) for i in exact)
        return np.array([
            sum(float(store.weights[i]) * float(store.targets[i, j]) for i in exact) / total_w
            for j in range(m)
        ])
    if len(ranked) == 1:
        return np.array([float(store.targets[ranked[0], j]) for j in range(m)])
    total_w = sum(float(store.weights[i]) / distances[i] for i in ranked)
    return np.array([
        sum((float(store.weights[i]) / distances[i]) * float(store.targets[i, j])
            for i in ranked) / total_w
        for j in range(m)
    ])


def cell_problem(code: str, value, region) -> str | None:
    """Why ``value`` is invalid in column ``code`` of a ``region`` dataset, or None."""
    if not math.isfinite(value):
        return f"{value} is not finite"
    allowed = CATEGORICAL_RANGES.get(code)
    if allowed is not None and (value != int(value) or int(value) not in allowed):
        return f"{value} not in enumerated range {sorted(allowed)}"
    if code == "feat_04" and value != region.code:
        return f"region code {int(value)} does not match {region.name} ({region.code})"
    if code in TARGET_COLUMNS:
        if value != int(value) or value > MAX_COUNT:
            return f"{value} is not an integer count up to {MAX_COUNT}"
        if value < 0:
            return f"{value} is negative"
    return None


def first_bad_cell(features, targets, region):
    """(row, column code, detail) of the first invalid cell, scanning row by row."""
    for row, cells in enumerate(np.hstack([features, targets]).tolist()):
        for code, value in zip(CSV_HEADER[1:], cells):
            problem = cell_problem(code, value, region)
            if problem:
                return row, code, problem
    return None
