"""Independent reference implementations used to validate the package.

Everything here is deliberately written the slow, obvious way (loops,
bisection, direct formulas) with no code shared with the implementations
under test. The one exception, ``minmax_vote_oracle``, keeps an earlier
model's target scaling around the package's own vote.
"""

import csv
import datetime as dt
import math

import numpy as np

from regio_forecast.errors import DataError
from regio_forecast.features import TARGET_COLUMNS
from regio_forecast.ingest import CATEGORICAL_RANGES, CSV_HEADER, MAX_COUNT
from regio_forecast.knn import InstanceStore, KnnConfig, predict_knn_batch


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


def minmax_vote_oracle(store: InstanceStore, queries: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """The vote as models with min-max scaled targets gave it.

    Scale each stored target column onto [0, 1] by its minimum and maximum
    (a constant column maps to 0), vote with ``predict_knn_batch``, invert
    the scaling, then floor at 0.
    """
    lo, hi = store.targets.min(axis=0), store.targets.max(axis=0)
    span = hi - lo
    varies = span > 0
    scaled = np.zeros_like(store.targets)
    scaled[:, varies] = (store.targets[:, varies] - lo[varies]) / span[varies]
    scaled_store = InstanceStore(store.features, scaled, store.source_tags, store.weights)
    votes = predict_knn_batch(scaled_store, queries, cfg)
    return np.maximum(votes * span + lo, 0.0)


def metric_oracle(name: str, y, y_hat) -> float:
    """r2, evs, mae or rmse of two equal-length sequences, by Python sums.

    r2 and evs are NaN when the actuals are all equal.
    """
    y = [float(v) for v in y]
    res = [a - float(b) for a, b in zip(y, y_hat)]
    n = len(y)
    if name == "mae":
        return sum(abs(r) for r in res) / n
    if name == "rmse":
        return math.sqrt(sum(r * r for r in res) / n)
    if all(v == y[0] for v in y):
        return math.nan
    mean_y = sum(y) / n
    ss_tot = sum((v - mean_y) ** 2 for v in y)
    if name == "r2":
        return 1.0 - sum(r * r for r in res) / ss_tot
    mean_r = sum(res) / n
    return 1.0 - sum((r - mean_r) ** 2 for r in res) / ss_tot   # evs; the 1/n cancels


def cell_problem(code: str, value, region) -> str | None:
    """Why ``value`` is invalid in column ``code`` of a ``region`` dataset, or None."""
    if not math.isfinite(value):
        return f"{value} is not finite"
    allowed = CATEGORICAL_RANGES.get(code)
    if allowed is not None and (value != int(value) or int(value) not in allowed):
        return f"{value} not in enumerated range {sorted(allowed)}"
    if code == "feat_04" and value != region.code:
        return f"region code {int(value)} does not match {region.name} ({region.code})"
    if code == "feat_11" and (value != int(value) or not 1 <= value <= MAX_COUNT):
        return f"{value} is not a health centre count in [1, {MAX_COUNT}]"
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


def read_csv_oracle(path, region):
    """(dates, features, targets) of a regional CSV with a valid header, sorted by date.

    Reads cell by cell with ``float`` and raises DataError with the
    parser's message at the first of: a text fault (cell count, date or
    number syntax; blank rows are skipped but keep their row number) in
    row-major order; after a stable sort by date, an empty cell on the
    earliest date, which has no previous day to take its value from; the
    first invalid cell by date, named by its file row; a repeated date.
    """
    def fault(row, column, detail):
        detail = f": {detail}" if detail else ""
        return DataError(f"{path}: bad value at row {row}, column {column!r}{detail}")

    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = list(csv.reader(fh))[1:]
    days = []                                   # (date, file row, cells or None when empty)
    for number, record in enumerate(records, start=1):
        if all(cell.strip() == "" for cell in record):
            continue
        if len(record) != len(CSV_HEADER):
            raise fault(number, "row", f"expected {len(CSV_HEADER)} cells, got {len(record)}")
        try:
            date = dt.date.fromisoformat(record[0].strip())
        except ValueError:
            raise fault(number, "date", record[0]) from None
        cells = []
        for code, text in zip(CSV_HEADER[1:], record[1:]):
            text = text.strip()
            if text == "":
                cells.append(None)
                continue
            try:
                cells.append(float(text))
            except ValueError:
                raise fault(number, code, text) from None
        days.append((date, number, cells))
    if not days:
        raise DataError(f"{path}: header but no data rows")
    days = sorted(days, key=lambda day: day[0])
    for i, (_, number, cells) in enumerate(days):
        for j, code in enumerate(CSV_HEADER[1:]):
            if cells[j] is None and i == 0:
                raise fault(number, code,
                            "missing cell on the earliest date (nothing to forward-fill)")
            if cells[j] is None:
                cells[j] = days[i - 1][2][j]
    values = np.array([cells for _, _, cells in days])
    n_features = len(CSV_HEADER) - 1 - len(TARGET_COLUMNS)
    bad = first_bad_cell(values[:, :n_features], values[:, n_features:], region)
    if bad is not None:
        row, code, detail = bad
        raise fault(days[row][1], code, detail)
    for (a, _, _), (b, _, _) in zip(days, days[1:]):
        if a == b:
            raise DataError(f"{path}: duplicate date in dataset: {a}")
    return [date for date, _, _ in days], values[:, :n_features], values[:, n_features:]


def write_csv_oracle(ds, path):
    """Write a dataset with ``csv.writer``, row by row, in the ingest schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for date, features, targets in zip(ds.dates, ds.features.tolist(),
                                           ds.targets.tolist()):
            writer.writerow([date.isoformat()] + [repr(v) for v in features] + targets)


def ppe_kits_oracle(hospitalized: float, chc_count: float, capacity: float,
                    personnel: float) -> float:
    """One day's kit demand, branch by branch in plain floats."""
    ratio = hospitalized / chc_count
    ceiling = capacity * personnel
    if ratio > 1.0:
        return ceiling * 1.0
    return ceiling * ratio
