"""Independent reference implementations used to validate the package.

Everything here is deliberately written the slow, obvious way (loops,
bisection, direct formulas) with no code shared with the implementations
under test. The one exception, ``minmax_vote_oracle``, keeps an earlier
model's target scaling around the package's own vote.
"""

import bisect
import csv
import datetime as dt
import json
import math
from pathlib import Path

import numpy as np

from regio_forecast.errors import DataError
from regio_forecast.evaluation import METRIC_FUNCTIONS
from regio_forecast.features import TARGET_COLUMNS
from regio_forecast.ingest import CATEGORICAL_RANGES, CSV_HEADER, MAX_COUNT
from regio_forecast.knn import predict_knn_batch


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


def landmark_cdf_oracle(landmarks, probs, x: float) -> float:
    """The quantile scaler's interpolated CDF at one value, with ``bisect``.

    ``x`` is clipped to the landmark range. A value equal to landmarks
    takes the mean of the first and last tied probabilities; any other
    value is interpolated linearly between the bracketing landmarks.
    """
    landmarks, probs = [float(v) for v in landmarks], [float(p) for p in probs]
    x = min(max(x, landmarks[0]), landmarks[-1])
    lo, hi = bisect.bisect_left(landmarks, x), bisect.bisect_right(landmarks, x)
    if hi > lo:
        return 0.5 * (probs[lo] + probs[hi - 1])
    t = (x - landmarks[lo - 1]) / (landmarks[lo] - landmarks[lo - 1])
    return probs[lo - 1] + t * (probs[lo] - probs[lo - 1])


def knn_oracle(features: np.ndarray, targets: np.ndarray, weights: np.ndarray,
               query: np.ndarray, k: int) -> np.ndarray:
    """Reference kNN predictor: exhaustive scan with an explicit exact sort.

    Implements, for one query, the same contract as
    ``regio_forecast.knn.predict_knn_batch`` with no shared code path, so the
    two can cross-check each other.
    """
    query = [float(v) for v in np.asarray(query).ravel()]
    n, dimension = features.shape
    if len(query) != dimension:
        raise DataError(
            f"query has {len(query)} dims, store has {dimension}")
    distances = []
    for i in range(n):
        s = 0.0
        for a, b in zip(features[i], query):
            s += (float(a) - b) ** 2
        distances.append(math.sqrt(s))

    k = min(k, n)
    ranked = sorted(range(n), key=lambda i: (distances[i], i))[:k]

    m = targets.shape[1]
    exact = [i for i in ranked if distances[i] == 0.0]
    if exact:
        if len(exact) == 1:
            return np.array([float(targets[exact[0], j]) for j in range(m)])
        total_w = sum(float(weights[i]) for i in exact)
        return np.array([
            sum(float(weights[i]) * float(targets[i, j]) for i in exact) / total_w
            for j in range(m)
        ])
    if len(ranked) == 1:
        return np.array([float(targets[ranked[0], j]) for j in range(m)])
    total_w = sum(float(weights[i]) / distances[i] for i in ranked)
    return np.array([
        sum((float(weights[i]) / distances[i]) * float(targets[i, j])
            for i in ranked) / total_w
        for j in range(m)
    ])


def minmax_vote_oracle(features: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                       queries: np.ndarray, k: int) -> np.ndarray:
    """The vote as models with min-max scaled targets gave it.

    Scale each stored target column onto [0, 1] by its minimum and maximum
    (a constant column maps to 0), vote with ``predict_knn_batch``, invert
    the scaling, then floor at 0.
    """
    lo, hi = targets.min(axis=0), targets.max(axis=0)
    span = hi - lo
    varies = span > 0
    scaled = np.zeros_like(targets)
    scaled[:, varies] = (targets[:, varies] - lo[varies]) / span[varies]
    votes = predict_knn_batch(features, scaled, weights, queries, k)
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


def bootstrap_oracle(actuals, predicted, replicates: int, seed: int):
    """{target: {metric: (low, mid, top, skipped)}} of a pairs bootstrap over days.

    ``actuals`` and ``predicted`` are (n, 4) in TARGET_COLUMNS order. One
    generator, seeded from the first SeedSequence child of ``seed``, draws
    the whole (replicates, n) index matrix at once; then one (target,
    metric) pair at a time, one metric call scores every gathered resample
    of it. NaN rows (constant actuals under r2 and evs) are skipped, and
    low/top are ``np.percentile``'s 2.5th and 97.5th percentiles of the
    rest. ``bootstrap_intervals`` scores the same resamples from their day
    counts, so mid, the skipped counts and the DataError raised at the
    first failing pair are equal, while low/top differ by the rounding of
    the regrouped sums.
    """
    actuals = np.asarray(actuals, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n = len(actuals)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    idx = rng.integers(0, n, size=(replicates, n), dtype=np.int32)
    alpha = 1.0 - 0.95                  # as the package rounds it
    result = {}
    for t, target in enumerate(TARGET_COLUMNS):
        y, y_hat = actuals[:, t].copy(), predicted[:, t].copy()
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
            raise DataError(f"{target}: metric inputs must be finite")
        result[target] = {}
        for name, metric in METRIC_FUNCTIONS.items():
            label = {"evs": "explained variance"}.get(name, name)
            mid = float(metric(y, y_hat))
            if math.isnan(mid):
                raise DataError(f"{target}: actuals are constant; {label} is undefined")
            values = metric(y[idx], y_hat[idx])
            values = values[~np.isnan(values)]
            if values.size == 0:
                raise DataError(f"{target}: all {replicates} bootstrap replicates had "
                                f"constant actuals; {label} is undefined")
            low, top = np.percentile(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
            result[target][name] = (float(low), mid, float(top), replicates - values.size)
    return result


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
    first invalid cell by date, named by its file row; a repeated date. A
    date is four, two and two ASCII digits joined by "-", padded or not,
    naming a day of ``datetime.date``.
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
        text = record[0].strip()
        try:
            if [len(part) for part in text.split("-")] != [4, 2, 2] or not all(
                    char in "0123456789" for char in text.replace("-", "")):
                raise ValueError(text)
            date = dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
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
        for date, features, targets in zip(ds.dates.tolist(), ds.features.tolist(),
                                           ds.targets.tolist()):
            writer.writerow([date.isoformat()] + [repr(v) for v in features] + targets)


def predictions_csv_oracle(dates, counts) -> str:
    """``predictions.csv`` text, value by value with f-strings and joins."""
    lines = ["date," + ",".join(TARGET_COLUMNS)
             + "," + ",".join(f"{t}_rounded" for t in TARGET_COLUMNS)]
    for date, day, rounded in zip(dates.tolist(), counts, np.rint(counts).astype(np.int64)):
        reals = ",".join(f"{v:.6f}" for v in day)
        ints = ",".join(str(int(v)) for v in rounded)
        lines.append(f"{date.isoformat()},{reals},{ints}")
    return "\n".join(lines) + "\n"


def ppe_csv_oracle(header: str, forecast) -> str:
    """``ppe_forecast.csv`` text, value by value with f-strings and joins."""
    lines = [header]
    for date, h, ratio, kits in zip(forecast.dates.tolist(),
                                    forecast.predicted_hospitalized.tolist(),
                                    forecast.hsp_ratio.tolist(), forecast.kits.tolist()):
        whole = ",".join([str(math.ceil(kits))] * 6)
        lines.append(f"{date.isoformat()},{h:.6f},{ratio:.6f},{kits:.6f},{whole}")
    return "\n".join(lines) + "\n"


def ppe_kits_oracle(hospitalized: float, chc_count: float, capacity: float,
                    personnel: float) -> float:
    """One day's kit demand, branch by branch in plain floats."""
    ratio = hospitalized / chc_count
    ceiling = capacity * personnel
    if ratio > 1.0:
        return ceiling * 1.0
    return ceiling * ratio


# the arrays of a version 6 model file, in file order, with their dtypes
ARTIFACT_ARRAYS = (("landmarks", "<f8"), ("features", "<f8"), ("targets", "<f8"),
                   ("source_tags", "<i8"))


def read_artifact_oracle(path):
    """The header and the writable arrays (by name) of a version 6 model file, sliced by hand."""
    data = Path(path).read_bytes()
    at = data.index(b"\n") + 1
    header = json.loads(data[:at])
    arrays = {}
    for name, dtype in ARTIFACT_ARRAYS:
        shape = header["shapes"][name]
        size = math.prod(shape) * 8
        arrays[name] = np.frombuffer(data[at:at + size], dtype=dtype).reshape(shape).copy()
        at += size
    assert at == len(data), "bytes after the last array"
    return header, arrays


def artifact_bytes_oracle(header, arrays) -> bytes:
    """A model file: ``header`` (a dict, or its JSON text) on one line, then ``arrays``."""
    text = header if isinstance(header, str) else json.dumps(header)
    return text.encode("utf-8") + b"\n" + b"".join(
        np.asarray(arrays[name], dtype=dtype).tobytes() for name, dtype in ARTIFACT_ARRAYS)
