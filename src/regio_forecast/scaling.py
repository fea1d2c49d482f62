"""Column and row scaling transforms for the monitoring pipeline.

Two transforms are provided:

* a quantile-normal scaler that maps each feature column through its
  empirical CDF at min(1000, row count) landmarks, clips the probability
  to [CDF_CLIP_LO, CDF_CLIP_HI] and applies the standard-normal quantile
  function (``scipy.special.ndtri``), so a skewed training column comes
  out approximately N(0, 1);
* row-wise L2 normalization, so every sample becomes a unit vector (an
  all-zero row stays zero).

The quantile scaler's fitted state is one read-only (columns, landmarks)
array, fitted on training rows only; ``checked_landmarks`` holds its
rules, and applying it to new data never refits anything. Applying it
finds each value's landmark with one left search; a value tied with
landmarks reads its block's mean probability from a per-column table
that the landmarks alone determine. Targets are not
scaled: the kNN vote is a weighted mean of stored counts, which commutes
with any per-column affine map.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DataError, as_array

# Probabilities are clipped away from {0, 1} before the normal quantile
# function so outputs stay finite.
CDF_CLIP_LO = 1e-7
CDF_CLIP_HI = 1.0 - 1e-7


def checked_landmarks(landmarks: np.ndarray, n_columns: int | None = None) -> np.ndarray:
    """``landmarks`` as a C-contiguous float64 array, after checking the landmark rules.

    The array is 2-D with one row per column (``n_columns`` rows, when
    given), each row holds at least 2 landmarks and is sorted
    non-decreasing. DataError names the first rule broken.
    """
    lm = as_array(landmarks, "landmarks", "biuf", dtype=np.float64)
    if lm.ndim != 2 or n_columns not in (None, lm.shape[0]):
        raise DataError("landmark array shape does not match column codes")
    if lm.shape[1] < 2:
        raise DataError("at least 2 quantile landmarks per column are required")
    if np.any(lm[:, 1:] < lm[:, :-1]):       # compared in place, with no float temporary
        raise DataError("landmarks must be sorted non-decreasing per column")
    return lm


def fit_quantile_scaler(values: np.ndarray, codes: Sequence[str]) -> np.ndarray:
    """Per-column quantile landmarks of training ``values``, whose columns ``codes`` name.

    Row j of the read-only (len(codes), min(1000, rows)) result holds the
    empirical quantiles of column j at equally spaced probabilities in
    [0, 1], computed with linear interpolation between order statistics;
    they are the interpolation nodes of the training CDF estimate.
    """
    values = as_array(values, "values", "biuf", 2, np.float64)
    n_rows = values.shape[0]
    if n_rows < 2:
        raise DataError(f"need at least 2 training rows to fit quantiles, got {n_rows}")
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"non-finite value at row {i}, column {codes[j]!r}")
    probs = np.linspace(0.0, 1.0, min(1000, n_rows))
    landmarks = np.ascontiguousarray(linear_quantiles(np.sort(values, axis=0), probs).T)
    landmarks.setflags(write=False)
    return landmarks


def linear_quantiles(ordered: np.ndarray, probs: np.ndarray,
                     counts: np.ndarray | None = None) -> np.ndarray:
    """``np.quantile(values, probs, axis=0)`` from the column-sorted values.

    Each column's quantiles are taken over its first ``counts[j]`` values
    (all rows by default), so NaN, which sorts last, can be left out.
    Uses numpy's default (linear) rule with its rounding: virtual index
    (n - 1)·p, then a + (b - a)·t, or b - (b - a)·(1 - t) where t >= 0.5.
    The values match np.quantile's to the bit (only a zero drawn from tied
    -0.0 and 0.0, or from a single -0.0, may carry the other sign), without
    a partition per probability.
    """
    n = np.atleast_1d(ordered.shape[0] if counts is None else counts)
    virtual = np.multiply.outer(probs, n - 1)               # (probs, 1) or (probs, columns)
    lo = np.clip(np.floor(virtual), 0, np.maximum(n - 2, 0)).astype(np.intp)
    t = virtual - lo
    a = np.take_along_axis(ordered, lo, axis=0)
    b = np.take_along_axis(ordered, np.minimum(lo + 1, n - 1), axis=0)
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _tie_probabilities(landmarks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per column, the mean probability of the tied block that starts at each landmark.

    Entry (j, i) is the mean of ``probs`` over the landmarks of column j
    equal to landmark i from i on; ``probs`` is an arithmetic sequence, so
    that is the mean of the block's first and last entries.
    """
    n = landmarks.shape[1]
    block_end = np.full(landmarks.shape, n - 1)
    block_end[:, :-1] = np.where(landmarks[:, 1:] != landmarks[:, :-1], np.arange(n - 1), n - 1)
    last = np.minimum.accumulate(block_end[:, ::-1], axis=1)[:, ::-1]
    return 0.5 * (probs + probs[last])


def _empirical_cdf(landmarks: np.ndarray, probs: np.ndarray, tie_probs: np.ndarray,
                   x: np.ndarray, column: int) -> np.ndarray:
    """Interpolated training CDF for the values ``x`` of column ``column``.

    A NaN, which sorts last, is refused naming its row and the column.
    Other values are clipped to the landmark range first. A value equal
    to one or more landmarks maps to the mean probability of the tied
    block, read from ``tie_probs`` at the block's first landmark; anywhere
    else the CDF is linear between the bracketing landmarks. One left
    search finds both. The landmarks are searched for the values in sorted
    order, which is faster, and the results are put back in the order of
    ``x``; each value's arithmetic does not depend on the order.
    """
    order = np.argsort(x)
    x = np.clip(x[order], landmarks[0], landmarks[-1])     # a NaN stays NaN
    if len(x) and np.isnan(x[-1]):
        raise DataError(f"value at row {order[np.isnan(x)].min()}, column {column} is NaN")
    lo = np.searchsorted(landmarks, x, side="left")         # x <= landmarks[-1], so lo < n
    p = tie_probs[lo]
    interp = landmarks[lo] != x
    if np.any(interp):
        idx = lo[interp]            # in [1, n-1]: x strictly inside a segment
        x0 = landmarks[idx - 1]
        x1 = landmarks[idx]
        t = (x[interp] - x0) / (x1 - x0)
        p[interp] = probs[idx - 1] + t * (probs[idx] - probs[idx - 1])
    out = np.empty_like(p)
    out[order] = p
    return out


def apply_quantile_scaler(landmarks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Map each column through the fitted CDF and the normal quantile function (ndtri).

    ``landmarks`` is ``fit_quantile_scaler``'s array, checked by
    ``checked_landmarks``; ``values`` has one column per landmark row, in
    its order. Out-of-range values, ±inf included, are clipped to the
    training range before mapping, and CDF outputs are clipped to
    [CDF_CLIP_LO, CDF_CLIP_HI] so results stay finite; a NaN raises
    DataError naming its row and column index.
    A column that was constant at fit time maps to 0 everywhere.
    """
    landmarks = checked_landmarks(landmarks)
    values = as_array(values, "values", "biuf", dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(landmarks):
        raise DataError(f"values of shape {values.shape} do not match "
                        f"fitted column count {len(landmarks)}")
    probs = np.linspace(0.0, 1.0, landmarks.shape[1])
    tie_probs = _tie_probabilities(landmarks, probs)
    p = np.empty(values.shape)
    for j in range(values.shape[1]):
        p[:, j] = _empirical_cdf(landmarks[j], probs, tie_probs[j], values[:, j], j)
    return ndtri(np.clip(p, CDF_CLIP_LO, CDF_CLIP_HI, out=p), out=p)


# Inside this range the plain sum of squares neither overflows nor loses
# precision to subnormal numbers, so rows there are divided by it directly.
SAFE_NORM_RANGE = (1e-100, 1e100)


def l2_normalize_rows(values: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; all-zero rows stay zero.

    A row whose plain norm falls outside SAFE_NORM_RANGE is first divided
    by its largest absolute value, which keeps its direction.
    """
    values = as_array(values, "values", "biuf", 2, np.float64)
    with np.errstate(over="ignore"):   # an overflowing row is rescaled below
        norms = np.linalg.norm(values, axis=1)
    unsafe = ~((norms > SAFE_NORM_RANGE[0]) & (norms < SAFE_NORM_RANGE[1]))
    if np.any(unsafe):
        values = values.copy()
        peak = np.abs(values[unsafe]).max(axis=1, keepdims=True)
        values[unsafe] /= np.where(peak > 0.0, peak, 1.0)
        norms[unsafe] = np.linalg.norm(values[unsafe], axis=1)
    return values / np.where(norms == 0.0, 1.0, norms)[:, None]
