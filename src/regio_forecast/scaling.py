"""Column and row scaling transforms for the monitoring pipeline.

Two transforms are provided:

* a quantile-normal scaler that maps each feature column through its
  empirical CDF at min(1000, row count) landmarks, clips the probability
  to [CDF_CLIP_LO, CDF_CLIP_HI] and applies the standard-normal quantile
  function (``scipy.special.ndtri``), so a skewed training column comes
  out approximately N(0, 1);
* row-wise L2 normalization, so every sample becomes a unit vector (an
  all-zero row stays zero).

The quantile scaler is fitted on training rows only and is immutable
afterwards; applying it to new data never refits anything. Targets are not
scaled: the kNN vote is a weighted mean of stored counts, which commutes
with any per-column affine map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DataError

# Probabilities are clipped away from {0, 1} before the normal quantile
# function so outputs stay finite.
CDF_CLIP_LO = 1e-7
CDF_CLIP_HI = 1.0 - 1e-7


@dataclass(frozen=True)
class QuantileNormalScaler:
    """Fitted state of the quantile-to-normal feature transform.

    ``landmarks[j]`` holds the empirical quantiles of training column j at
    ``n_quantiles`` equally spaced probabilities in [0, 1]; they are the
    interpolation nodes of the training CDF estimate.
    """

    column_codes: tuple[str, ...]
    landmarks: np.ndarray          # (n_columns, n_quantiles), each row sorted

    def __post_init__(self):
        lm = np.ascontiguousarray(self.landmarks, dtype=np.float64)
        if lm.ndim != 2 or lm.shape[0] != len(self.column_codes):
            raise DataError("landmark array shape does not match column codes")
        if lm.shape[1] < 2:
            raise DataError("at least 2 quantile landmarks per column are required")
        if np.any(lm[:, 1:] < lm[:, :-1]):       # compared in place, with no float temporary
            raise DataError("landmarks must be sorted non-decreasing per column")
        lm.setflags(write=False)
        object.__setattr__(self, "landmarks", lm)

    @property
    def n_quantiles(self) -> int:
        return self.landmarks.shape[1]

    @property
    def probabilities(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_quantiles)


def fit_quantile_scaler(values: np.ndarray, codes: Sequence[str]) -> QuantileNormalScaler:
    """Fit per-column quantile landmarks on training ``values``, whose columns ``codes`` name.

    Landmarks are the empirical quantiles at min(1000, row count) equally
    spaced probabilities, computed with linear interpolation between order
    statistics.
    """
    values = np.asarray(values, dtype=np.float64)
    n_rows = values.shape[0]
    if n_rows < 2:
        raise DataError(f"need at least 2 training rows to fit quantiles, got {n_rows}")
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"non-finite value at row {i}, column {codes[j]!r}")
    probs = np.linspace(0.0, 1.0, min(1000, n_rows))
    landmarks = linear_quantiles(np.sort(values, axis=0), probs).T
    return QuantileNormalScaler(column_codes=tuple(codes), landmarks=landmarks)


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


def _empirical_cdf(landmarks: np.ndarray, probs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolated training CDF for one column.

    Values are clipped to the landmark range first. A value equal to one
    or more landmarks maps to the mean probability of the tied block;
    anywhere else the CDF is linear between the bracketing landmarks.
    The landmarks are searched for the values in sorted order, which is
    faster, and the results are put back in the order of ``x``; each
    value's arithmetic does not depend on the order.
    """
    order = np.argsort(x)
    x = np.clip(x[order], landmarks[0], landmarks[-1])
    lo = np.searchsorted(landmarks, x, side="left")
    hi = np.searchsorted(landmarks, x, side="right")
    p = np.empty_like(x, dtype=np.float64)

    exact = hi > lo
    if np.any(exact):
        # probs is an arithmetic sequence, so the block mean is the mean
        # of its first and last entries.
        p[exact] = 0.5 * (probs[lo[exact]] + probs[hi[exact] - 1])
    interp = ~exact
    if np.any(interp):
        idx = lo[interp]            # in [1, n-1]: x strictly inside a segment
        x0 = landmarks[idx - 1]
        x1 = landmarks[idx]
        t = (x[interp] - x0) / (x1 - x0)
        p[interp] = probs[idx - 1] + t * (probs[idx] - probs[idx - 1])
    out = np.empty_like(p)
    out[order] = p
    return out


def apply_quantile_scaler(scaler: QuantileNormalScaler, values: np.ndarray) -> np.ndarray:
    """Map each column through the fitted CDF and the normal quantile function (ndtri).

    ``values`` has one column per fitted column, in the scaler's order.
    Out-of-range values are clipped to the training range before mapping,
    and CDF outputs are clipped to [CDF_CLIP_LO, CDF_CLIP_HI] so results
    stay finite.
    A column that was constant at fit time maps to 0 everywhere.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(scaler.column_codes):
        raise DataError(f"values of shape {values.shape} do not match "
                        f"fitted columns {scaler.column_codes}")
    probs = scaler.probabilities
    p = np.empty(values.shape)
    for j in range(values.shape[1]):
        p[:, j] = _empirical_cdf(scaler.landmarks[j], probs, values[:, j])
    return ndtri(np.clip(p, CDF_CLIP_LO, CDF_CLIP_HI, out=p), out=p)


# Inside this range the plain sum of squares neither overflows nor loses
# precision to subnormal numbers, so rows there are divided by it directly.
SAFE_NORM_RANGE = (1e-100, 1e100)


def l2_normalize_rows(values: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; all-zero rows stay zero.

    A row whose plain norm falls outside SAFE_NORM_RANGE is first divided
    by its largest absolute value, which keeps its direction.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):   # an overflowing row is rescaled below
        norms = np.linalg.norm(values, axis=1)
    unsafe = ~((norms > SAFE_NORM_RANGE[0]) & (norms < SAFE_NORM_RANGE[1]))
    if np.any(unsafe):
        values = values.copy()
        peak = np.abs(values[unsafe]).max(axis=1, keepdims=True)
        values[unsafe] /= np.where(peak > 0.0, peak, 1.0)
        norms[unsafe] = np.linalg.norm(values[unsafe], axis=1)
    return values / np.where(norms == 0.0, 1.0, norms)[:, None]
