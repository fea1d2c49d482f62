"""Column and row scaling transforms for the monitoring pipeline.

Three transforms are provided:

* a quantile-normal scaler that maps each feature column through its
  empirical CDF and then the standard-normal quantile function, so a
  skewed training column comes out approximately N(0, 1);
* row-wise L2 normalization, so every sample becomes a unit vector;
* per-column min-max scaling of the target counts onto the training
  [0, 1] range, with an inverse used to turn predictions back into counts.

Scalers are fitted on training rows only and are immutable afterwards;
applying them to new data never refits anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ColumnMismatch, EmptyMatrix, OutOfDomain, TooFewRows
from .features import FeatureMatrix, TargetMatrix

# Probabilities are clipped away from {0, 1} before the normal quantile
# function so outputs stay finite.
CDF_CLIP_LO = 1e-7
CDF_CLIP_HI = 1.0 - 1e-7


def inverse_normal_cdf(p: float) -> float:
    """Standard-normal quantile function Phi^-1(p) for 0 < p < 1.

    Uses Acklam's piecewise rational approximation; absolute error is
    below 1e-8 across the clipped probability range (validated in the
    test suite against a bisection oracle on the erf-based CDF).
    """
    if not 0.0 < p < 1.0:
        raise OutOfDomain(f"inverse normal CDF requires 0 < p < 1, got {p}")

    # Rational approximation coefficients (central region and tails).
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)

    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _inverse_normal_cdf_vec(p: np.ndarray) -> np.ndarray:
    return np.array([inverse_normal_cdf(float(v)) for v in p.ravel()]).reshape(p.shape)


@dataclass(frozen=True)
class QuantileNormalScaler:
    """Fitted state of the quantile-to-normal feature transform.

    ``landmarks[j]`` holds the empirical quantiles of training column j at
    ``n_quantiles`` equally spaced probabilities in [0, 1]; they are the
    interpolation nodes of the training CDF estimate.
    """

    column_codes: tuple[str, ...]
    landmarks: np.ndarray          # (n_columns, n_quantiles), each row sorted
    p_lo: float = CDF_CLIP_LO
    p_hi: float = CDF_CLIP_HI

    def __post_init__(self):
        lm = np.ascontiguousarray(self.landmarks, dtype=np.float64)
        if lm.ndim != 2 or lm.shape[0] != len(self.column_codes):
            raise ColumnMismatch("landmark array shape does not match column codes")
        if lm.shape[1] < 2:
            raise TooFewRows("at least 2 quantile landmarks per column are required")
        if np.any(np.diff(lm, axis=1) < 0):
            raise ColumnMismatch("landmarks must be sorted non-decreasing per column")
        if not 0.0 < self.p_lo < self.p_hi < 1.0:
            raise OutOfDomain("clip bounds must satisfy 0 < p_lo < p_hi < 1")
        lm.setflags(write=False)
        object.__setattr__(self, "landmarks", lm)

    @property
    def n_quantiles(self) -> int:
        return self.landmarks.shape[1]

    @property
    def probabilities(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_quantiles)

    def to_json_dict(self) -> dict:
        return {
            "column_codes": list(self.column_codes),
            "landmarks": [col.tolist() for col in self.landmarks],
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuantileNormalScaler":
        return cls(
            column_codes=tuple(d["column_codes"]),
            landmarks=np.asarray(d["landmarks"], dtype=np.float64),
            p_lo=float(d["p_lo"]),
            p_hi=float(d["p_hi"]),
        )


def fit_quantile_scaler(train: FeatureMatrix, n_quantiles: int | None = None) -> QuantileNormalScaler:
    """Fit per-column quantile landmarks on a training matrix.

    ``n_quantiles`` defaults to min(1000, row count). Landmarks are the
    empirical quantiles at equally spaced probabilities, computed with
    linear interpolation between order statistics.
    """
    n_rows = train.values.shape[0]
    if n_rows < 2:
        raise TooFewRows(f"need at least 2 training rows to fit quantiles, got {n_rows}")
    if n_quantiles is None:
        n_quantiles = min(1000, n_rows)
    if n_quantiles < 2:
        raise TooFewRows(f"n_quantiles must be >= 2, got {n_quantiles}")
    probs = np.linspace(0.0, 1.0, n_quantiles)
    landmarks = np.quantile(train.values, probs, axis=0).T  # (n_cols, n_quantiles)
    return QuantileNormalScaler(column_codes=train.column_codes, landmarks=landmarks)


def _empirical_cdf(landmarks: np.ndarray, probs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolated training CDF for one column.

    Values are clipped to the landmark range first. A value equal to one
    or more landmarks maps to the mean probability of the tied block;
    anywhere else the CDF is linear between the bracketing landmarks.
    """
    x = np.clip(x, landmarks[0], landmarks[-1])
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
    return p


def apply_quantile_scaler(scaler: QuantileNormalScaler, m: FeatureMatrix) -> FeatureMatrix:
    """Map each column through the fitted CDF and the normal quantile function.

    Out-of-range values are clipped to the training range before mapping,
    and CDF outputs are clipped to (p_lo, p_hi) so results stay finite.
    A column that was constant at fit time maps to 0 everywhere.
    """
    if m.column_codes != scaler.column_codes:
        raise ColumnMismatch(
            f"matrix columns {m.column_codes} do not match fitted columns {scaler.column_codes}")
    probs = scaler.probabilities
    out = np.empty_like(m.values)
    for j in range(m.values.shape[1]):
        p = _empirical_cdf(scaler.landmarks[j], probs, m.values[:, j])
        p = np.clip(p, scaler.p_lo, scaler.p_hi)
        out[:, j] = _inverse_normal_cdf_vec(p)
    return FeatureMatrix(out, m.column_codes)


@dataclass(frozen=True)
class UnitRowMatrix:
    """Matrix whose rows have unit Euclidean norm; all-zero rows are flagged."""

    values: np.ndarray
    zero_rows: np.ndarray          # boolean mask of rows left at zero
    column_codes: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        z = np.asarray(self.zero_rows, dtype=bool)
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms[~z] - 1.0) > 1e-9):
            raise ColumnMismatch("non-flagged rows must have unit norm")
        v.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "zero_rows", z)


# Inside this range the plain sum of squares neither overflows nor loses
# precision to subnormal numbers, so rows there are divided by it directly.
SAFE_NORM_RANGE = (1e-100, 1e100)


def l2_normalize_rows(m: FeatureMatrix | np.ndarray) -> UnitRowMatrix:
    """Divide each row by its Euclidean norm; all-zero rows stay zero and are flagged.

    A row whose plain norm falls outside SAFE_NORM_RANGE is first divided
    by its largest absolute value, which keeps its direction.
    """
    if isinstance(m, FeatureMatrix):
        values, codes = m.values, m.column_codes
    else:
        values, codes = np.asarray(m, dtype=np.float64), ()
    with np.errstate(over="ignore"):   # an overflowing row is rescaled below
        norms = np.linalg.norm(values, axis=1)
    unsafe = ~((norms > SAFE_NORM_RANGE[0]) & (norms < SAFE_NORM_RANGE[1]))
    if np.any(unsafe):
        values = values.copy()
        peak = np.abs(values[unsafe]).max(axis=1, keepdims=True)
        values[unsafe] /= np.where(peak > 0.0, peak, 1.0)
        norms[unsafe] = np.linalg.norm(values[unsafe], axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return UnitRowMatrix(values / safe[:, None], zero, codes)


@dataclass(frozen=True)
class MinMaxScalerState:
    """Per-column training minima and maxima for target scaling."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ColumnMismatch("min/max arrays must be 1-D and equally shaped")
        if np.any(maxs < mins):
            raise ColumnMismatch("per-column max must be >= min")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def n_columns(self) -> int:
        return self.mins.shape[0]

    def transform_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.n_columns:
            raise ColumnMismatch(
                f"expected {self.n_columns} columns, got {values.shape[-1]}")
        span = self.maxs - self.mins
        out = np.zeros_like(values)
        nondeg = span > 0.0
        out[..., nondeg] = (values[..., nondeg] - self.mins[nondeg]) / span[nondeg]
        return out

    def inverse_values(self, scaled: np.ndarray, count_mode: bool = False) -> np.ndarray:
        scaled = np.asarray(scaled, dtype=np.float64)
        if scaled.shape[-1] != self.n_columns:
            raise ColumnMismatch(
                f"expected {self.n_columns} columns, got {scaled.shape[-1]}")
        out = scaled * (self.maxs - self.mins) + self.mins
        if count_mode:
            out = np.maximum(out, 0.0)
        return out

    def to_json_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MinMaxScalerState":
        return cls(np.asarray(d["mins"], dtype=np.float64),
                   np.asarray(d["maxs"], dtype=np.float64))


def fit_minmax(train_targets: TargetMatrix) -> MinMaxScalerState:
    """Record per-column training minima and maxima."""
    v = train_targets.values
    if v.shape[0] < 1:
        raise EmptyMatrix("cannot fit min-max scaler on an empty matrix")
    return MinMaxScalerState(v.min(axis=0), v.max(axis=0))


def apply_minmax(state: MinMaxScalerState, t: TargetMatrix) -> TargetMatrix:
    """Scale targets onto the training [0, 1] range.

    Values outside the training range extrapolate past [0, 1] on purpose
    (no clipping), so the inverse transform can round-trip them. Columns
    that were constant at fit time map to 0.
    """
    return TargetMatrix(state.transform_values(t.values), t.column_names)


def invert_minmax(state: MinMaxScalerState, scaled: TargetMatrix,
                  count_mode: bool = False) -> TargetMatrix:
    """Undo min-max scaling; with ``count_mode`` negative results floor at 0."""
    return TargetMatrix(state.inverse_values(scaled.values, count_mode=count_mode),
                        scaled.column_names)
