"""Feature space construction: derived features, relevance scoring, selection.

The raw daily record carries 27 primary features. A registry of 17 derived
features (ratios and proportions over the primary ones) expands the space
to 44 columns, after which selection cuts it down to the 13 columns the
monitoring models actually train on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError

PRIMARY_FEATURE_CODES: tuple[str, ...] = tuple(f"feat_{i:02d}" for i in range(1, 28))
DERIVED_FEATURE_CODES: tuple[str, ...] = tuple(f"d{i:02d}" for i in range(1, 18))
TARGET_COLUMNS: tuple[str, ...] = ("infections", "hospitalizations", "recoveries", "deaths")

# The default 13-column model feature space, in relevance-rank order:
# pandemic wave, the six age/sex population bands, labor force size, health
# centre count, cumulative vaccinations, inhabited land area, residential
# mobility change, and lockdown stage.
DEFAULT_SELECTED_FEATURES: tuple[str, ...] = (
    "feat_05", "feat_23", "feat_21", "feat_24", "feat_27", "feat_26",
    "feat_22", "feat_25", "feat_11", "feat_06", "feat_03", "feat_17",
    "feat_07",
)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense real matrix, rows are days and columns are named features."""

    values: np.ndarray
    column_codes: tuple[str, ...]

    def __post_init__(self):
        # C-contiguous storage keeps reduction order (and so results)
        # independent of how the matrix was constructed
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {v.shape}")
        codes = tuple(self.column_codes)
        if len(codes) != v.shape[1]:
            raise DataError(
                f"{len(codes)} column codes for {v.shape[1]} columns")
        if len(set(codes)) != len(codes):
            raise DataError("column codes must be unique")
        if not np.all(np.isfinite(v)):
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise DataError(f"non-finite value at row {i}, column {codes[j]!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "column_codes", codes)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def column(self, code: str) -> np.ndarray:
        try:
            j = self.column_codes.index(code)
        except ValueError:
            raise ConfigError(f"unknown feature code: {code!r}") from None
        return self.values[:, j]


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise division that yields 0 where the denominator is 0."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def _total_population(c: dict[str, np.ndarray]) -> np.ndarray:
    return (c["feat_22"] + c["feat_23"] + c["feat_24"]
            + c["feat_25"] + c["feat_26"] + c["feat_27"])


@dataclass(frozen=True)
class DerivedFeature:
    code: str
    name: str
    formula: Callable[[dict[str, np.ndarray]], np.ndarray]


# Ratios and proportions over the primary columns only. Divisions by a
# quantity that can legitimately be zero go through _safe_div; the small
# epsilons below keep rate ratios finite without masking the zero case.
DEFAULT_DERIVED_REGISTRY: tuple[DerivedFeature, ...] = (
    DerivedFeature("d01", "total_population",
                   _total_population),
    DerivedFeature("d02", "male_fraction",
                   lambda c: _safe_div(c["feat_22"] + c["feat_23"] + c["feat_24"],
                                       _total_population(c))),
    DerivedFeature("d03", "female_fraction",
                   lambda c: _safe_div(c["feat_25"] + c["feat_26"] + c["feat_27"],
                                       _total_population(c))),
    DerivedFeature("d04", "youth_fraction",
                   lambda c: _safe_div(c["feat_22"] + c["feat_25"], _total_population(c))),
    DerivedFeature("d05", "middle_fraction",
                   lambda c: _safe_div(c["feat_23"] + c["feat_26"], _total_population(c))),
    DerivedFeature("d06", "senior_fraction",
                   lambda c: _safe_div(c["feat_24"] + c["feat_27"], _total_population(c))),
    DerivedFeature("d07", "population_density",
                   lambda c: _safe_div(_total_population(c), c["feat_03"])),
    DerivedFeature("d08", "chc_per_100k",
                   lambda c: _safe_div(1e5 * c["feat_11"], _total_population(c))),
    DerivedFeature("d09", "vaccine_coverage",
                   lambda c: _safe_div(c["feat_06"], _total_population(c))),
    DerivedFeature("d10", "labor_participation",
                   lambda c: _safe_div(c["feat_21"], _total_population(c))),
    DerivedFeature("d11", "employ_unemploy_ratio",
                   lambda c: c["feat_19"] / (c["feat_20"] + 1e-9)),
    DerivedFeature("d12", "travelers_per_100k",
                   lambda c: _safe_div(1e5 * c["feat_18"], _total_population(c))),
    DerivedFeature("d13", "mobility_composite",
                   lambda c: (c["feat_12"] + c["feat_13"] + c["feat_14"]
                              + c["feat_15"] + c["feat_16"] + c["feat_17"]) / 6.0),
    DerivedFeature("d14", "retail_residential_ratio",
                   lambda c: c["feat_12"] / (np.abs(c["feat_17"]) + 1.0)),
    DerivedFeature("d15", "workplace_residential_ratio",
                   lambda c: c["feat_16"] / (np.abs(c["feat_17"]) + 1.0)),
    DerivedFeature("d16", "transit_per_labor",
                   lambda c: c["feat_15"] / (c["feat_21"] + 1e-9)),
    DerivedFeature("d17", "rt_mobility",
                   lambda c: c["feat_01"] * (c["feat_12"] + c["feat_13"] + c["feat_14"]
                                             + c["feat_15"] + c["feat_16"] + c["feat_17"]) / 6.0),
)


def compute_derived_features(primary: FeatureMatrix) -> FeatureMatrix:
    """Evaluate DEFAULT_DERIVED_REGISTRY on a 27-column primary matrix.

    Each output column is a row-local function of the primary columns, so
    permuting input rows permutes output rows identically.
    """
    for code in PRIMARY_FEATURE_CODES:
        if code not in primary.column_codes:
            raise DataError(f"primary feature column missing: {code!r}")
    cols = {code: primary.column(code) for code in PRIMARY_FEATURE_CODES}
    values = np.column_stack([f.formula(cols) for f in DEFAULT_DERIVED_REGISTRY])
    return FeatureMatrix(values, tuple(f.code for f in DEFAULT_DERIVED_REGISTRY))


def concat_features(primary: FeatureMatrix, derived: FeatureMatrix) -> FeatureMatrix:
    """Concatenate two matrices column-wise, primary columns first."""
    if primary.n_rows != derived.n_rows:
        raise DataError(
            f"row counts differ: {primary.n_rows} vs {derived.n_rows}")
    return FeatureMatrix(
        np.hstack([primary.values, derived.values]),
        primary.column_codes + derived.column_codes,
    )


@dataclass(frozen=True)
class RelevanceReport:
    """Per-(feature, target) relevance scores in [0, 1].

    Scores are max-normalized per target: the strongest feature for each
    target scores 1.0 whenever any feature has a nonzero association.
    """

    feature_codes: tuple[str, ...]
    target_names: tuple[str, ...]
    scores: np.ndarray             # (n_features, n_targets)

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.shape != (len(self.feature_codes), len(self.target_names)):
            raise DataError("score matrix shape does not match codes/targets")
        if not np.all((0 <= s) & (s <= 1)):     # NaN fails both comparisons
            raise DataError("relevance scores must lie in [0, 1]")
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    def score(self, code: str, target: str) -> float:
        if code not in self.feature_codes:
            raise ConfigError(f"unknown feature code: {code!r}")
        i = self.feature_codes.index(code)
        j = self.target_names.index(target)
        return float(self.scores[i, j])

    def ranking(self, target: str) -> tuple[str, ...]:
        """Feature codes sorted by descending score; ties keep column order."""
        j = self.target_names.index(target)
        order = np.argsort(-self.scores[:, j], kind="stable")
        return tuple(self.feature_codes[i] for i in order)

    def to_csv_text(self) -> str:
        """Percentage table, one row per feature."""
        lines = ["feature," + ",".join(self.target_names)]
        for i, code in enumerate(self.feature_codes):
            cells = ",".join(f"{round(100 * s)}%" for s in self.scores[i])
            lines.append(f"{code},{cells}")
        return "\n".join(lines) + "\n"


def score_relevance(features: FeatureMatrix, targets: np.ndarray) -> RelevanceReport:
    """Score each feature against each target by normalized |rank correlation|.

    ``targets`` is the (n, 4) array of counts in TARGET_COLUMNS order. The
    absolute Spearman correlation of every (feature, target) pair is
    divided by the per-target maximum, so ranks are comparable across
    targets regardless of their scale. Constant columns score 0.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] != len(TARGET_COLUMNS):
        raise DataError(f"targets must have shape (n, {len(TARGET_COLUMNS)}), "
                        f"got {targets.shape}")
    if features.n_rows != targets.shape[0]:
        raise DataError(
            f"row counts differ: {features.n_rows} vs {targets.shape[0]}")
    if not np.all(np.isfinite(targets)):
        raise DataError("targets contain non-finite values")
    if features.n_rows < 3:
        raise DataError("relevance scoring needs at least 3 rows")

    from scipy.stats import rankdata   # most of the package's import time; only this needs it

    rf = rankdata(features.values, axis=0)
    rt = rankdata(targets, axis=0)
    rf = rf - rf.mean(axis=0)
    rt = rt - rt.mean(axis=0)
    sf = np.sqrt((rf ** 2).sum(axis=0))
    st = np.sqrt((rt ** 2).sum(axis=0))
    denom = np.outer(sf, st)
    raw = np.zeros((features.n_columns, len(TARGET_COLUMNS)))
    nz = denom > 0
    np.divide(np.abs(rf.T @ rt), denom, out=raw, where=nz)

    col_max = raw.max(axis=0)
    scores = np.zeros_like(raw)
    np.divide(raw, col_max, out=scores, where=col_max > 0)
    # guard against float drift pushing a ratio a hair past 1
    scores = np.clip(scores, 0.0, 1.0)
    return RelevanceReport(features.column_codes, TARGET_COLUMNS, scores)


def select_features(
    features: FeatureMatrix,
    codes: Sequence[str] | None = None,
    *,
    report: RelevanceReport | None = None,
    top_n: int | None = None,
) -> FeatureMatrix:
    """Project a matrix onto a feature subset.

    Explicit mode (``codes``) returns exactly the listed columns in listed
    order. Ranked mode (``report`` + ``top_n``) keeps the top_n columns by
    mean relevance across targets, ties broken by column order.
    """
    if codes is not None:
        if report is not None or top_n is not None:
            raise ConfigError("pass either an explicit code list or (report, top_n), not both")
        selected = list(codes)
    else:
        if report is None or top_n is None:
            raise ConfigError("ranked selection needs both a relevance report and top_n")
        if not 1 <= top_n <= features.n_columns:
            raise ConfigError(f"top_n must be in [1, {features.n_columns}], got {top_n}")
        if report.feature_codes != features.column_codes:
            raise ConfigError("the relevance report scores other columns than the matrix")
        order = np.argsort(-report.scores.mean(axis=1), kind="stable")
        selected = [features.column_codes[i] for i in order[:top_n]]

    indices = []
    for code in selected:
        if code not in features.column_codes:
            raise ConfigError(f"unknown feature code: {code!r}")
        indices.append(features.column_codes.index(code))
    return FeatureMatrix(features.values[:, indices], tuple(selected))
