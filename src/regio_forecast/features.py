"""Feature space: the column codes, the derived-feature formulas, relevance.

The raw daily record carries 27 primary features. DERIVED_FORMULAS maps
17 derived codes to their formulas (ratios and proportions over the
primary ones), so FEATURE_CODES names 44 codes in all. A model trains on
a selection of them, by default 13 primary columns;
``RegionalDataset.columns`` evaluates a derived formula only when the
selection names its code. Relevance scoring ranks all 44 against the
targets, and ``RelevanceReport.top`` picks the ranked selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, as_array, as_int

PRIMARY_FEATURE_CODES: tuple[str, ...] = tuple(f"feat_{i:02d}" for i in range(1, 28))
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


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise division that yields 0 where the denominator is 0."""
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def _total_population(c: dict[str, np.ndarray]) -> np.ndarray:
    return (c["feat_22"] + c["feat_23"] + c["feat_24"]
            + c["feat_25"] + c["feat_26"] + c["feat_27"])


# Each derived code's formula over the primary columns, its name in a
# comment. Divisions by a quantity that can legitimately be zero go
# through _safe_div; the small epsilons below keep rate ratios finite
# without masking the zero case.
DERIVED_FORMULAS: dict[str, Callable[[dict[str, np.ndarray]], np.ndarray]] = {
    "d01": _total_population,  # total_population
    "d02": lambda c: _safe_div(c["feat_22"] + c["feat_23"] + c["feat_24"],  # male_fraction
                               _total_population(c)),
    "d03": lambda c: _safe_div(c["feat_25"] + c["feat_26"] + c["feat_27"],  # female_fraction
                               _total_population(c)),
    "d04": lambda c: _safe_div(c["feat_22"] + c["feat_25"],  # youth_fraction
                               _total_population(c)),
    "d05": lambda c: _safe_div(c["feat_23"] + c["feat_26"],  # middle_fraction
                               _total_population(c)),
    "d06": lambda c: _safe_div(c["feat_24"] + c["feat_27"],  # senior_fraction
                               _total_population(c)),
    "d07": lambda c: _safe_div(_total_population(c), c["feat_03"]),  # population_density
    "d08": lambda c: _safe_div(1e5 * c["feat_11"], _total_population(c)),  # chc_per_100k
    "d09": lambda c: _safe_div(c["feat_06"], _total_population(c)),  # vaccine_coverage
    "d10": lambda c: _safe_div(c["feat_21"], _total_population(c)),  # labor_participation
    "d11": lambda c: c["feat_19"] / (c["feat_20"] + 1e-9),  # employ_unemploy_ratio
    "d12": lambda c: _safe_div(1e5 * c["feat_18"], _total_population(c)),  # travelers_per_100k
    "d13": lambda c: (c["feat_12"] + c["feat_13"] + c["feat_14"]  # mobility_composite
                      + c["feat_15"] + c["feat_16"] + c["feat_17"]) / 6.0,
    "d14": lambda c: c["feat_12"] / (np.abs(c["feat_17"]) + 1.0),  # retail_residential_ratio
    "d15": lambda c: c["feat_16"] / (np.abs(c["feat_17"]) + 1.0),  # workplace_residential_ratio
    "d16": lambda c: c["feat_15"] / (c["feat_21"] + 1e-9),  # transit_per_labor
    "d17": lambda c: c["feat_01"] * (c["feat_12"] + c["feat_13"] + c["feat_14"]  # rt_mobility
                                     + c["feat_15"] + c["feat_16"] + c["feat_17"]) / 6.0,
}
DERIVED_FEATURE_CODES: tuple[str, ...] = tuple(DERIVED_FORMULAS)
# Every code a model may select, and relevance ranks: primary, then derived.
FEATURE_CODES: tuple[str, ...] = PRIMARY_FEATURE_CODES + DERIVED_FEATURE_CODES


@dataclass(frozen=True, eq=False)
class RelevanceReport:
    """Per-(feature, target) relevance scores in [0, 1].

    Scores are max-normalized per target: the strongest feature for each
    target scores 1.0 whenever any feature has a nonzero association.
    """

    feature_codes: tuple[str, ...]
    target_names: tuple[str, ...]
    scores: np.ndarray             # (n_features, n_targets)

    def __post_init__(self):
        s = as_array(self.scores, "scores", "biuf", dtype=np.float64)
        if s.shape != (len(self.feature_codes), len(self.target_names)):
            raise DataError("score matrix shape does not match codes/targets")
        if not np.all((0 <= s) & (s <= 1)):     # NaN fails both comparisons
            raise DataError("relevance scores must lie in [0, 1]")
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    def score(self, code: str, target: str) -> float:
        return float(self.scores[_position(self.feature_codes, code, "feature code"),
                                 _position(self.target_names, target, "target")])

    def ranking(self, target: str) -> tuple[str, ...]:
        """Feature codes sorted by descending score; ties keep column order."""
        j = _position(self.target_names, target, "target")
        order = np.argsort(-self.scores[:, j], kind="stable")
        return tuple(self.feature_codes[i] for i in order)

    def top(self, n: int) -> tuple[str, ...]:
        """The n codes of highest mean score across targets; ties keep column order."""
        n = as_int(n, "top_n", 1, len(self.feature_codes))
        order = np.argsort(-self.scores.mean(axis=1), kind="stable")
        return tuple(self.feature_codes[i] for i in order[:n])

    def to_csv_text(self) -> str:
        """Percentage table, one row per feature."""
        lines = ["feature," + ",".join(self.target_names)]
        for i, code in enumerate(self.feature_codes):
            cells = ",".join(f"{round(100 * s)}%" for s in self.scores[i])
            lines.append(f"{code},{cells}")
        return "\n".join(lines) + "\n"


def _position(names: Sequence[str], name: str, what: str) -> int:
    if name not in names:
        raise ConfigError(f"unknown {what}: {name!r}")
    return names.index(name)


def score_relevance(features: np.ndarray, codes: Sequence[str],
                    targets: np.ndarray) -> RelevanceReport:
    """Score each feature against each target by normalized |rank correlation|.

    ``features`` is an (n, len(codes)) array whose columns ``codes`` name,
    and ``targets`` the (n, 4) array of counts in TARGET_COLUMNS order. The
    absolute Spearman correlation of every (feature, target) pair is
    divided by the per-target maximum, so ranks are comparable across
    targets regardless of their scale. Constant columns score 0.
    """
    features = as_array(features, "features", "biuf", dtype=np.float64)
    targets = as_array(targets, "targets", "biuf", dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(codes):
        raise DataError(f"{len(codes)} column codes for features of shape {features.shape}")
    if targets.ndim != 2 or targets.shape[1] != len(TARGET_COLUMNS):
        raise DataError(f"targets must have shape (n, {len(TARGET_COLUMNS)}), "
                        f"got {targets.shape}")
    if features.shape[0] != targets.shape[0]:
        raise DataError(
            f"row counts differ: {features.shape[0]} vs {targets.shape[0]}")
    if not np.all(np.isfinite(features)):
        raise DataError("features contain non-finite values")
    if not np.all(np.isfinite(targets)):
        raise DataError("targets contain non-finite values")
    if features.shape[0] < 3:
        raise DataError("relevance scoring needs at least 3 rows")

    from scipy.stats import rankdata   # most of the package's import time; only this needs it

    rf = rankdata(features, axis=0)
    rt = rankdata(targets, axis=0)
    rf = rf - rf.mean(axis=0)
    rt = rt - rt.mean(axis=0)
    sf = np.sqrt((rf ** 2).sum(axis=0))
    st = np.sqrt((rt ** 2).sum(axis=0))
    denom = np.outer(sf, st)
    raw = np.zeros((len(codes), len(TARGET_COLUMNS)))
    nz = denom > 0
    np.divide(np.abs(rf.T @ rt), denom, out=raw, where=nz)

    col_max = raw.max(axis=0)
    scores = np.zeros_like(raw)
    np.divide(raw, col_max, out=scores, where=col_max > 0)
    # guard against float drift pushing a ratio a hair past 1
    scores = np.clip(scores, 0.0, 1.0)
    return RelevanceReport(tuple(codes), TARGET_COLUMNS, scores)

