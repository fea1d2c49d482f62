"""Regression metrics and bootstrap prediction intervals.

Four metrics are reported per target: coefficient of determination (r2),
explained variance score (evs), mean absolute error (mae), and root mean
squared error (rmse). Each is bracketed by a (low, mid, top) interval:
mid is the metric on the full test set, low/top are the 2.5th/97.5th
percentiles (CONFIDENCE, fixed at 0.95) of a pairs bootstrap over the
test points. Every metric reduces the last axis, so one call scores a
whole (replicates, n) matrix of resamples. r2 and evs are NaN where the
actuals are constant; the bootstrap skips and counts those resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .features import TARGET_COLUMNS
from .ingest import RegionalDataset
from .mtl import MtlModel, predict_monitoring

METRIC_NAMES: tuple[str, ...] = ("r2", "evs", "mae", "rmse")

# Level of every bootstrap interval.
CONFIDENCE = 0.95


def _check_pair(y, y_hat, min_len: int):
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    y_hat = np.atleast_1d(np.asarray(y_hat, dtype=np.float64))
    if y.shape != y_hat.shape:
        raise DataError(f"{' x '.join(map(str, y.shape))} actuals vs "
                        f"{' x '.join(map(str, y_hat.shape))} predictions")
    if y.shape[-1] == 0:
        raise DataError("metric inputs are empty")
    if y.shape[-1] < min_len:
        raise DataError(f"need at least {min_len} points, got {y.shape[-1]}")
    return y, y_hat


def _spread(y, spread):
    """``spread`` where the actuals vary, NaN where they are equal or it underflows to 0.

    Equality is tested exactly: equal float actuals can leave a spread of
    rounding noise instead of 0.
    """
    return np.where(np.all(y == y[..., :1], axis=-1) | (spread == 0), np.nan, spread)


def r2(y, y_hat):
    """1 - SS_res / SS_tot; 1.0 is a perfect fit, 0.0 matches the mean predictor."""
    y, y_hat = _check_pair(y, y_hat, 2)
    ss_tot = np.sum((y - y.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    with np.errstate(over="ignore"):   # nearly constant actuals
        return 1.0 - np.sum((y - y_hat) ** 2, axis=-1) / _spread(y, ss_tot)


def evs(y, y_hat):
    """Explained variance, 1 - Var(residuals)/Var(actuals); shift-invariant."""
    y, y_hat = _check_pair(y, y_hat, 2)
    with np.errstate(over="ignore"):
        return 1.0 - np.var(y - y_hat, axis=-1) / _spread(y, np.var(y, axis=-1))


def mae(y, y_hat):
    y, y_hat = _check_pair(y, y_hat, 1)
    return np.mean(np.abs(y - y_hat), axis=-1)


def rmse(y, y_hat):
    y, y_hat = _check_pair(y, y_hat, 1)
    return np.sqrt(np.mean((y - y_hat) ** 2, axis=-1))


METRIC_FUNCTIONS: dict[str, Callable] = {"r2": r2, "evs": evs, "mae": mae, "rmse": rmse}


# Resamples are drawn and scored in blocks of about this many indices, so
# each temporary (64 kB of float64) comes from the heap rather than from
# fresh pages that are returned to the system after every block.
_BOOTSTRAP_CELLS = 2 ** 13


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError(f"bootstrap replicates must be >= 1, got {self.replicates}")


@dataclass(frozen=True)
class Interval:
    """(low, mid, top) bracket for one metric.

    ``skipped_replicates`` counts the resamples with constant actuals,
    which r2 and evs cannot score.
    """

    low: float
    mid: float
    top: float
    skipped_replicates: int = 0


def bootstrap_interval(y, y_hat, metric: Callable, cfg: BootstrapConfig) -> Interval:
    """Pairs bootstrap of a metric over (actual, prediction) index pairs.

    mid is the metric on the full sample. One generator seeded with
    ``cfg.seed`` draws the (replicates, n) index matrix in blocks of rows,
    which give the same indices as one draw, and one metric call scores
    each block; rows with constant actuals score NaN under r2 and evs and
    are skipped. low/top are percentile bounds of the rest.
    """
    y, y_hat = _check_pair(np.ravel(y), np.ravel(y_hat), 2)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise DataError("metric inputs must be finite")
    mid = float(metric(y, y_hat))
    name = {"evs": "explained variance"}.get(metric.__name__, metric.__name__)
    if math.isnan(mid):
        raise DataError(f"actuals are constant; {name} is undefined")

    rng = np.random.default_rng(cfg.seed)
    rows = max(1, _BOOTSTRAP_CELLS // len(y))
    values = np.empty(cfg.replicates)
    for start in range(0, cfg.replicates, rows):
        idx = rng.integers(0, len(y), size=(min(rows, cfg.replicates - start), len(y)))
        values[start:start + len(idx)] = metric(y[idx], y_hat[idx])
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise DataError(f"all {cfg.replicates} bootstrap replicates had constant actuals; "
                        f"{name} is undefined")

    alpha = 1.0 - CONFIDENCE
    low, top = np.percentile(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return Interval(float(low), mid, float(top),
                    skipped_replicates=cfg.replicates - values.size)


@dataclass(frozen=True)
class MetricReport:
    """All metric intervals for one (region, test window) evaluation."""

    region: str
    intervals: dict[str, dict[str, Interval]]   # target -> metric -> Interval
    training_time_seconds: float

    def interval(self, target: str, metric: str) -> Interval:
        return self.intervals[target][metric]

    def to_json_dict(self) -> dict:
        return {
            "province": self.region,
            "training_time_seconds": self.training_time_seconds,
            "targets": {
                target: {
                    metric: {"low": iv.low, "mid": iv.mid, "top": iv.top,
                             "skipped_replicates": iv.skipped_replicates}
                    for metric, iv in metrics.items()
                }
                for target, metrics in self.intervals.items()
            },
        }


def evaluate_model(
    model: MtlModel,
    test: RegionalDataset,
    cfg: BootstrapConfig = BootstrapConfig(),
    training_time_seconds: float = 0.0,
) -> MetricReport:
    """Predict the held-out days and report bootstrap intervals per target.

    Test days must be disjoint from the days the model trained on.
    """
    predicted = predict_monitoring(model, test)
    actuals = test.targets.astype(np.float64)

    seeds = np.random.SeedSequence(cfg.seed).spawn(len(TARGET_COLUMNS) * len(METRIC_NAMES))
    intervals: dict[str, dict[str, Interval]] = {}
    for t_idx, target in enumerate(TARGET_COLUMNS):
        intervals[target] = {}
        for m_idx, metric in enumerate(METRIC_NAMES):
            seed = seeds[t_idx * len(METRIC_NAMES) + m_idx].generate_state(1, np.uint64)[0]
            try:
                intervals[target][metric] = bootstrap_interval(
                    actuals[:, t_idx], predicted[:, t_idx], METRIC_FUNCTIONS[metric],
                    BootstrapConfig(cfg.replicates, int(seed)))
            except DataError as exc:
                raise DataError(f"{model.case_study.name}, {target}: {exc}") from None
    return MetricReport(model.case_study.name, intervals, training_time_seconds)


def _csv_line(keys: Sequence[str], intervals: Sequence[Interval], tt_seconds: float) -> str:
    """The key cells, then low/mid/top of each interval, then the training time."""
    cells = list(keys)
    for iv in intervals:
        cells += [f"{iv.low:.6f}", f"{iv.mid:.6f}", f"{iv.top:.6f}"]
    cells.append(f"{tt_seconds:.3f}")
    return ",".join(cells)


def reports_to_long_csv(reports: Sequence[MetricReport]) -> str:
    """Long-format CSV: province,target,metric,low,mid,top,tt_seconds."""
    lines = ["province,target,metric,low,mid,top,tt_seconds"]
    for report in reports:
        for target, metrics in report.intervals.items():
            for metric, iv in metrics.items():
                lines.append(_csv_line((report.region, target, metric), (iv,),
                                       report.training_time_seconds))
    return "\n".join(lines) + "\n"


def reports_to_target_table(reports: Sequence[MetricReport], target: str | None = None) -> str:
    """Wide CSV with every metric interval as columns.

    Given a ``target``, one row per report; otherwise one row per (report,
    target) pair, with a ``target`` column after ``province``.
    """
    keys = ["province"] if target else ["province", "target"]
    header = keys + [f"{metric}_{bound}" for metric in METRIC_NAMES
                     for bound in ("low", "mid", "top")] + ["tt_seconds"]
    lines = [",".join(header)]
    for report in reports:
        for t in [target] if target else report.intervals:
            lines.append(_csv_line(
                [report.region] if target else [report.region, t],
                [report.interval(t, metric) for metric in METRIC_NAMES],
                report.training_time_seconds))
    return "\n".join(lines) + "\n"
