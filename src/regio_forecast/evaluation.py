"""Regression metrics and bootstrap prediction intervals.

Four metrics are reported per target: coefficient of determination (r2),
explained variance score (evs), mean absolute error (mae), and root mean
squared error (rmse). Each is bracketed by a (low, mid, top) interval:
mid is the metric on the full test set, low/top are the 2.5th/97.5th
percentiles (CONFIDENCE, fixed at 0.95) of a pairs bootstrap over the
test points. Replicates whose resampled actuals are constant cannot
support r2/evs and are skipped, with the skip count reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, ZeroVariance
from .features import TARGET_COLUMNS
from .ingest import RegionalDataset
from .mtl import MonitoringPrediction, MtlModel, predict_monitoring

METRIC_NAMES: tuple[str, ...] = ("r2", "evs", "mae", "rmse")

# Level of every bootstrap interval.
CONFIDENCE = 0.95


def _check_pair(y, y_hat, min_len: int):
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.shape[0] != y_hat.shape[0]:
        raise DataError(f"{y.shape[0]} actuals vs {y_hat.shape[0]} predictions")
    if y.shape[0] == 0:
        raise DataError("metric inputs are empty")
    if y.shape[0] < min_len:
        raise DataError(f"need at least {min_len} points, got {y.shape[0]}")
    return y, y_hat


def r2(y, y_hat) -> float:
    """1 - SS_res / SS_tot; 1.0 is a perfect fit, 0.0 matches the mean predictor."""
    y, y_hat = _check_pair(y, y_hat, 2)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVariance("actuals are constant; r2 is undefined")
    return 1.0 - float(np.sum((y - y_hat) ** 2)) / ss_tot


def evs(y, y_hat) -> float:
    """Explained variance, 1 - Var(residuals)/Var(actuals); shift-invariant."""
    y, y_hat = _check_pair(y, y_hat, 2)
    var_y = float(np.var(y))
    if var_y == 0.0:
        raise ZeroVariance("actuals are constant; explained variance is undefined")
    return 1.0 - float(np.var(y - y_hat)) / var_y


def mae(y, y_hat) -> float:
    y, y_hat = _check_pair(y, y_hat, 1)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    y, y_hat = _check_pair(y, y_hat, 1)
    return math.sqrt(float(np.mean((y - y_hat) ** 2)))


METRIC_FUNCTIONS: dict[str, Callable] = {"r2": r2, "evs": evs, "mae": mae, "rmse": rmse}


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

    ``skipped_replicates`` counts degenerate resamples; ``degenerate`` is
    set when fewer than 2 replicates survived, in which case low <= mid
    <= top is not guaranteed.
    """

    low: float
    mid: float
    top: float
    skipped_replicates: int = 0
    degenerate: bool = False


def bootstrap_interval(y, y_hat, metric: Callable, cfg: BootstrapConfig) -> Interval:
    """Pairs bootstrap of a metric over (actual, prediction) index pairs.

    mid is the metric on the full sample; low/top are percentile bounds
    of the replicate distribution. Replicate index draws come from
    per-replicate generators spawned off the master seed, so a parallel
    evaluation would reproduce the serial numbers exactly.
    """
    y, y_hat = _check_pair(y, y_hat, 2)
    mid = metric(y, y_hat)

    n = y.shape[0]
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    values = []
    skipped = 0
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        try:
            values.append(metric(y[idx], y_hat[idx]))
        except ZeroVariance:
            skipped += 1
    if not values:
        raise DataError(
            f"all {cfg.replicates} bootstrap replicates had constant actuals")

    alpha = 1.0 - CONFIDENCE
    low, top = np.percentile(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return Interval(float(low), mid, float(top),
                    skipped_replicates=skipped, degenerate=len(values) < 2)


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

    Metrics are computed on inverse-scaled counts, not on the [0, 1]
    training scale, so error magnitudes are comparable across regions.
    Test days must be disjoint from the days the model trained on.
    """
    prediction: MonitoringPrediction = predict_monitoring(model, test)
    actuals = test.targets.astype(np.float64)

    parent = np.random.SeedSequence(cfg.seed)
    combo_seeds = parent.spawn(len(TARGET_COLUMNS) * len(METRIC_NAMES))
    intervals: dict[str, dict[str, Interval]] = {}
    combo = 0
    for t_idx, target in enumerate(TARGET_COLUMNS):
        per_metric: dict[str, Interval] = {}
        for metric_name in METRIC_NAMES:
            child_seed = int(combo_seeds[combo].generate_state(1, np.uint64)[0])
            combo += 1
            per_metric[metric_name] = bootstrap_interval(
                actuals[:, t_idx],
                prediction.counts[:, t_idx],
                METRIC_FUNCTIONS[metric_name],
                BootstrapConfig(cfg.replicates, child_seed),
            )
        intervals[target] = per_metric
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
