"""Regression metrics, bootstrap prediction intervals and the region rotation.

Four metrics are reported per target: coefficient of determination (r2),
explained variance score (evs), mean absolute error (mae), and root mean
squared error (rmse). Each is bracketed by a (low, mid, top) interval:
mid is the metric on the full test set, low/top are the 2.5th/97.5th
percentiles (CONFIDENCE, fixed at 0.95) of a pairs bootstrap over the
test days, with 1 to MAX_REPLICATES resamples; all 16 intervals of an
evaluation share one draw of them. The bootstrap scores each resample
from how often it drew each day: one matrix product gives every
resample's sums, the metrics follow from them, and one sort of the scores
gives every percentile. r2 and evs are NaN where the actuals are
constant, which is tested exactly; the bootstrap skips and counts those
resamples.
``rotate_regions`` lets each region take a turn as the case study, with
the pooled regions' generic weight in [0, 1].
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .features import TARGET_COLUMNS
from .ingest import RegionalDataset, split_train_test
from .mtl import MtlModel, predict_monitoring, train_mtl
from .scaling import linear_quantiles

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
    return _defined_spread(np.all(y == y[..., :1], axis=-1), spread)


def _defined_spread(constant, spread):
    """``spread``, with NaN where ``constant`` is true or the spread is 0."""
    return np.where(constant | (spread == 0), np.nan, spread)


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

# How error messages name each metric.
_NAMES = {"r2": "r2", "evs": "explained variance", "mae": "mae", "rmse": "rmse"}

# Resamples are drawn and counted in blocks of about this many indices, so
# each temporary (64 kB of int64) comes from the heap rather than from
# fresh pages that are returned to the system after every block. Indices
# are drawn as int32, half the size of the default int64.
_BOOTSTRAP_CELLS = 2 ** 13

# Most replicates an evaluation may ask for: a (4, 4, B) score array of 12.8 MB.
MAX_REPLICATES = 100_000


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.replicates <= MAX_REPLICATES:
            raise ConfigError(f"bootstrap replicates must be in [1, {MAX_REPLICATES}], "
                              f"got {self.replicates}")


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


def bootstrap_intervals(actuals, predicted,
                        cfg: BootstrapConfig) -> dict[str, dict[str, Interval]]:
    """Pairs bootstrap over days of all four metrics of each target, on shared resamples.

    ``actuals`` and ``predicted`` are (n, 4) in TARGET_COLUMNS order; the
    result maps target -> metric -> Interval. One generator, seeded from a
    SeedSequence child of ``cfg.seed`` so that it never replays the split's
    ``default_rng(seed)`` stream, draws the (replicates, n) day indices in
    blocks of rows, which give the same indices as one draw. Each block
    becomes a (rows, n) matrix of how often each day was drawn, and one
    product with six per-day terms per target gives every resample's sums:
    the actual centred on its full-sample mean and its square, the
    residual centred likewise and its square, the squared and the absolute
    residual. A resample is constant for a target when the first and last
    days it drew, in that target's value order, hold equal actuals; r2
    and evs skip those resamples. ``mid`` is the metric on all days.
    Errors name the target. Non-finite inputs, a NaN ``mid`` (constant
    actuals), and a non-finite ``mid`` or per-day term that a resample could
    overflow (the actuals' spread, or the residuals) are raised before any
    draw, the first in (target, metric) order; only the all-replicates-skipped error follows.
    """
    try:   # every target has the same days, so the first one reports a problem with them
        y, y_hat = _check_pair(np.transpose(actuals), np.transpose(predicted), 2)
    except DataError as exc:
        raise DataError(f"{TARGET_COLUMNS[0]}: {exc}") from None
    if y.shape[:-1] != (len(TARGET_COLUMNS),):
        raise DataError(f"need (n, {len(TARGET_COLUMNS)}) actuals, got {np.shape(actuals)}")
    finite = np.isfinite(y).all(axis=1) & np.isfinite(y_hat).all(axis=1)
    y, y_hat = np.ascontiguousarray(y), np.ascontiguousarray(y_hat)
    n_targets, n = y.shape
    # each row of a metric's call on C-ordered rows gives the 1-D value bit for bit
    with np.errstate(invalid="ignore", over="ignore"):   # such inputs are refused below
        mids = np.stack([fn(y, y_hat) for fn in METRIC_FUNCTIONS.values()], axis=1)
        a = y - y.mean(axis=1, keepdims=True)
        e = y - y_hat
        c = e - e.mean(axis=1, keepdims=True)
        parts = [a, a * a, c, c * c, e * e, np.abs(e)]
        # a resample sums a term over n draws and squares the sums of a and c,
        # so each term's n * n multiple must be finite
        over = [~np.isfinite(n * n * part).all(axis=1) for part in parts]
    spread_over, residuals_over = over[0] | over[1], np.any(over[2:], axis=0)
    for t, target in enumerate(TARGET_COLUMNS):
        if not finite[t]:
            raise DataError(f"{target}: metric inputs must be finite")
        for m, metric in enumerate(METRIC_FUNCTIONS):
            if spread_over[t]:      # named by r2, the first metric, which sums the spread
                why = "actuals' spread overflows float64"
            elif math.isnan(mids[t, m]):
                why = "actuals are constant"
            elif residuals_over[t] or not math.isfinite(mids[t, m]):
                why = "residuals overflow float64"
            else:
                continue
            raise DataError(f"{target}: {why}; {_NAMES[metric]} is undefined")

    terms = np.concatenate(parts).T                                      # (n, 6 * n_targets)
    order = np.argsort(y, axis=1, kind="stable")                          # days by value
    ordered = np.take_along_axis(y, order, axis=1)
    order = np.stack([order, order[:, ::-1]])              # ascending, then descending
    targets = np.arange(n_targets)

    values = np.empty((cfg.replicates, n_targets, len(METRIC_FUNCTIONS)))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    rows = max(1, _BOOTSTRAP_CELLS // n)
    for start in range(0, cfg.replicates, rows):
        b = min(rows, cfg.replicates - start)
        idx = rng.integers(0, n, size=(b, n), dtype=np.int32)
        idx += np.arange(0, b * n, n, dtype=np.int32)[:, None]        # row r counts in r*n..r*n+n-1
        counts = np.bincount(idx.ravel(), minlength=b * n).reshape(b, n)
        sums = (counts.astype(np.float64) @ terms).reshape(b, 6, n_targets)
        sa, saa, sc, scc, see, sabs = sums.transpose(1, 0, 2)
        # the first drawn day in each target's ascending and descending value order
        ends = (counts > 0)[:, order].argmax(axis=3)                   # (b, 2, n_targets)
        constant = ordered[targets, ends[:, 0]] == ordered[targets, n - 1 - ends[:, 1]]
        ss_tot = _defined_spread(constant, saa - sa * sa / n)
        with np.errstate(over="ignore"):   # nearly constant actuals
            values[start:start + b, :, 0] = 1.0 - see / ss_tot
            values[start:start + b, :, 1] = 1.0 - (scc - sc * sc / n) / ss_tot
        values[start:start + b, :, 2] = sabs / n
        values[start:start + b, :, 3] = np.sqrt(see / n)

    # numpy's percentile rule on each column's non-NaN scores, which sort to the front
    values = values.reshape(cfg.replicates, -1)
    kept = np.count_nonzero(~np.isnan(values), axis=0)
    values.sort(axis=0)
    alpha = 1.0 - CONFIDENCE
    probs = np.array([100 * alpha / 2, 100 * (1 - alpha / 2)]) / 100    # as np.percentile has them
    low, top = linear_quantiles(values, probs, kept).reshape(2, n_targets, len(METRIC_FUNCTIONS))
    kept = kept.reshape(n_targets, len(METRIC_FUNCTIONS))

    intervals: dict[str, dict[str, Interval]] = {}
    for t, target in enumerate(TARGET_COLUMNS):
        intervals[target] = {}
        for m, metric in enumerate(METRIC_FUNCTIONS):
            if kept[t, m] == 0:
                raise DataError(f"{target}: all {cfg.replicates} bootstrap replicates had "
                                f"constant actuals; {_NAMES[metric]} is undefined")
            intervals[target][metric] = Interval(
                float(low[t, m]), float(mids[t, m]), float(top[t, m]),
                skipped_replicates=cfg.replicates - int(kept[t, m]))
    return intervals


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
                target: {metric: dataclasses.asdict(iv) for metric, iv in metrics.items()}
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
    try:
        intervals = bootstrap_intervals(test.targets, predict_monitoring(model, test), cfg)
    except DataError as exc:
        raise DataError(f"{model.case_study.name}, {exc}") from None
    return MetricReport(model.case_study.name, intervals, training_time_seconds)


def rotate_regions(
    datasets: Sequence[RegionalDataset],
    k: int = 6,
    test_size: int = 54,
    seed: int = 0,
    generic_weight: float = 1.0,
    bootstrap_replicates: int = 1000,
) -> list[MetricReport]:
    """Let every region take a turn as the case study and evaluate it.

    For each region the remaining datasets form the pool, a held-out
    split of ``test_size`` days is predicted on the default feature
    selection, and metric intervals are computed. Returns one MetricReport
    per region, in dataset order. Each region's split and bootstrap seed
    derives from the master seed, so a fixed seed reproduces every number.
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise DataError("region rotation needs at least 2 datasets")
    bootstrap = BootstrapConfig(bootstrap_replicates)   # a bad count is refused before training

    reports = []
    for ds in datasets:
        case = ds.region
        # the split draws from this seed's stream, the bootstrap from a child of it
        region_seed = int(np.random.SeedSequence(seed, spawn_key=(case.code, 0))
                          .generate_state(1, np.uint64)[0])
        try:
            split = split_train_test(ds, test_size, region_seed)
        except ConfigError as exc:
            raise ConfigError(f"{case.name}: {exc}") from None
        model, train_report = train_mtl(
            datasets, case, split.train_indices, k, generic_weight)
        reports.append(evaluate_model(
            model, ds.subset(split.test_indices),
            dataclasses.replace(bootstrap, seed=region_seed),
            training_time_seconds=train_report.fit_seconds,
        ))
    return reports


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
    header = keys + [f"{metric}_{bound}" for metric in METRIC_FUNCTIONS
                     for bound in ("low", "mid", "top")] + ["tt_seconds"]
    lines = [",".join(header)]
    for report in reports:
        for t in [target] if target else report.intervals:
            lines.append(_csv_line(
                [report.region] if target else [report.region, t],
                [report.interval(t, metric) for metric in METRIC_FUNCTIONS],
                report.training_time_seconds))
    return "\n".join(lines) + "\n"
