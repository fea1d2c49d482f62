"""Checks on the files the CLI writes, independent of the package's own code.

Each ``check_*`` function raises ``CheckFailure`` on the first violation and
otherwise returns the values that ``compare_reference`` pins at the recorded
seed: predicted counts, PPE kits and interval ``mid`` values. Wall-clock
columns (``tt_seconds``) are never compared, and neither are interval
``low``/``top`` bounds, which a change of bootstrap scheme moves on purpose.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TARGETS = ("infections", "hospitalizations", "recoveries", "deaths")
METRICS = ("r2", "evs", "mae", "rmse")

# Outputs are printed with 6 decimals; this covers the last printed digit.
ABS_TOL = 2e-6
REL_TOL = 1e-6


class CheckFailure(Exception):
    """An output file breaks a stated property or moved from its reference."""


def _read(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise CheckFailure(f"{path.name} was not written")
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _number(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        raise CheckFailure(f"{where}: column {column} missing or not a number") from None
    if not math.isfinite(value):
        raise CheckFailure(f"{where}: {column} = {value} is not finite")
    return value


def _count(row: dict, column: str, where: str) -> int:
    text = row.get(column) or ""
    if not text.isdigit():
        raise CheckFailure(f"{where}: {column} = {text!r} is not a non-negative integer")
    return int(text)


def _input_dates(input_csv: Path) -> list[str]:
    return [row["date"] for row in _read(input_csv)]


def _same_days(rows: list[dict], input_csv: Path, name: str) -> None:
    days = _input_dates(input_csv)
    if len(rows) != len(days):
        raise CheckFailure(f"{name}: {len(rows)} rows for {len(days)} input days")
    if sorted(days) != [r["date"] for r in rows]:
        raise CheckFailure(f"{name}: dates do not match the input days")


def check_training(out_dir: Path, instances: int) -> dict[str, list[float]]:
    """The artifact exists and the model stores every non-held-out row once."""
    if not (out_dir / "model.json").is_file():
        raise CheckFailure("model.json was not written")
    try:
        report = json.loads((out_dir / "train_report.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"train_report.json unreadable: {exc}") from None
    if report.get("dedicated_instances") != instances:
        raise CheckFailure(f"train_report.json: dedicated_instances "
                           f"{report.get('dedicated_instances')} != {instances}")
    return {}


def check_predictions(out_dir: Path, input_csv: Path) -> dict[str, list[float]]:
    rows = _read(out_dir / "predictions.csv")
    _same_days(rows, input_csv, "predictions.csv")
    values: dict[str, list[float]] = {t: [] for t in TARGETS}
    for i, row in enumerate(rows, start=1):
        where = f"predictions.csv row {i}"
        for target in TARGETS:
            real = _number(row, target, where)
            rounded = _count(row, f"{target}_rounded", where)
            if real < 0 or abs(rounded - real) > 0.5 + ABS_TOL:
                raise CheckFailure(f"{where}: {target} {real} does not round to {rounded}")
            values[target].append(real)
    return values


def check_ppe(out_dir: Path, input_csv: Path, capacity: float,
              personnel: float) -> dict[str, list[float]]:
    rows = _read(out_dir / "ppe_forecast.csv")
    _same_days(rows, input_csv, "ppe_forecast.csv")
    ceiling = capacity * personnel
    kits_list = []
    for i, row in enumerate(rows, start=1):
        where = f"ppe_forecast.csv row {i}"
        kits = _number(row, "kits", where)
        kits_ceil = _count(row, "kits_ceil", where)
        # kits is printed rounded, so ceil(kits) is checked to that precision
        if not (kits_ceil - 1 < kits + ABS_TOL and kits - ABS_TOL <= kits_ceil):
            raise CheckFailure(f"{where}: kits_ceil {kits_ceil} != ceil({kits})")
        if not 0 <= kits <= ceiling + ABS_TOL:
            raise CheckFailure(f"{where}: kits {kits} outside [0, {ceiling}]")
        for item in ("face_shields", "n95", "glove_pairs", "shoe_cover_pairs", "gowns"):
            if _count(row, item, where) != kits_ceil:
                raise CheckFailure(f"{where}: {item} differs from kits_ceil {kits_ceil}")
        kits_list.append(kits)
    return {"kits": kits_list}


def _check_intervals(row: dict, where: str) -> list[float]:
    mids = []
    for metric in METRICS:
        low = _number(row, f"{metric}_low", where)
        mid = _number(row, f"{metric}_mid", where)
        top = _number(row, f"{metric}_top", where)
        if low > top:
            raise CheckFailure(f"{where}: {metric} interval has low {low} > top {top}")
        mids.append(mid)
    return mids


def check_monitoring(out_dir: Path, n_regions: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for target in TARGETS:
        name = f"monitoring_{target}.csv"
        rows = _read(out_dir / name)
        if len(rows) != n_regions or len({r["province"] for r in rows}) != n_regions:
            raise CheckFailure(f"{name}: expected one row for each of {n_regions} regions")
        for row in rows:
            mids = _check_intervals(row, f"{name} {row['province']}")
            for metric, mid in zip(METRICS, mids):
                values.setdefault(f"{target}.{metric}_mid", []).append(mid)
    return values


def check_evaluation(out_dir: Path) -> dict[str, list[float]]:
    rows = _read(out_dir / "evaluation.csv")
    if [r.get("target") for r in rows] != list(TARGETS):
        raise CheckFailure("evaluation.csv: expected one row per target")
    values: dict[str, list[float]] = {}
    for row in rows:
        for metric, mid in zip(METRICS, _check_intervals(row, f"evaluation.csv {row['target']}")):
            values.setdefault(f"{metric}_mid", []).append(mid)
    return values


def compare_reference(values: dict[str, list[float]], reference: dict[str, list[float]],
                      label: str) -> None:
    if sorted(values) != sorted(reference):
        raise CheckFailure(f"{label}: reference keys differ")
    for key, expected in reference.items():
        got = values[key]
        if len(got) != len(expected):
            raise CheckFailure(f"{label}: {key} has {len(got)} values, reference {len(expected)}")
        for i, (a, b) in enumerate(zip(got, expected)):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                raise CheckFailure(f"{label}: {key}[{i}] = {a}, reference {b}")
