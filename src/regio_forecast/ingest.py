"""Reading, validating, and splitting regional daily datasets.

One CSV per region, UTF-8, comma-separated, with the exact header::

    date,feat_01,...,feat_27,infections,hospitalizations,recoveries,deaths

Dates are ISO-8601. A cell may be empty in real-world exports; empty cells
are forward-filled from the previous day within the same column, and a
file whose first row has an empty cell is rejected (daily administrative
series behave like step functions, so the previous value is the best
available estimate). Every cell must be finite, and ``feat_04`` must hold
the code of the region the file is parsed for.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadTestSize,
    BadValue,
    DataError,
    DuplicateDate,
    EmptyFile,
    MissingColumn,
)
from .features import PRIMARY_FEATURE_CODES, TARGET_COLUMNS, FeatureMatrix, TargetMatrix

CSV_HEADER: tuple[str, ...] = ("date",) + PRIMARY_FEATURE_CODES + TARGET_COLUMNS

# feat_04 numeric encoding of each region.
REGION_ENCODINGS: dict[int, str] = {
    0: "Alberta",
    1: "British Columbia",
    2: "Manitoba",
    3: "New Brunswick",
    4: "Newfoundland and Labrador",
    5: "Nova Scotia",
    6: "Ontario",
    7: "Prince Edward Island",
    8: "Quebec",
    9: "Saskatchewan",
}

# Enumerated value sets for the categorical features.
CATEGORICAL_RANGES: dict[str, frozenset[int]] = {
    "feat_02": frozenset({1, 2, 3, 4}),       # season
    "feat_04": frozenset(REGION_ENCODINGS),   # region code
    "feat_05": frozenset({1, 2}),             # pandemic wave
    "feat_07": frozenset({1, 2, 3}),          # lockdown stage
    "feat_08": frozenset({0, 1, 2}),          # travel restrictions
    "feat_09": frozenset({0, 1}),             # face covering mandate
    "feat_10": frozenset({0, 1}),             # holiday flag
}


def normalize_region_name(name: str) -> str:
    return name.strip().lower().replace("_", " ").replace("-", " ")


@dataclass(frozen=True)
class RegionId:
    """One of the ten encoded regions; code and name must agree."""

    code: int
    name: str

    def __post_init__(self):
        if self.code not in REGION_ENCODINGS:
            raise DataError(f"unknown region code: {self.code}")
        if normalize_region_name(self.name) != normalize_region_name(REGION_ENCODINGS[self.code]):
            raise DataError(
                f"region name {self.name!r} does not match encoding {self.code} "
                f"({REGION_ENCODINGS[self.code]!r})")
        object.__setattr__(self, "name", REGION_ENCODINGS[self.code])

    @property
    def file_stem(self) -> str:
        return self.name.lower().replace(" ", "_")


def region_by_code(code: int) -> RegionId:
    if code not in REGION_ENCODINGS:
        raise DataError(f"unknown region code: {code}")
    return RegionId(code, REGION_ENCODINGS[code])


def region_by_name(name: str) -> RegionId:
    wanted = normalize_region_name(name)
    for code, canonical in REGION_ENCODINGS.items():
        if normalize_region_name(canonical) == wanted:
            return RegionId(code, canonical)
    raise DataError(f"unknown region name: {name!r}")


@dataclass(frozen=True, eq=False)
class RegionalDataset:
    """All daily records of one region, ordered by date, held as columns.

    ``features`` is a read-only (n, 27) float array ordered by
    PRIMARY_FEATURE_CODES and ``targets`` a read-only (n, 4) int array
    ordered by TARGET_COLUMNS; row i of both belongs to ``dates[i]``.
    """

    region: RegionId
    dates: tuple[dt.date, ...]
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        f = np.array(self.features, dtype=np.float64)
        t = np.array(self.targets, dtype=np.int64)
        n = len(dates)
        if f.shape != (n, len(PRIMARY_FEATURE_CODES)) or t.shape != (n, len(TARGET_COLUMNS)):
            raise DataError(f"{n} dates need ({n}, {len(PRIMARY_FEATURE_CODES)}) features "
                            f"and ({n}, {len(TARGET_COLUMNS)}) targets, "
                            f"got {f.shape} and {t.shape}")
        f.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def feature_matrix(self) -> FeatureMatrix:
        return FeatureMatrix(self.features, PRIMARY_FEATURE_CODES)

    def target_matrix(self) -> TargetMatrix:
        return TargetMatrix(self.targets.astype(np.float64), TARGET_COLUMNS)

    def subset(self, indices: Sequence[int]) -> "RegionalDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return RegionalDataset(self.region, tuple(self.dates[i] for i in idx),
                               self.features[idx], self.targets[idx])


# Largest target count stored exactly in both the parsed float and int64.
MAX_COUNT = 2 ** 53


def _cell_problem(code: str, value: float, region: RegionId) -> str | None:
    """Why ``value`` is invalid in column ``code`` of ``region``'s file, or None."""
    if not math.isfinite(value):
        return f"{value} is not finite"
    allowed = CATEGORICAL_RANGES.get(code)
    if allowed is not None and (value != int(value) or int(value) not in allowed):
        return f"{value} not in enumerated range {sorted(allowed)}"
    if code == "feat_04" and value != region.code:
        return f"region code {int(value)} does not match {region.name} ({region.code})"
    if code in TARGET_COLUMNS:
        if value != int(value) or value > MAX_COUNT:
            return f"{value} is not an integer count up to {MAX_COUNT}"
        if value < 0:
            return f"{value} is negative"
    return None


def _read_rows(reader, region: RegionId) -> tuple[list[dt.date], list[list[float]]]:
    """Dates and cell values of the data rows, empty cells forward-filled."""
    dates: list[dt.date] = []
    table: list[list[float]] = []
    for row_number, record in enumerate(reader, start=1):
        if not record or all(cell.strip() == "" for cell in record):
            continue
        if len(record) != len(CSV_HEADER):
            raise BadValue(row_number, "row",
                           f"expected {len(CSV_HEADER)} cells, got {len(record)}")
        try:
            dates.append(dt.date.fromisoformat(record[0].strip()))
        except ValueError:
            raise BadValue(row_number, "date", record[0]) from None

        cells: list[float] = []
        for offset, code in enumerate(CSV_HEADER[1:], start=1):
            text = record[offset].strip()
            if text == "":
                if not table:
                    raise BadValue(row_number, code,
                                   "missing cell in first data row (nothing to forward-fill)")
                cells.append(table[-1][offset - 1])
                continue
            try:
                value = float(text)
            except ValueError:
                raise BadValue(row_number, code, text) from None
            problem = _cell_problem(code, value, region)
            if problem:
                raise BadValue(row_number, code, problem)
            cells.append(value)
        table.append(cells)
    return dates, table


def parse_regional_csv(path: str | Path, region: RegionId) -> RegionalDataset:
    """Parse and validate one region's CSV into a RegionalDataset.

    Rows come back sorted by date. Raises MissingColumn, BadValue (naming
    the file, data row number and column), DuplicateDate, or EmptyFile on
    schema or content violations; a non-finite cell or a ``feat_04`` region
    code other than ``region``'s is a BadValue.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        header = tuple(h.strip() for h in header)
        for col in CSV_HEADER:
            if col not in header:
                raise MissingColumn(col)
        if header != CSV_HEADER:
            raise DataError(
                "header columns out of order or extra; expected exactly: "
                + ",".join(CSV_HEADER))

        try:
            dates, table = _read_rows(reader, region)
        except BadValue as exc:
            exc.args = (f"{path}: {exc}",)
            raise

    if not table:
        raise EmptyFile(f"{path} has a header but no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    for a, b in zip(order, order[1:]):
        if dates[a] == dates[b]:
            raise DuplicateDate(dates[a])
    values = np.array(table)[order]
    n_features = len(PRIMARY_FEATURE_CODES)
    return RegionalDataset(region, tuple(dates[i] for i in order),
                           values[:, :n_features], values[:, n_features:])


def write_regional_csv(ds: RegionalDataset, path: str | Path) -> None:
    """Serialize a dataset in the exact ingest schema (round-trips losslessly)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for date, features, targets in zip(ds.dates, ds.features.tolist(),
                                           ds.targets.tolist()):
            writer.writerow([date.isoformat()] + [repr(v) for v in features] + targets)


@dataclass(frozen=True)
class Violation:
    row: int | None
    field: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)


def validate_dataset(ds: RegionalDataset) -> ValidationReport:
    """Collect invariant violations; an empty report means the dataset is sound.

    Cells are checked by the same rules as at parse time.
    """
    found: list[Violation] = []
    seen_dates: set[dt.date] = set()
    last_date: dt.date | None = None
    table = np.hstack([ds.features, ds.targets]).tolist()
    for i, (date, cells) in enumerate(zip(ds.dates, table)):
        if date in seen_dates:
            found.append(Violation(i, "date", f"DuplicateDate: {date}"))
        elif last_date is not None and date < last_date:
            found.append(Violation(i, "date", f"dates not increasing at {date}"))
        seen_dates.add(date)
        if last_date is None or date > last_date:
            last_date = date
        for code, value in zip(CSV_HEADER[1:], cells):
            problem = _cell_problem(code, value, ds.region)
            if problem:
                found.append(Violation(i, code, problem))
    return ValidationReport(tuple(found))


@dataclass(frozen=True)
class TrainTestSplit:
    """Disjoint train/test index sets into one regional dataset."""

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    seed: int


def split_train_test(ds: RegionalDataset, test_size: int, seed: int) -> TrainTestSplit:
    """Sample ``test_size`` day indices uniformly without replacement.

    The same (dataset, test_size, seed) always produces the same split.
    """
    n = ds.n_rows
    if not 0 < test_size < n:
        raise BadTestSize(f"test_size must be in (0, {n}), got {test_size}")
    rng = np.random.default_rng(seed)
    test = np.sort(rng.choice(n, size=test_size, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    train = np.nonzero(mask)[0]
    return TrainTestSplit(tuple(int(i) for i in train),
                          tuple(int(i) for i in test), seed)
