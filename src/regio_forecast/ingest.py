"""Regional daily datasets: valid by construction, read from CSV, split.

One CSV per region, UTF-8, comma-separated, with the exact header::

    date,feat_01,...,feat_27,infections,hospitalizations,recoveries,deaths

Dates are ISO-8601. A cell may be empty in real-world exports; empty cells
are forward-filled from the previous day within the same column, and a
file whose first row has an empty cell is rejected (daily administrative
series behave like step functions, so the previous value is the best
available estimate).

Every RegionalDataset, whether parsed, generated, subset or built by a
caller, holds these rules when it is constructed: every cell is finite,
categorical cells lie in CATEGORICAL_RANGES, ``feat_04`` holds the code of
the dataset's region, ``feat_11`` (health centres) is an integer count in
[1, MAX_COUNT], targets are integer counts in [0, MAX_COUNT], and dates
strictly increase. A violation raises DataError naming the first bad
cell in row-major order.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .features import DEFAULT_DERIVED_REGISTRY, PRIMARY_FEATURE_CODES, TARGET_COLUMNS

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
    raise ConfigError(f"unknown region name: {name!r}")


@dataclass(frozen=True, eq=False)
class RegionalDataset:
    """All daily records of one region, ordered by date, held as columns.

    ``features`` is a read-only (n, 27) float array ordered by
    PRIMARY_FEATURE_CODES and ``targets`` a read-only (n, 4) int array
    ordered by TARGET_COLUMNS; row i of both belongs to ``dates[i]``.
    Construction enforces the module's cell and date rules, so a dataset
    that exists is valid; the DataError names the date and column of the
    first bad cell.
    """

    region: RegionId
    dates: tuple[dt.date, ...]
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        f = np.array(self.features, dtype=np.float64)
        t = np.asarray(self.targets)    # checked before the int cast, which hides NaN
        n = len(dates)
        if f.shape != (n, len(PRIMARY_FEATURE_CODES)) or t.shape != (n, len(TARGET_COLUMNS)):
            raise DataError(f"{n} dates need ({n}, {len(PRIMARY_FEATURE_CODES)}) features "
                            f"and ({n}, {len(TARGET_COLUMNS)}) targets, "
                            f"got {f.shape} and {t.shape}")
        bad = _first_bad_cell(f, t, self.region)
        late = next((i for i in range(1, n) if not dates[i - 1] < dates[i]), None)
        if late is not None and (bad is None or late <= bad[0]):
            raise _bad_value(str(dates[late]), "date", f"not after {dates[late - 1]}")
        if bad is not None:
            row, code, detail = bad
            raise _bad_value(str(dates[row]), code, detail)
        t = t.astype(np.int64)
        f.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def columns(self, codes: Sequence[str]) -> np.ndarray:
        """The (n, len(codes)) float array of the named primary and derived features.

        A derived feature is evaluated only when ``codes`` names it. An
        unknown code raises ConfigError, and a derived value that is not
        finite raises DataError naming the region, date and code.
        """
        primary = dict(zip(PRIMARY_FEATURE_CODES, self.features.T))
        out = np.empty((self.n_rows, len(codes)))
        for j, code in enumerate(codes):
            if code in primary:
                out[:, j] = primary[code]
            elif code in _DERIVED_FORMULAS:
                with np.errstate(all="ignore"):    # a non-finite result is reported below
                    out[:, j] = _DERIVED_FORMULAS[code](primary)
            else:
                raise ConfigError(f"unknown feature code: {code!r}")
        bad = ~np.isfinite(out)
        if bad.any():
            row, j = divmod(int(bad.argmax()), len(codes))
            raise _bad_value(f"{self.region.name}, {self.dates[row]}", codes[j],
                             f"derived value {out[row, j]} is not finite")
        return out

    def subset(self, indices: Sequence[int]) -> "RegionalDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return RegionalDataset(self.region, tuple(self.dates[i] for i in idx),
                               self.features[idx], self.targets[idx])


# Largest count stored exactly in both the parsed float and int64.
MAX_COUNT = 2 ** 53

_DERIVED_FORMULAS = {f.code: f.formula for f in DEFAULT_DERIVED_REGISTRY}
_REGION_COLUMN = PRIMARY_FEATURE_CODES.index("feat_04")
_CENTRES_COLUMN = PRIMARY_FEATURE_CODES.index("feat_11")


def _bad_value(where: str, column: str, detail: str) -> DataError:
    """The error for a bad cell at ``where``: a file's data row, or a date."""
    message = f"bad value at {where}, column {column!r}"
    return DataError(f"{message}: {detail}" if detail else message)


def _first_bad_cell(features: np.ndarray, targets: np.ndarray,
                    region: RegionId) -> tuple[int, str, str] | None:
    """Row index, column code and detail of the first invalid cell, row-major.

    Each rule is a mask over the (n, 31) table of features then targets.
    A cell that breaks several rules is reported under the first of:
    not finite, outside its categorical range, a ``feat_04`` other than
    ``region``'s code, a ``feat_11`` that is no integer in [1, MAX_COUNT],
    not an integer count up to MAX_COUNT, negative. Integer targets are
    compared as integers, so no count is rounded.
    """
    n_features = features.shape[1]
    codes = CSV_HEADER[1:]
    shape = (features.shape[0], len(codes))
    off_range, foreign, no_centres, not_count, negative = (
        np.zeros(shape, dtype=bool) for _ in range(5))
    with np.errstate(invalid="ignore"):
        nonfinite = ~np.hstack([np.isfinite(features), np.isfinite(targets)])
        for code, allowed in CATEGORICAL_RANGES.items():
            j = codes.index(code)
            off_range[:, j] = ~np.isin(features[:, j], sorted(allowed))
        foreign[:, _REGION_COLUMN] = features[:, _REGION_COLUMN] != region.code
        centres = features[:, _CENTRES_COLUMN]
        no_centres[:, _CENTRES_COLUMN] = ((centres != np.floor(centres)) | (centres < 1)
                                          | (centres > MAX_COUNT))
        not_count[:, n_features:] = (targets != np.floor(targets)) | (targets > MAX_COUNT)
        negative[:, n_features:] = targets < 0
    bad = nonfinite | off_range | foreign | no_centres | not_count | negative
    if not bad.any():
        return None
    row, col = divmod(int(bad.argmax()), shape[1])
    code = codes[col]
    value = (features[row, col] if col < n_features else targets[row, col - n_features]).item()
    if nonfinite[row, col]:
        detail = f"{value} is not finite"
    elif off_range[row, col]:
        detail = f"{value} not in enumerated range {sorted(CATEGORICAL_RANGES[code])}"
    elif foreign[row, col]:
        detail = f"region code {int(value)} does not match {region.name} ({region.code})"
    elif no_centres[row, col]:
        detail = f"{value} is not a health centre count in [1, {MAX_COUNT}]"
    elif not_count[row, col]:
        detail = f"{value} is not an integer count up to {MAX_COUNT}"
    else:
        detail = f"{value} is negative"
    return row, code, detail


def _read_table(records: list[list[str]]) -> tuple[list[int], list[dt.date], np.ndarray]:
    """Row numbers, dates and the (n, 31) cell values of the data rows.

    One conversion reads every cell of the file with Python's float
    syntax. A file it cannot read whole (an empty cell to forward-fill,
    text that is no number or date, a wrong cell count) is read again by
    ``_read_rows``, which reports the first fault in row-major order.
    """
    rows = [i for i, record in enumerate(records, start=1) if any(map(str.strip, record))]
    data = [records[i - 1] for i in rows]
    try:
        values = np.array([record[1:] for record in data], dtype=np.float64)
        dates = [dt.date.fromisoformat(record[0].strip()) for record in data]
        if values.shape == (len(data), len(CSV_HEADER) - 1):
            return rows, dates, values
    except ValueError:
        pass
    rows, dates, table = _read_rows(records)
    return rows, dates, np.array(table)


def _read_rows(records) -> tuple[list[int], list[dt.date], list[list[float]]]:
    """Row numbers, dates and cell values of the data rows, empty cells forward-filled.

    Only text is checked here: the cell count, the ISO date, that each
    cell is a number, and that the first row has no empty cell.
    """
    rows: list[int] = []
    dates: list[dt.date] = []
    table: list[list[float]] = []
    for row_number, record in enumerate(records, start=1):
        if not record or all(cell.strip() == "" for cell in record):
            continue
        if len(record) != len(CSV_HEADER):
            raise _bad_value(f"row {row_number}", "row",
                             f"expected {len(CSV_HEADER)} cells, got {len(record)}")
        try:
            dates.append(dt.date.fromisoformat(record[0].strip()))
        except ValueError:
            raise _bad_value(f"row {row_number}", "date", record[0]) from None

        cells: list[float] = []
        for offset, code in enumerate(CSV_HEADER[1:], start=1):
            text = record[offset].strip()
            if text == "":
                if not table:
                    raise _bad_value(f"row {row_number}", code,
                                     "missing cell in first data row (nothing to forward-fill)")
                cells.append(table[-1][offset - 1])
                continue
            try:
                cells.append(float(text))
            except ValueError:
                raise _bad_value(f"row {row_number}", code, text) from None
        rows.append(row_number)
        table.append(cells)
    return rows, dates, table


def parse_regional_csv(path: str | Path, region: RegionId) -> RegionalDataset:
    """Parse and validate one region's CSV into a RegionalDataset.

    Rows come back sorted by date. A missing or misordered header column,
    an empty file, a bad cell (named by data row number and column) or a
    repeated date raises DataError, its message starting with the file
    path; so do bytes that are not UTF-8 and quoting that the csv module
    cannot read. Text faults (cell count, date, number syntax, an empty
    first-row cell) are found first, the first one in row-major order; the
    cell rules of RegionalDataset then run on the whole table in file
    order, so a text fault anywhere is reported before a rule violation.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError("file is empty")
            header = tuple(h.strip() for h in header)
            for col in CSV_HEADER:
                if col not in header:
                    raise DataError(f"required column missing from header: {col!r}")
            if header != CSV_HEADER:
                raise DataError(
                    "header columns out of order or extra; expected exactly: "
                    + ",".join(CSV_HEADER))
            rows, dates, values = _read_table(list(reader))
        if not rows:
            raise DataError("header but no data rows")
        n_features = len(PRIMARY_FEATURE_CODES)
        bad = _first_bad_cell(values[:, :n_features], values[:, n_features:], region)
        if bad is not None:
            row, code, detail = bad
            raise _bad_value(f"row {rows[row]}", code, detail)
        order = sorted(range(len(dates)), key=dates.__getitem__)
        for a, b in zip(order, order[1:]):
            if dates[a] == dates[b]:
                raise DataError(f"duplicate date in dataset: {dates[a]}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    except csv.Error as exc:     # e.g. an unclosed quote running past the field limit
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    values = values[order]
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
        raise ConfigError(f"test_size must be in (0, {n}), got {test_size}")
    rng = np.random.default_rng(seed)
    test = np.sort(rng.choice(n, size=test_size, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    train = np.nonzero(mask)[0]
    return TrainTestSplit(tuple(int(i) for i in train),
                          tuple(int(i) for i in test), seed)
