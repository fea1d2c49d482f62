"""Regional daily datasets: valid by construction, read from CSV, split.

One CSV per region, UTF-8 (a byte-order mark is allowed), comma-separated,
with the exact header::

    date,feat_01,...,feat_27,infections,hospitalizations,recoveries,deaths

Dates are ``YYYY-MM-DD`` (ASCII digits, surrounding whitespace allowed)
naming a day of ``datetime.date``, in any row order; rows are sorted by
date, held as a ``datetime64[D]`` array. Other ISO-8601 forms, such as
``20200105`` or the week date ``2020-W01-1``, are bad dates on every
supported Python. A cell may be empty in real-world exports; empty cells
are forward-filled along the dates from the previous day within the same
column, and a file with an empty cell on its earliest date is rejected
(daily administrative series behave like step functions, so the previous
value is the best available estimate).

A file is decoded once, from its bytes, and its lines are split where a
file opened with ``newline=""`` splits them: at ``\\r\\n``, ``\\r`` and
``\\n``. Its body is read by one ``np.loadtxt`` call; a body that it
rejects (an empty cell among them) or that may hold a cell longer than
the ``csv`` module's field limit is read again by ``csv.reader`` and a
row loop, the one place that words a parse error. Both tables then share
one forward fill and validation, and a sort when their dates are out of
order. Each distinct date text is converted once per process.

Every RegionalDataset, whether parsed, generated, subset or built by a
caller, holds these rules when it is constructed: every cell is finite,
categorical cells lie in CATEGORICAL_RANGES, ``feat_04`` holds the code of
the dataset's region, ``feat_11`` (health centres) is an integer count in
[1, MAX_COUNT], targets are integer counts in [0, MAX_COUNT], and dates
are days of ``datetime.date`` (no NaT) that strictly increase. Each cell
rule is written once, in the ordered list ``_RULES``: its columns, a
vectorized pass test and the detail of a failing value. One pass over the
list checks a table; only a table that fails it gets a mask per rule, from
the same entries, to find the first bad cell in row-major order, which the
DataError names. A split (``split_train_test``) is two sorted, read-only
arrays of day indices.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .features import DERIVED_FORMULAS, PRIMARY_FEATURE_CODES, TARGET_COLUMNS

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
    return RegionId(code, REGION_ENCODINGS.get(code, ""))


def region_by_name(name: str) -> RegionId:
    wanted = normalize_region_name(name)
    for code, canonical in REGION_ENCODINGS.items():
        if normalize_region_name(canonical) == wanted:
            return RegionId(code, canonical)
    raise ConfigError(f"unknown region name: {name!r}")


@dataclass(frozen=True, eq=False)
class RegionalDataset:
    """All daily records of one region, ordered by date, held as columns.

    ``dates`` is a read-only 1-D ``datetime64[D]`` array (any sequence of
    ``datetime.date`` or ISO strings is converted), ``features`` a
    read-only (n, 27) float array ordered by PRIMARY_FEATURE_CODES and
    ``targets`` a read-only (n, 4) int array ordered by TARGET_COLUMNS;
    row i of both belongs to ``dates[i]``. Construction enforces the
    module's cell and date rules, so a dataset that exists is valid; the
    DataError names the date and column of the first bad cell.
    """

    region: RegionId
    dates: np.ndarray
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        try:
            dates = np.array(self.dates, dtype="datetime64[D]")
        except (TypeError, ValueError) as exc:
            raise DataError(f"dates: {exc}") from None
        if dates.ndim != 1:
            raise DataError(f"dates must be 1-D, got shape {dates.shape}")
        f = np.array(self.features, dtype=np.float64)
        t = np.asarray(self.targets)    # checked before the int cast, which hides NaN
        if t.dtype.kind not in "biuf":    # str, or ints past int64 as objects
            raise DataError(f"targets must be numbers, got dtype {t.dtype}")
        n = len(dates)
        if f.shape != (n, len(PRIMARY_FEATURE_CODES)) or t.shape != (n, len(TARGET_COLUMNS)):
            raise DataError(f"{n} dates need ({n}, {len(PRIMARY_FEATURE_CODES)}) features "
                            f"and ({n}, {len(TARGET_COLUMNS)}) targets, "
                            f"got {f.shape} and {t.shape}")
        bad = _first_bad_cell(f, t, self.region)
        bad_day = ~((_FIRST_DAY <= dates) & (dates <= _LAST_DAY))   # NaT compares False
        bad_day[1:] |= ~(np.diff(dates) > 0)
        day = int(bad_day.argmax()) if bad_day.any() else None
        if day is not None and (bad is None or day <= bad[0]):
            if not _FIRST_DAY <= dates[day] <= _LAST_DAY:
                raise DataError(f"dates[{day}] is {dates[day]}, not a day in "
                                f"{_FIRST_DAY} .. {_LAST_DAY}")
            raise _bad_value(str(dates[day]), "date", f"not after {dates[day - 1]}")
        if bad is not None:
            row, code, detail = bad
            raise _bad_value(str(dates[row]), code, detail)
        for name, array in (("dates", dates), ("features", f), ("targets", t.astype(np.int64))):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

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
            elif code in DERIVED_FORMULAS:
                with np.errstate(all="ignore"):    # a non-finite result is reported below
                    out[:, j] = DERIVED_FORMULAS[code](primary)
            else:
                raise ConfigError(f"unknown feature code: {code!r}")
        bad = ~np.isfinite(out)
        if bad.any():
            row, j = divmod(int(bad.argmax()), len(codes))
            raise _bad_value(f"{self.region.name}, {self.dates[row]}", codes[j],
                             f"derived value {out[row, j]} is not finite")
        return out

    def subset(self, indices: np.ndarray | Sequence[int]) -> "RegionalDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return RegionalDataset(self.region, self.dates[idx], self.features[idx],
                               self.targets[idx])


# Largest count stored exactly in both the parsed float and int64.
MAX_COUNT = 2 ** 53

# The days a date may name: those of datetime.date, which the CSV readers parse.
_FIRST_DAY, _LAST_DAY = np.datetime64(dt.date.min), np.datetime64(dt.date.max)


def _bad_value(where: str, column: str, detail: str) -> DataError:
    """The error for a bad cell at ``where``: a file's data row, or a date."""
    message = f"bad value at {where}, column {column!r}"
    return DataError(f"{message}: {detail}" if detail else message)


# The columns of the (n, 31) table the cell rules read: features, then targets.
_CODES = CSV_HEADER[1:]
_CATEGORICAL_BOUNDS = np.array(
    [(min(allowed), max(allowed)) for allowed in CATEGORICAL_RANGES.values()], dtype=np.float64).T


def _whole_in(x: np.ndarray, low, high) -> np.ndarray:
    """Where ``x`` holds a whole number in [low, high]; NaN is in no range."""
    return (x >= low) & (x <= high) & (x == np.floor(x))


def _rule(codes: Sequence[str], passes: Callable, detail: Callable) -> tuple:
    """A rule over the table columns ``codes``, held as spans: (part, its columns
    there, a slice if all, and their table indices) for features 0 and targets 1."""
    spans = []
    for part, names, first in ((0, PRIMARY_FEATURE_CODES, 0),
                               (1, TARGET_COLUMNS, len(PRIMARY_FEATURE_CODES))):
        columns = [names.index(code) for code in codes if code in names]
        if columns:
            spans.append((part, slice(None) if len(columns) == len(names) else columns,
                          np.add(columns, first)))
    return spans, passes, detail


# The cell rules in report order, each with the pass test of a block of its
# cells and the detail of a failing value: a cell that breaks several rules
# is reported under the first. Each categorical set is a run of consecutive
# integers, so a whole number within its bounds is in it. Targets keep their
# own dtype, so an int64 count is compared with MAX_COUNT as an integer.
_RULES = (
    _rule(_CODES, lambda x, region: np.isfinite(x),
          lambda value, code, region: f"{value} is not finite"),
    _rule(tuple(CATEGORICAL_RANGES), lambda x, region: _whole_in(x, *_CATEGORICAL_BOUNDS),
          lambda value, code, region:
          f"{value} not in enumerated range {sorted(CATEGORICAL_RANGES[code])}"),
    _rule(("feat_04",), lambda x, region: x == region.code,
          lambda value, code, region:
          f"region code {int(value)} does not match {region.name} ({region.code})"),
    _rule(("feat_11",), lambda x, region: _whole_in(x, 1, MAX_COUNT),
          lambda value, code, region: f"{value} is not a health centre count in [1, {MAX_COUNT}]"),
    _rule(TARGET_COLUMNS, lambda x, region: _whole_in(x, -np.inf, MAX_COUNT),
          lambda value, code, region: f"{value} is not an integer count up to {MAX_COUNT}"),
    _rule(TARGET_COLUMNS, lambda x, region: x >= 0,
          lambda value, code, region: f"{value} is negative"),
)


def _rule_masks(features: np.ndarray, targets: np.ndarray, region: RegionId) -> np.ndarray:
    """The (rules, n, 31) masks of the cells that break each rule, in report order."""
    parts = (features, targets)
    masks = np.zeros((len(_RULES), len(features), len(_CODES)), dtype=bool)
    with np.errstate(invalid="ignore"):
        for mask, (spans, passes, _) in zip(masks, _RULES):
            for part, columns, table_columns in spans:
                mask[:, table_columns] = ~passes(parts[part][:, columns], region)
    return masks


def _first_bad_cell(features: np.ndarray, targets: np.ndarray,
                    region: RegionId) -> tuple[int, str, str] | None:
    """Row index, column code and detail of the first cell that breaks a rule, row-major.

    One pass runs each rule's test over its cells and stops at the first
    block that fails, building no (n, 31) mask; only a table that fails it
    gets ``_rule_masks``. The detail is that of the first rule, in
    ``_RULES`` order, that the cell breaks.
    """
    parts = (features, targets)
    with np.errstate(invalid="ignore"):
        if all(passes(parts[part][:, columns], region).all()
               for spans, passes, _ in _RULES for part, columns, _ in spans):
            return None
    masks = _rule_masks(features, targets, region)
    row, col = divmod(int(masks.any(axis=0).argmax()), len(_CODES))
    n_features = features.shape[1]
    value = (features[row, col] if col < n_features else targets[row, col - n_features]).item()
    detail = _RULES[int(masks[:, row, col].argmax())][2]
    return row, _CODES[col], detail(value, _CODES[col], region)


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@functools.lru_cache(maxsize=1 << 14)
def _date_ordinal(text: str) -> int:
    """Days from 1970-01-01 to a ``YYYY-MM-DD`` date, padded or not (ValueError if not one).

    Pooled files repeat one calendar, so each distinct text is converted
    once; a bad date is not cached and raises again.
    """
    day = text.strip()
    if not _ISO_DAY.fullmatch(day):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(day).toordinal() - 719163


# A line as a file opened with newline="" reads it: up to \r\n, \r or \n, or to the end.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _lines(text: str) -> io.StringIO:
    """``text`` as a file opened with ``newline=""``: its lines end at ``\\r\\n``, ``\\r`` or ``\\n``."""
    return io.StringIO(text, newline="")


def _header_and_body(text: str) -> tuple[list[str] | None, str]:
    """The first CSV record of ``text`` (None if there is none) and the text after it.

    ``csv.reader`` takes the lines one at a time, as many as the record
    spans, so the rest of the text is never split.
    """
    end = 0

    def lines():
        nonlocal end
        for line in _LINE.finditer(text):
            end = line.end()
            yield line.group()

    return next(csv.reader(lines()), None), text[end:]


def _load_table(body: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Day numbers and (n, 31) cell values of the data lines numpy's C reader takes, or None.

    One ``np.loadtxt`` call reads the cells (Python's float syntax without
    ``_`` or non-ASCII digits) and the dates, skipping only empty lines.
    Whatever it rejects (an empty or odd cell, a cell count that varies, a
    bad date, no data rows) and a width other than 32 give None, so the
    row loop of ``_read_table`` stays the only source of text-fault
    messages. So do a line longer than the csv module's field limit and a
    quoted cell that runs past a line end, which could hold a field longer
    than that limit: ``csv.reader`` refuses such a field, and ``loadtxt``
    has no limit.

    Only a body that holds a quote is split into its exact lines, which
    the quote check needs. Any other body is split at ``\\n``, or at ``\\r``
    when it has no ``\\n``; ``loadtxt`` refuses a line holding a ``\\r``
    before its end, so a body mixing lone ``\\r`` with ``\\n`` takes the row
    loop, and one that ``loadtxt`` takes was split at its exact lines.
    """
    if not body or body.isspace():          # loadtxt would warn of no data
        return None
    if '"' in body:
        lines = _lines(body).readlines()
        if any(line.count('"') % 2 for line in lines):
            return None
    else:
        lines = body.split("\n" if "\n" in body else "\r")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None,
                           quotechar='"', ndmin=2, converters={0: _date_ordinal})
    except ValueError:
        return None
    if table.shape[1] != len(CSV_HEADER):
        return None
    return table[:, 0].astype(np.int64), table[:, 1:]


def _read_table(records: list[list[str]]
                ) -> tuple[list[int], list[int], np.ndarray, np.ndarray | None]:
    """Row numbers, day numbers, (n, 31) cell values and empty-cell mask of the data rows.

    One loop checks cell counts and ISO dates up to the first row fault
    and sets each blank cell to NaN, marked in the mask (None if there is
    none); one numpy call (Python's float syntax) converts the cells
    before the fault. Only if that fails are they read one by one, and
    text that is no number raises DataError, so the first text fault in
    row-major order wins.
    """
    rows, dates, cells, blanks, fault = [], [], [], {}, None
    for row_number, record in enumerate(records, start=1):
        if not any(map(str.strip, record)):
            continue
        if len(record) != len(CSV_HEADER):
            fault = _bad_value(f"row {row_number}", "row",
                               f"expected {len(CSV_HEADER)} cells, got {len(record)}")
            break
        try:
            dates.append(_date_ordinal(record[0]))
        except ValueError:
            fault = _bad_value(f"row {row_number}", "date", record[0])
            break
        texts = record[1:]
        if not all(map(str.strip, texts)):
            blank = blanks[len(cells)] = [not text.strip() for text in texts]
            texts = ["nan" if gap else text for gap, text in zip(blank, texts)]
        rows.append(row_number)
        cells.append(texts)
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        # Name the first cell float() refuses; numpy reads a str with float()'s syntax.
        for row_number, record in zip(rows, cells):
            for code, text in zip(CSV_HEADER[1:], record):
                text = text.strip()
                try:
                    float(text)
                except ValueError:
                    raise _bad_value(f"row {row_number}", code, text) from None
        raise
    if fault is not None:
        raise fault
    empty = None
    if blanks:
        empty = np.zeros(values.shape, dtype=bool)
        empty[list(blanks)] = list(blanks.values())
    return rows, dates, values, empty


def parse_regional_csv(path: str | Path, region: RegionId) -> RegionalDataset:
    """Parse and validate one region's CSV into a RegionalDataset.

    The file is UTF-8, with or without a byte-order mark, and is decoded
    once. Its body lines are read by one ``np.loadtxt`` call; only when
    that rejects them (say, for an empty cell) does ``csv.reader`` read
    them again in a row loop, which words every text fault. Either table
    then takes the same path: rows out of date order are sorted by date
    (stable), empty cells take the previous day's value, and the
    RegionalDataset checks the cells. A missing or misordered header
    column, an empty file, a bad cell (named by data row number and
    column) or a repeated date raises DataError, its message starting with
    the file path; so do bytes that are not UTF-8, wherever they are in
    the file, and quoting that the csv module cannot read. A file with
    several faults reports the first of: bytes that are not UTF-8; a
    header fault; a text fault (cell count, date, number syntax) in
    row-major order; an empty cell on the earliest date; the first cell by
    date that breaks a RegionalDataset rule; a repeated date.
    """
    path = Path(path)
    try:
        header, body = _header_and_body(path.read_bytes().decode("utf-8-sig"))
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
        table = _load_table(body)
        if table is None:
            rows, dates, values, empty = _read_table(list(csv.reader(_lines(body))))
            if not rows:
                raise DataError("header but no data rows")
        else:
            (dates, values), rows, empty = table, None, None
        dates = np.array(dates, "datetime64[D]")
        order = np.arange(len(dates))
        if np.any(dates[1:] < dates[:-1]):
            order = np.argsort(dates, kind="stable")
            dates, values = dates[order], values[order]
            if empty is not None:
                empty = empty[order]
        if empty is not None:
            if empty[0].any():
                raise _bad_value(f"row {rows[order[0]]}", CSV_HEADER[1 + int(empty[0].argmax())],
                                 "missing cell on the earliest date (nothing to forward-fill)")
            source = np.where(empty, 0, np.arange(len(rows))[:, None])
            values = np.take_along_axis(values, np.maximum.accumulate(source, axis=0), axis=0)
        features, targets = np.hsplit(values, [len(PRIMARY_FEATURE_CODES)])
        try:
            return RegionalDataset(region, dates, features, targets)
        except DataError:
            # Name the file row of the first bad cell by date, else the repeated date.
            bad = _first_bad_cell(features, targets, region)
            if bad is None:
                repeated = dates[int(np.argmax(np.diff(dates) == 0))]
                raise DataError(f"duplicate date in dataset: {repeated}") from None
            if rows is None:    # loadtxt read each line but the empty ones as a row
                rows = [i for i, line in enumerate(_lines(body), 1) if line.strip("\r\n")]
            row, code, detail = bad
            raise _bad_value(f"row {rows[order[row]]}", code, detail) from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    except csv.Error as exc:     # e.g. an unclosed quote running past the field limit
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_regional_csv(ds: RegionalDataset, path: str | Path) -> None:
    """Serialize a dataset in the exact ingest schema (round-trips losslessly).

    The bytes are those ``csv.writer`` gives: no cell needs quoting, lines
    end with CRLF, features are written by ``repr`` and the integer targets
    as integers.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(
            date + "," + ",".join(map(repr, features)) + "," + ",".join(map(str, targets))
            + "\r\n" for date, features, targets in zip(
                np.datetime_as_string(ds.dates).tolist(), ds.features.tolist(),
                ds.targets.tolist()))


@dataclass(frozen=True, eq=False)
class TrainTestSplit:
    """Sorted, read-only ``intp`` day indices into one dataset: disjoint, together every day."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def split_train_test(ds: RegionalDataset, test_size: int, seed: int) -> TrainTestSplit:
    """Hold out ``test_size`` days drawn uniformly without replacement.

    The same (dataset, test_size, seed) always produces the same split.
    """
    n = ds.n_rows
    if not 0 < test_size < n:
        raise ConfigError(f"test_size must be in (0, {n}), got {test_size}")
    held_out = np.zeros(n, dtype=bool)
    held_out[np.random.default_rng(seed).choice(n, size=test_size, replace=False)] = True
    train, test = np.flatnonzero(~held_out), np.flatnonzero(held_out)
    train.setflags(write=False)
    test.setflags(write=False)
    return TrainTestSplit(train, test)
