"""Exception hierarchy shared by every module.

Two mid-level branches matter for the CLI exit-code contract: ConfigError
maps to exit 2 (caller asked for something invalid), DataError maps to
exit 3 (the inputs are broken). Anything else escaping to the CLI is an
internal invariant violation and maps to exit 4.
"""

from __future__ import annotations


class RegioForecastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RegioForecastError):
    """A parameter or configuration value violates a precondition."""


class DataError(RegioForecastError):
    """An input dataset, matrix, or artifact is malformed or unusable."""


# --- ingest -----------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column missing from header: {column!r}")


class BadValue(DataError):
    """A cell is unparseable or outside its documented range."""

    def __init__(self, row: int, column: str, detail: str = ""):
        self.row = row
        self.column = column
        msg = f"bad value at row {row}, column {column!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DuplicateDate(DataError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"duplicate date in dataset: {date}")


class EmptyFile(DataError):
    pass


class BadTestSize(ConfigError):
    pass


class EmptyPool(DataError):
    pass


# --- feature pipeline -------------------------------------------------

class MissingPrimaryColumn(DataError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"primary feature column missing: {column!r}")


class RowCountMismatch(DataError):
    pass


class TooFewRows(DataError):
    pass


class UnknownFeatureCode(ConfigError):
    def __init__(self, code: str):
        self.code = code
        super().__init__(f"unknown feature code: {code!r}")


class BadTopN(ConfigError):
    pass


# --- scaling ----------------------------------------------------------

class ColumnMismatch(DataError):
    pass


class EmptyMatrix(DataError):
    pass


# --- kNN --------------------------------------------------------------

class EmptyTrainingSet(DataError):
    pass


class DimensionMismatch(DataError):
    pass


# --- transfer orchestration -------------------------------------------

class CaseStudyLeak(DataError):
    pass


class NegativeWeight(ConfigError):
    pass


class EmptyCaseData(DataError):
    pass


class TooFewRegions(DataError):
    pass


# --- PPE --------------------------------------------------------------

class InvalidCapacity(ConfigError):
    pass


class ZeroChcCount(ConfigError):
    pass


# --- evaluation -------------------------------------------------------

class ZeroVariance(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyInput(DataError):
    pass


class AllReplicatesDegenerate(DataError):
    pass


# --- artifacts / CLI --------------------------------------------------

class VersionMismatch(DataError):
    def __init__(self, found, expected):
        self.found = found
        self.expected = expected
        super().__init__(f"model artifact version {found!r} not supported (expected {expected!r})")


class BadSpec(ConfigError):
    pass


class BadConfig(ConfigError):
    pass
