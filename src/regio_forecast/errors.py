"""The two errors of the CLI exit-code contract, plus one internal signal.

ConfigError maps to exit 2 (the caller asked for something invalid) and
DataError to exit 3 (the inputs are broken); each carries its whole
explanation in its message. Anything else escaping to the CLI is an
internal invariant violation and maps to exit 4. ZeroVariance is the one
subclass: ``evaluation.bootstrap_interval`` catches it to skip a
degenerate replicate.
"""

from __future__ import annotations


class ConfigError(Exception):
    """A parameter or configuration value violates a precondition."""


class DataError(Exception):
    """An input dataset, matrix, or artifact is malformed or unusable."""


class ZeroVariance(DataError):
    """The actuals are constant, so r2 or explained variance is undefined."""
