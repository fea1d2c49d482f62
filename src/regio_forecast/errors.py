"""The two errors of the CLI exit-code contract, and the gate for caller input.

ConfigError maps to exit 2 (the caller asked for something invalid) and
DataError to exit 3 (the inputs are broken); each carries its whole
explanation in its message, and anything else that escapes maps to exit 4.
Public entry points read caller values through ``as_array`` (DataError:
ragged rows, a dtype kind outside ``kinds`` so 1.5 is no index and "0" no
number, another ``ndim``, a text that is no day) and ``as_int``/``as_float``
(ConfigError: a bool, another type, a value outside [low, high]).
"""

from __future__ import annotations

import numpy as np


class ConfigError(Exception):
    """A parameter or configuration value violates a precondition."""


class DataError(Exception):
    """An input dataset, matrix, or artifact is malformed or unusable."""


def as_array(value, name: str, kinds: str, ndim: int | None = None, dtype=None) -> np.ndarray:
    """``value`` as a C-contiguous array of ``dtype``, uncopied if it already is one."""
    array = None
    try:
        array = np.asarray(value)
        if array.size and array.dtype.kind not in kinds:
            what = {"iu": "integers", "MOSU": "days"}.get(kinds, "numbers")
            raise DataError(f"{name} must be {what}, got dtype {array.dtype}")
        if ndim is not None and array.ndim != ndim:
            raise DataError(f"{name} must be {ndim}-D, got shape {array.shape}")
        return np.asarray(array, dtype, order="C")
    except (TypeError, ValueError) as exc:      # ragged rows, or a text that names no day
        raise DataError(f"{'ragged ' if array is None else ''}{name}: {exc}") from None


def as_int(value, name: str, low=None, high=None) -> int:
    """``value`` as an int in [low, high]; a bound of None is open."""
    return int(_number(value, name, low, high, (int, np.integer), "an integer"))


def as_float(value, name: str, low=None, high=None) -> float:
    """``value`` as a float in [low, high]; a bound of None is open, and NaN is in none."""
    return float(_number(value, name, low, high, (int, float, np.integer, np.floating), "a number"))


def _number(value, name: str, low, high, types: tuple[type, ...], what: str):
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if not ((low is None or value >= low) and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be {bounds}, got {value}")
    return value
