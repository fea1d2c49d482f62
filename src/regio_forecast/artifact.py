"""Model artifact I/O: a JSON header line per trained model, then its raw arrays.

The layout (version "6") follows NumPy's ``.npy`` format and safetensors:
one line of sorted-key JSON, at most MAX_HEADER_BYTES bytes before its
newline, then the arrays and nothing after them. The header holds the
version, the kNN neighbor count ``k``, the ``feature_codes`` (the model's
``selected_features``, one per landmark row), the ``generic_weight``, the
``case_study`` region and the ``shapes`` of the arrays. The arrays are
the ``MtlModel`` fields that ARRAYS names, in its order, each as the
C-order bytes of its fixed dtype, so each starts where the one before it
ends: the quantile ``landmarks``, the unit ``features`` rows, the raw
``targets`` and the ``source_tags`` (region codes). Vote weights are not
written: the model derives them from the tags.
Retraining on identical inputs produces byte-identical artifacts.

Loading reads the body into one buffer, of which the arrays are views,
and checks only the layout. It raises DataError naming the file for: no
header line (a version 5 file is one JSON document with no newline, to be
retrained), another version, a header that is not UTF-8 or holds a NaN or
Infinity token, a missing field or one of the wrong JSON type, a shape
that is not a list of non-negative integers, and a body whose length is
not the sum of the shapes' byte counts. ``MtlModel`` checks every other
rule, and its refusals name the file too.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import ConfigError, DataError
from .ingest import RegionId
from .mtl import MtlModel

ARTIFACT_VERSION = "6"
MAX_HEADER_BYTES = 1 << 16
# the model's array fields in file order, with their dtypes
ARRAYS = {"landmarks": "<f8", "features": "<f8", "targets": "<f8", "source_tags": "<i8"}


def save_model(model: MtlModel, path: str | Path) -> None:
    """Write the header line, then each array's bytes in ARRAYS order."""
    arrays = {name: np.ascontiguousarray(getattr(model, name), dtype)
              for name, dtype in ARRAYS.items()}
    header = {
        "version": ARTIFACT_VERSION,
        "k": model.k,
        "feature_codes": list(model.selected_features),
        "generic_weight": model.generic_weight,
        "case_study": {"code": model.case_study.code, "name": model.case_study.name},
        "shapes": {name: list(a.shape) for name, a in arrays.items()},
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for a in arrays.values():
            fh.write(a.data)


def _field(header: dict, dotted: str, what: str, types: tuple[type, ...]):
    """The header's field at ``dotted`` (keys joined by dots), which must be a JSON ``what``."""
    value = header
    for key in dotted.split("."):
        try:
            value = value[key]
        except KeyError:
            raise KeyError(dotted) from None
    if type(value) not in types:   # int() would take 6.9, "6" and true
        raise TypeError(f"{dotted} must be a JSON {what}, got {value!r}")
    return value


def _model(header: dict, body: bytearray) -> MtlModel:
    """The model of a parsed header and the bytes after it."""
    version = header.get("version")
    if version != ARTIFACT_VERSION:
        raise DataError(f"model artifact version {version!r} not supported "
                        f"(expected {ARTIFACT_VERSION!r})")
    try:
        case_study = RegionId(_field(header, "case_study.code", "integer", (int,)),
                              _field(header, "case_study.name", "string", (str,)))
        generic_weight = float(_field(header, "generic_weight", "number", (int, float)))
        codes = tuple(_field(header, "feature_codes", "list", (list,)))
        k = _field(header, "k", "integer", (int,))
        shapes = {name: _field(header, f"shapes.{name}", "list", (list,)) for name in ARRAYS}
    except KeyError as exc:
        raise DataError(f"model artifact is missing field {exc}") from None
    offsets, end = {}, 0
    for name, shape in shapes.items():
        if not all(type(s) is int and s >= 0 for s in shape):
            raise ValueError(f"shapes.{name}: {shape!r} is not a list of non-negative integers")
        offsets[name] = end
        end += math.prod(shape) * np.dtype(ARRAYS[name]).itemsize
    if len(body) != end:
        raise ValueError(f"{len(body)} bytes follow the header, the shapes need {end}")
    arrays = {name: np.frombuffer(body, ARRAYS[name], math.prod(shape), offsets[name])
              .reshape(shape) for name, shape in shapes.items()}
    return MtlModel(codes, **arrays, k=k, generic_weight=generic_weight, case_study=case_study)


def load_model(path: str | Path) -> MtlModel:
    def non_finite(token: str):
        raise DataError(f"model artifact holds a non-finite number ({token})")

    try:
        with Path(path).open("rb") as fh:
            line = fh.readline(MAX_HEADER_BYTES + 1)
            if not line.endswith(b"\n"):
                raise DataError(
                    f"no header line of at most {MAX_HEADER_BYTES} bytes; not a version "
                    f"{ARTIFACT_VERSION} model artifact (retrain a model saved by an older "
                    "version)")
            header = json.loads(line.decode("utf-8"), parse_constant=non_finite)
            body = bytearray(max(0, os.fstat(fh.fileno()).st_size - len(line)))  # 0 for a pipe
            del body[fh.readinto(body):]
            body += fh.read()       # what the size did not count: a pipe's body, or growth
            return _model(header, body)
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError,
            ConfigError) as exc:
        # not JSON or nested too deep, a field of the wrong type, shapes that
        # do not fit the body, 1e999 where an integer belongs, or k < 1
        raise DataError(f"{path}: malformed model artifact ({exc})") from None


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file at a sibling temp path, renamed to ``path`` when the block succeeds."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    # unlike mkstemp's 0600, mode 0666 lets the umask decide, as open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    with _atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))
