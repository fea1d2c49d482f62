"""Model artifact I/O: one JSON document per trained model.

The document embeds everything needed to predict: the kNN neighbor count,
selected feature codes, the fitted quantile feature scaler, the one
instance store (pooled-region instances, then the case-study instances,
with their raw target counts and region tags), the case-study region, and
the generic transfer weight. Each numeric array is an object
``{"dtype": "<f8" | "<i8", "shape": [...], "b64": ...}`` holding the
base64 of its little-endian bytes, so it round-trips exactly. The store's
vote weights are not written: they are 1.0 on case-study rows and the
generic weight on pooled rows, and loading derives them from the tags.

A document of any other version, a missing field, bytes that are not
UTF-8, a NaN or Infinity token, a literal that overflows to infinity
(such as 1e999), an array with another dtype, a bad shape, bad base64 or
a byte count that does not fill its shape, a non-finite stored number, a
negative stored count, a generic weight outside [0, 1], a k that is not
a JSON integer >= 1, and selected features that are unknown or disagree
with the scaler or the store raise DataError naming the file.
Serialization is deterministic (sorted keys, fixed array bytes), so
retraining on identical inputs produces byte-identical artifacts.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import ConfigError, DataError
from .ingest import RegionId
from .knn import InstanceStore, KnnConfig
from .mtl import MtlModel, source_weights
from .scaling import QuantileNormalScaler

ARTIFACT_VERSION = "5"


def encode_array(values: np.ndarray, dtype: str) -> dict:
    """``values`` as ``dtype`` ("<f8" or "<i8"): its shape and the base64 of its bytes."""
    a = np.ascontiguousarray(values, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape),
            "b64": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(d: dict, name: str, dtype: str) -> np.ndarray:
    """The read-only array of an ``encode_array`` object, whose dtype must be ``dtype``.

    A field that does not decode raises ValueError, and a missing key
    KeyError, naming ``name``.
    """
    try:
        found, shape, text = d["dtype"], d["shape"], d["b64"]
    except KeyError as exc:
        raise KeyError(f"{name}.{exc.args[0]}") from None
    if found != dtype:
        raise ValueError(f"{name}: dtype {found!r}, expected {dtype!r}")
    if type(shape) is not list or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"{name}: shape {shape!r} is not a list of non-negative integers")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{name}: bad base64 ({exc})") from None
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError(f"{name}: {len(raw)} bytes do not fill shape {shape} of {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def model_to_dict(model: MtlModel) -> dict:
    return {
        "version": ARTIFACT_VERSION,
        "config": {"k": model.cfg.k},
        "selected_features": list(model.selected_features),
        "generic_weight": model.generic_weight,
        "case_study": {"code": model.case_study.code, "name": model.case_study.name},
        "feature_scaler": {
            "column_codes": list(model.feature_scaler.column_codes),
            "landmarks": encode_array(model.feature_scaler.landmarks, "<f8"),
        },
        "store": {
            "features": encode_array(model.store.features, "<f8"),
            "targets": encode_array(model.store.targets, "<f8"),
            "source_tags": encode_array(model.store.source_tags, "<i8"),
        },
    }


def model_from_dict(doc: dict) -> MtlModel:
    version = doc.get("version")
    if version != ARTIFACT_VERSION:
        raise DataError(f"model artifact version {version!r} not supported "
                        f"(expected {ARTIFACT_VERSION!r})")
    try:
        case = doc["case_study"]
        case_study = RegionId(int(case["code"]), case["name"])
        generic_weight = float(doc["generic_weight"])
        store, scaler = doc["store"], doc["feature_scaler"]
        tags = decode_array(store["source_tags"], "store.source_tags", "<i8")
        return MtlModel(
            store=InstanceStore(decode_array(store["features"], "store.features", "<f8"),
                                decode_array(store["targets"], "store.targets", "<f8"),
                                tags, source_weights(tags, case_study, generic_weight)),
            feature_scaler=QuantileNormalScaler(
                tuple(scaler["column_codes"]),
                decode_array(scaler["landmarks"], "feature_scaler.landmarks", "<f8")),
            selected_features=tuple(doc["selected_features"]),
            cfg=_knn_config(doc["config"]),
            generic_weight=generic_weight,
            case_study=case_study,
        )
    except KeyError as exc:
        raise DataError(f"model artifact is missing field {exc}") from None


def _knn_config(d: dict) -> KnnConfig:
    if type(d["k"]) is not int:   # int() would take 6.9, "6" and true
        raise TypeError(f"config.k must be a JSON integer, got {d['k']!r}")
    return KnnConfig(k=d["k"])


_JSON_LAYOUT = {"sort_keys": True, "separators": (",", ":")}


def dumps_model(model: MtlModel) -> str:
    return json.dumps(model_to_dict(model), **_JSON_LAYOUT)


def save_model(model: MtlModel, path: str | Path) -> None:
    """Write ``dumps_model``'s text, streamed into the file rather than built first."""
    with _atomic_open(path) as fh:
        json.dump(model_to_dict(model), fh, **_JSON_LAYOUT)


def load_model(path: str | Path) -> MtlModel:
    def non_finite(token: str):
        raise DataError(f"model artifact holds a non-finite number ({token})")

    try:
        with Path(path).open(encoding="utf-8") as fh:
            model = model_from_dict(json.load(fh, parse_constant=non_finite))
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError,
            ConfigError) as exc:
        # not JSON or nested too deep, a field of the wrong type or an array
        # that does not decode, 1e999 where an integer belongs, or k < 1
        raise DataError(f"{path}: malformed model artifact ({exc})") from None
    numbers = {
        "store.features": model.store.features,
        "store.targets": model.store.targets,
        "feature_scaler.landmarks": model.feature_scaler.landmarks,
        "generic_weight": model.generic_weight,
    }
    for name, values in numbers.items():
        if not np.all(np.isfinite(values)):
            raise DataError(f"{path}: model artifact holds a non-finite number ({name})")
    if not 0 <= model.generic_weight <= 1:
        raise DataError(f"{path}: model artifact's generic weight must be in [0, 1], "
                        f"got {model.generic_weight}")
    if np.any(model.store.targets < 0):
        raise DataError(f"{path}: model artifact holds a negative count (store.targets)")
    return model


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A text file at a sibling temp path, renamed to ``path`` when the block succeeds."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    with _atomic_open(path) as fh:
        fh.write(text)
