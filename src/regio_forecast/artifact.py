"""Model artifact I/O: one JSON document per trained model.

The document embeds everything needed to predict: the kNN neighbor count,
selected feature codes, the fitted quantile feature scaler, the one
weighted instance store (pooled-region instances at the generic weight,
then the case-study instances, with their raw target counts), the
case-study region, and the generic transfer weight. A document of any
other version, a missing field, bytes that are not UTF-8, a NaN or
Infinity token, a literal that overflows to infinity (such as 1e999), a
negative stored count, a k that is not a JSON integer >= 1, and selected
features that are unknown or disagree with the scaler or the store raise
DataError naming the file. Serialization is deterministic (sorted keys,
shortest round-trip float repr), so retraining on identical inputs
produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .ingest import RegionId
from .knn import InstanceStore, KnnConfig
from .mtl import MtlModel
from .scaling import QuantileNormalScaler

ARTIFACT_VERSION = "4"


def model_to_dict(model: MtlModel) -> dict:
    return {
        "version": ARTIFACT_VERSION,
        "config": model.cfg.to_json_dict(),
        "selected_features": list(model.selected_features),
        "generic_weight": model.generic_weight,
        "case_study": {"code": model.case_study.code, "name": model.case_study.name},
        "feature_scaler": model.feature_scaler.to_json_dict(),
        "store": model.store.to_json_dict(),
    }


def model_from_dict(doc: dict) -> MtlModel:
    version = doc.get("version")
    if version != ARTIFACT_VERSION:
        raise DataError(f"model artifact version {version!r} not supported "
                        f"(expected {ARTIFACT_VERSION!r})")
    try:
        case = doc["case_study"]
        return MtlModel(
            store=InstanceStore.from_json_dict(doc["store"]),
            feature_scaler=QuantileNormalScaler.from_json_dict(doc["feature_scaler"]),
            selected_features=tuple(doc["selected_features"]),
            cfg=KnnConfig.from_json_dict(doc["config"]),
            generic_weight=float(doc["generic_weight"]),
            case_study=RegionId(int(case["code"]), case["name"]),
        )
    except KeyError as exc:
        raise DataError(f"model artifact is missing field {exc}") from None


def dumps_model(model: MtlModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def save_model(model: MtlModel, path: str | Path) -> None:
    atomic_write_text(path, dumps_model(model))


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
    except (AttributeError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        # not JSON, a field of the wrong type, 1e999 where an integer belongs, or k < 1
        raise DataError(f"{path}: malformed model artifact ({exc})") from None
    numbers = {
        "store.features": model.store.features,
        "store.targets": model.store.targets,
        "store.weights": model.store.weights,
        "feature_scaler.landmarks": model.feature_scaler.landmarks,
        "generic_weight": model.generic_weight,
    }
    for name, values in numbers.items():
        if not np.all(np.isfinite(values)):
            raise DataError(f"{path}: model artifact holds a non-finite number ({name})")
    if np.any(model.store.targets < 0):
        raise DataError(f"{path}: model artifact holds a negative count (store.targets)")
    return model


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
