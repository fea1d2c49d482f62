import json

import numpy as np
import pytest

from regio_forecast.artifact import (
    dumps_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from regio_forecast.errors import DataError
from regio_forecast.mtl import predict_monitoring


def test_save_load_roundtrip(trained_small_model, small_datasets, tmp_path):
    model, _, split = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert dumps_model(clone) == dumps_model(model)

    test = small_datasets[0].subset(split.test_indices)
    assert np.array_equal(predict_monitoring(clone, test), predict_monitoring(model, test))


def test_artifact_is_plain_json(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == "4"
    assert set(doc) == {"version", "config", "selected_features", "generic_weight",
                        "case_study", "feature_scaler", "store"}
    assert doc["config"] == {"k": 6}
    assert set(doc["feature_scaler"]) == {"column_codes", "landmarks"}
    assert len(doc["selected_features"]) == 13


def test_unknown_version_rejected(trained_small_model):
    model, _, _ = trained_small_model
    doc = model_to_dict(model)
    doc["version"] = "0"
    with pytest.raises(DataError,
                       match=r"^model artifact version '0' not supported \(expected '4'\)$"):
        model_from_dict(doc)


def test_missing_field_rejected(trained_small_model):
    model, _, _ = trained_small_model
    doc = model_to_dict(model)
    del doc["feature_scaler"]
    with pytest.raises(DataError, match="^model artifact is missing field 'feature_scaler'$"):
        model_from_dict(doc)
