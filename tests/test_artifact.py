import base64
import json

import numpy as np
import pytest

from regio_forecast.artifact import (
    decode_array,
    dumps_model,
    encode_array,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from regio_forecast.errors import DataError
from regio_forecast.mtl import predict_monitoring, train_mtl


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
    assert doc["version"] == "5"
    assert set(doc) == {"version", "config", "selected_features", "generic_weight",
                        "case_study", "feature_scaler", "store"}
    assert doc["config"] == {"k": 6}
    assert set(doc["feature_scaler"]) == {"column_codes", "landmarks"}
    assert set(doc["store"]) == {"features", "targets", "source_tags"}
    assert len(doc["selected_features"]) == 13
    arrays = {"store.features": (doc["store"]["features"], "<f8", model.store.features),
              "store.targets": (doc["store"]["targets"], "<f8", model.store.targets),
              "store.source_tags": (doc["store"]["source_tags"], "<i8", model.store.source_tags),
              "feature_scaler.landmarks": (doc["feature_scaler"]["landmarks"], "<f8",
                                           model.feature_scaler.landmarks)}
    for name, (field, dtype, values) in arrays.items():
        assert set(field) == {"dtype", "shape", "b64"}, name
        assert (field["dtype"], field["shape"]) == (dtype, list(values.shape)), name
        raw = base64.b64decode(field["b64"], validate=True)
        assert raw == values.astype(dtype).tobytes(), name


def test_unknown_version_rejected(trained_small_model):
    model, _, _ = trained_small_model
    doc = model_to_dict(model)
    for version in ("0", "4"):
        doc["version"] = version
        with pytest.raises(DataError, match=(f"^model artifact version '{version}' not supported "
                                             r"\(expected '5'\)$")):
            model_from_dict(doc)


def test_missing_field_rejected(trained_small_model):
    model, _, _ = trained_small_model
    doc = model_to_dict(model)
    del doc["feature_scaler"]
    with pytest.raises(DataError, match="^model artifact is missing field 'feature_scaler'$"):
        model_from_dict(doc)


def test_missing_array_key_names_the_array(trained_small_model):
    model, _, _ = trained_small_model
    for field, key in [("targets", "b64"), ("features", "shape"), ("source_tags", "dtype")]:
        doc = model_to_dict(model)
        del doc["store"][field][key]
        with pytest.raises(DataError,
                           match=f"^model artifact is missing field 'store.{field}.{key}'$"):
            model_from_dict(doc)


def test_roundtrip_derives_store_weights(small_datasets, tmp_path):
    case = small_datasets[0]
    model, _ = train_mtl(small_datasets, case.region, range(30), generic_weight=0.5)
    assert set(model.store.weights.tolist()) == {0.5, 1.0}
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    for name in ("features", "targets", "source_tags", "weights"):
        a, b = getattr(clone.store, name), getattr(model.store, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert clone.feature_scaler.landmarks.tobytes() == model.feature_scaler.landmarks.tobytes()
    assert clone.generic_weight == 0.5
    test = case.subset(range(30, case.n_rows))
    assert np.array_equal(predict_monitoring(clone, test), predict_monitoring(model, test))


@pytest.mark.parametrize("values, dtype", [
    (np.array([[0.1, -0.0, 1e-310], [np.pi, -1e308, 2.0 ** -1074]]), "<f8"),
    (np.array([-1, 0, 9, 2 ** 62]), "<i8"),
    (np.zeros((0, 13)), "<f8"),
    (np.asfortranarray(np.arange(12.0).reshape(3, 4)), "<f8"),
], ids=["f8_edge_values", "i8", "empty", "fortran_order"])
def test_array_codec_roundtrip(values, dtype):
    field = json.loads(json.dumps(encode_array(values, dtype)))
    clone = decode_array(field, "x", dtype)
    assert clone.dtype == np.dtype(dtype) and clone.shape == values.shape
    assert clone.tobytes() == np.ascontiguousarray(values, dtype=dtype).tobytes()
    assert not clone.flags.writeable
