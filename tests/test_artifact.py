import dataclasses
import json
import re

import numpy as np
import pytest

from regio_forecast.artifact import MAX_HEADER_BYTES, load_model, save_model
from regio_forecast.errors import DataError
from regio_forecast.knn import InstanceStore
from regio_forecast.mtl import predict_monitoring, train_mtl

from oracles import artifact_bytes_oracle, read_artifact_oracle


def test_save_load_roundtrip(trained_small_model, small_datasets, tmp_path):
    model, _, split = trained_small_model
    path, again = tmp_path / "model.json", tmp_path / "again.json"
    save_model(model, path)
    clone = load_model(path)
    save_model(clone, again)
    assert again.read_bytes() == path.read_bytes()

    test = small_datasets[0].subset(split.test_indices)
    assert np.array_equal(predict_monitoring(clone, test), predict_monitoring(model, test))


def test_artifact_layout(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    assert line == json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert header == {
        "version": "6",
        "k": 6,
        "feature_codes": list(model.feature_scaler.column_codes),
        "generic_weight": 1.0,
        "case_study": {"code": 0, "name": "Alberta"},
        "shapes": {"landmarks": [13, 224], "features": [224, 13], "targets": [224, 4],
                   "source_tags": [224]},
    }
    assert len(header["feature_codes"]) == 13
    assert body == b"".join([model.feature_scaler.landmarks.astype("<f8").tobytes(),
                             model.store.features.astype("<f8").tobytes(),
                             model.store.targets.astype("<f8").tobytes(),
                             model.store.source_tags.astype("<i8").tobytes()])


def test_edge_values_roundtrip_bit_for_bit(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    features = model.store.features.copy()
    features[:6, 0] = [-0.0, 5e-324, 1e-310, -1e308, np.pi, 2.0 ** -1074]
    tags = model.store.source_tags.copy()
    tags[:3] = [-1, 9, 2 ** 62]       # pooled tags, so weights stay 1.0
    edged = dataclasses.replace(model, store=InstanceStore(
        features, model.store.targets, tags, model.store.weights))
    path = tmp_path / "model.json"
    save_model(edged, path)
    clone = load_model(path)
    assert clone.store.features.tobytes() == features.tobytes()
    assert clone.store.source_tags.tobytes() == tags.tobytes()
    assert not clone.store.features.flags.writeable


def _saved_parts(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    return read_artifact_oracle(path)


def _refused(path, message):
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_model(path)


def test_unknown_version_rejected(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    header, arrays = _saved_parts(model, tmp_path)
    bad = tmp_path / "bad.json"
    for version in ("0", "5"):
        header["version"] = version
        bad.write_bytes(artifact_bytes_oracle(header, arrays))
        _refused(bad, f"model artifact version '{version}' not supported (expected '6')")


def test_missing_field_rejected(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    header, arrays = _saved_parts(model, tmp_path)
    del header["feature_codes"]
    bad = tmp_path / "bad.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    _refused(bad, "model artifact is missing field 'feature_codes'")


def test_missing_array_key_names_the_array(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    bad = tmp_path / "bad.json"
    for name in ("landmarks", "features", "targets", "source_tags"):
        header, arrays = _saved_parts(model, tmp_path)
        del header["shapes"][name]
        bad.write_bytes(artifact_bytes_oracle(header, arrays))
        _refused(bad, f"model artifact is missing field 'shapes.{name}'")


_NO_HEADER = ("no header line of at most 65536 bytes; not a version 6 model artifact "
              "(retrain a model saved by an older version)")
_MALFORMED = "malformed model artifact ("


def _header_cuts(data, _):
    return [(data[:cut], _NO_HEADER) for cut in range(data.index(b"\n") + 1)]


def _array_boundary_cuts(data, model):
    """Cuts at the start and end of each array, and one byte either side."""
    at, ends = data.index(b"\n") + 1, []
    for values in (model.feature_scaler.landmarks, model.store.features, model.store.targets,
                   model.store.source_tags):
        ends.append(at)
        at += values.nbytes
    assert at == len(data)
    return [(data[:cut], _MALFORMED) for end in ends + [at] for cut in (end - 1, end, end + 1)
            if ends[0] <= cut < len(data)]


def _oversized_header(data, _):
    end = data.index(b"\n")    # JSON may end in spaces
    return [(data[:end].ljust(MAX_HEADER_BYTES + 1) + data[end:], _NO_HEADER)]


def _version_5_document(data, _):
    v5 = {"version": "5", "config": {"k": 6}, "store": {
        "targets": {"dtype": "<f8", "shape": [1, 4], "b64": "A" * 44}}}
    return [(json.dumps(v5, sort_keys=True, separators=(",", ":")).encode("ascii"), _NO_HEADER)]


@pytest.mark.parametrize("damage", [
    _header_cuts, _array_boundary_cuts, lambda data, _: [(data + b"\0", _MALFORMED)],
    _oversized_header, _version_5_document,
], ids=["header_cut", "array_boundary_cut", "trailing_byte", "oversized_header",
        "version_5_document"])
def test_damaged_artifact_is_refused_naming_the_file(trained_small_model, tmp_path, damage):
    """Each damaged file raises DataError naming it, so the CLI exits 3, never 4."""
    model, _, _ = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    bad = tmp_path / "bad.json"
    for content, message in damage(path.read_bytes(), model):
        bad.write_bytes(content)
        _refused(bad, message)


def test_header_of_the_largest_size_loads(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    data = path.read_bytes()
    end = data.index(b"\n")
    padded = tmp_path / "padded.json"
    padded.write_bytes(data[:end].ljust(MAX_HEADER_BYTES) + data[end:])
    assert load_model(padded).store.features.tobytes() == model.store.features.tobytes()


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
