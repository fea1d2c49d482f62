import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import regio_forecast
from regio_forecast.artifact import ARRAYS, MAX_HEADER_BYTES, load_model, save_model
from regio_forecast.cli import main
from regio_forecast.errors import DataError
from regio_forecast.features import DEFAULT_SELECTED_FEATURES
from regio_forecast.ingest import region_by_name, write_regional_csv
from regio_forecast.mtl import MtlModel, predict_monitoring, train_mtl
from regio_forecast.scaling import apply_quantile_scaler

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
        "feature_codes": list(model.selected_features),
        "generic_weight": 1.0,
        "case_study": {"code": 0, "name": "Alberta"},
        "shapes": {"landmarks": [13, 224], "features": [224, 13], "targets": [224, 4],
                   "source_tags": [224]},
    }
    assert len(header["feature_codes"]) == 13
    assert body == b"".join([model.landmarks.astype("<f8").tobytes(),
                             model.features.astype("<f8").tobytes(),
                             model.targets.astype("<f8").tobytes(),
                             model.source_tags.astype("<i8").tobytes()])


def test_save_model_writes_the_model_arrays_that_ARRAYS_names(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    line = path.read_bytes().split(b"\n", 1)[0]
    assert path.read_bytes() == line + b"\n" + b"".join(
        np.ascontiguousarray(getattr(model, name), dtype).tobytes()
        for name, dtype in ARRAYS.items())
    assert json.loads(line)["shapes"] == {name: list(getattr(model, name).shape)
                                          for name in ARRAYS}


def test_edge_values_roundtrip_bit_for_bit(trained_small_model, tmp_path):
    model, _, _ = trained_small_model
    features = model.features.copy()
    features[:6, 0] = [-0.0, 5e-324, 1e-310, -1e308, np.pi, 2.0 ** -1074]
    tags = model.source_tags.copy()
    tags[:3] = [-1, 9, 2 ** 62]       # pooled tags, so weights stay 1.0
    edged = dataclasses.replace(model, features=features, source_tags=tags)
    path = tmp_path / "model.json"
    save_model(edged, path)
    clone = load_model(path)
    assert clone.features.tobytes() == features.tobytes()
    assert clone.source_tags.tobytes() == tags.tobytes()
    assert not clone.features.flags.writeable


def _saved_parts(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    return read_artifact_oracle(path)


def _refused(path, message):
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_model(path)


def _unsorted(lm):
    lm[3, 10], lm[3, 11] = lm[3, 11] + 1.0, lm[3, 10]
    return lm


_SHAPE = "landmark array shape does not match column codes"


# each landmark rule, broken in a trained model's landmarks (13 x 224)
@pytest.mark.parametrize("change, message", [
    (lambda lm: lm.ravel(), _SHAPE),
    (lambda lm: lm[:, :1], "at least 2 quantile landmarks per column are required"),
    (_unsorted, "landmarks must be sorted non-decreasing per column"),
], ids=["one_dimension", "one_landmark", "unsorted"])
def test_each_landmark_rule_is_refused_alike_everywhere(trained_small_model, small_datasets,
                                                        tmp_path, capsys, change, message):
    """The model, a loaded artifact (exit 3, naming the file) and the
    scaler's apply refuse broken landmarks with one message."""
    model, _, _ = trained_small_model
    landmarks = np.ascontiguousarray(change(model.landmarks.copy()))
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(model, landmarks=landmarks)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        apply_quantile_scaler(landmarks, np.zeros((2, len(model.selected_features))))
    header, arrays = _saved_parts(model, tmp_path)
    arrays["landmarks"] = landmarks
    header["shapes"]["landmarks"] = list(landmarks.shape)
    bad, series = tmp_path / "bad.json", tmp_path / "alberta.csv"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    _refused(bad, message)
    write_regional_csv(small_datasets[0], series)
    capsys.readouterr()
    assert main(["predict", "--model", str(bad), "--input", str(series),
                 "--out", str(tmp_path / "out")]) == 3
    assert f"{bad}: {message}" in capsys.readouterr().err


def test_landmark_rows_must_match_the_codes(trained_small_model, tmp_path):
    """One landmark row short: the model and a loaded artifact name the
    rule; the scaler's apply, which knows no codes, names the column count."""
    model, _, _ = trained_small_model
    landmarks = model.landmarks[:-1]
    with pytest.raises(DataError, match=f"^{re.escape(_SHAPE)}$"):
        dataclasses.replace(model, landmarks=landmarks)
    header, arrays = _saved_parts(model, tmp_path)
    arrays["landmarks"], header["shapes"]["landmarks"] = landmarks, [12, 224]
    bad = tmp_path / "bad.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    _refused(bad, _SHAPE)
    with pytest.raises(DataError, match=(r"^values of shape \(2, 13\) do not match "
                                         r"fitted column count 12$")):
        apply_quantile_scaler(landmarks, np.zeros((2, 13)))


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
    for values in (model.landmarks, model.features, model.targets,
                   model.source_tags):
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
    assert load_model(padded).features.tobytes() == model.features.tobytes()


def test_model_loads_from_a_pipe(trained_small_model, tmp_path):
    """A pipe's size reads 0, so the body is read to its end, not to that size."""
    model, _, _ = trained_small_model
    path = tmp_path / "model.json"
    save_model(model, path)
    data = path.read_bytes()
    assert len(data) < 1 << 16              # fits the pipe's buffer: no writer thread
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        clone = load_model(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert clone.features.tobytes() == model.features.tobytes()


def test_roundtrip_derives_store_weights(small_datasets, tmp_path):
    case = small_datasets[0]
    model, _ = train_mtl(small_datasets, case.region, range(30), generic_weight=0.5)
    assert set(model.weights.tolist()) == {0.5, 1.0}
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    for name in ("features", "targets", "source_tags", "weights"):
        a, b = getattr(clone, name), getattr(model, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert clone.landmarks.tobytes() == model.landmarks.tobytes()
    assert clone.generic_weight == 0.5
    test = case.subset(range(30, case.n_rows))
    assert np.array_equal(predict_monitoring(clone, test), predict_monitoring(model, test))


# Writes a model and a text file in the directory argv[2] under the umask
# argv[1] (octal), then prints both files' permission bits.
_UMASK_CHILD = """
import os, sys
from pathlib import Path
from regio_forecast.artifact import atomic_write_text, load_model, save_model
os.umask(int(sys.argv[1], 8))
out = Path(sys.argv[2])
save_model(load_model(out / "source.json"), out / "model.json")
atomic_write_text(out / "report.json", "{}")
print(" ".join(oct((out / name).stat().st_mode & 0o777) for name in ("model.json", "report.json")))
"""


@pytest.mark.parametrize("umask, mode", [("022", "0o644"), ("077", "0o600")])
def test_outputs_get_the_umask_mode(trained_small_model, tmp_path, umask, mode):
    model, _, _ = trained_small_model
    save_model(model, tmp_path / "source.json")
    env = {**os.environ, "PYTHONPATH": str(Path(regio_forecast.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _UMASK_CHILD, umask, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [mode, mode]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "report.json",
                                                          "source.json"]


def test_load_holds_the_body_in_memory_once(tmp_path):
    """The arrays are views of one buffer: no second copy of the body."""
    rng = np.random.default_rng(3)
    n, codes = 8000, DEFAULT_SELECTED_FEATURES
    landmarks = np.sort(rng.normal(size=(len(codes), 1000)), axis=1)
    model = MtlModel(codes, landmarks, rng.normal(size=(n, len(codes))),
                     rng.integers(0, 100, size=(n, 4)), np.zeros(n, dtype=int), 6, 1.0,
                     region_by_name("alberta"))
    path = tmp_path / "model.json"
    save_model(model, path)
    body = len(path.read_bytes().split(b"\n", 1)[1])
    assert body >= 1 << 20
    tracemalloc.start()
    try:
        clone = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clone.features.tobytes() == model.features.tobytes()
    assert not clone.targets.flags.writeable and not clone.landmarks.flags.writeable
    assert peak < 1.25 * body
