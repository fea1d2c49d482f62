import base64
import hashlib
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regio_forecast.cli import main
from regio_forecast.features import DERIVED_FEATURE_CODES, PRIMARY_FEATURE_CODES, score_relevance
from regio_forecast.ingest import (
    RegionalDataset, parse_regional_csv, region_by_name, split_train_test, write_regional_csv)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["synth", "--regions", "3", "--rows", "80", "--seed", "7",
                 "--out", str(root)]) == 0
    return root


def run(args):
    return main([str(a) for a in args])


def decoded(field):
    """The writable array of an artifact's {"dtype", "shape", "b64"} object."""
    raw = base64.b64decode(field["b64"], validate=True)
    return np.frombuffer(raw, dtype=field["dtype"]).reshape(field["shape"]).copy()


def encoded(values):
    return {"dtype": values.dtype.str, "shape": list(values.shape),
            "b64": base64.b64encode(values.tobytes()).decode("ascii")}


def test_synth_writes_parseable_files(data_dir):
    files = sorted(p.name for p in data_dir.glob("*.csv"))
    assert files == ["alberta.csv", "british_columbia.csv", "manitoba.csv"]


def test_train_writes_artifact_and_report(data_dir, tmp_path):
    out = tmp_path / "model_out"
    code = run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--seed", "3", "--out", out])
    assert code == 0
    doc = json.loads((out / "model.json").read_text())
    assert doc["version"] == "5"
    assert doc["case_study"]["name"] == "Alberta"
    report = json.loads((out / "train_report.json").read_text())
    assert not {"target_mins", "target_maxs"} & set(report)
    assert report["pooled_regions"] == ["British Columbia", "Manitoba"]
    assert report["generic_instances"] == 2 * 80
    assert report["dedicated_instances"] == 2 * 80 + 64


def test_train_missing_case_file_exits_3(data_dir, tmp_path, capsys):
    code = run(["train", "--data-dir", data_dir, "--case-study", "quebec",
                "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 3
    assert "quebec.csv" in capsys.readouterr().err


def test_bad_k_exits_2(data_dir, tmp_path):
    code = run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--k", "0", "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 2


def test_bad_test_days_exits_2(data_dir, tmp_path):
    code = run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "80", "--out", tmp_path / "x"])
    assert code == 2


def test_missing_data_dir_exits_3(tmp_path):
    code = run(["train", "--data-dir", tmp_path / "nope", "--out", tmp_path / "x"])
    assert code == 3


def test_config_file_and_flag_precedence(data_dir, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "case_study": "british columbia", "test_days": 20, "seed": 4}))
    out = tmp_path / "out"
    code = run(["train", "--config", cfg, "--data-dir", data_dir,
                "--test-days", "16", "--out", out])
    assert code == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["case_study"] == "British Columbia"   # from file
    assert report["test_days_held_out"] == 16           # flag wins over file


def test_unknown_config_key_exits_2(data_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert run(["train", "--config", cfg, "--data-dir", data_dir,
                "--out", tmp_path / "x"]) == 2


@pytest.mark.parametrize("key, value", [
    ("k", "six"), ("k", 6.0), ("k", True), ("generic_weight", False),
    ("generic_weight", "1"), ("case_study", 3), ("out", None),
])
def test_config_value_of_wrong_type_exits_2(data_dir, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(["train", "--config", cfg, "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", tmp_path / "x"]) == 2
    assert f"{cfg}: config key {key!r} must be" in capsys.readouterr().err


def test_non_utf8_config_exits_2(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"case_study": "Qu\xe9bec"}')
    assert run(["train", "--config", cfg, "--data-dir", data_dir,
                "--out", tmp_path / "x"]) == 2
    assert f"{cfg}: not UTF-8 text (byte 0xe9)" in capsys.readouterr().err


def test_evaluate_single_region(data_dir, tmp_path):
    out = tmp_path / "eval"
    code = run(["evaluate", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--seed", "3", "--bootstrap", "60",
                "--out", out])
    assert code == 0
    lines = (out / "evaluation.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4                         # header + one row per target
    assert lines[0].startswith("province,target,r2_low,")
    long_lines = (out / "evaluation_long.csv").read_text().strip().splitlines()
    assert len(long_lines) == 1 + 16


@pytest.mark.parametrize("command", [["evaluate", "--case-study", "alberta"], ["rotate"]])
def test_constant_held_out_target_names_region_and_target(data_dir, tmp_path, capsys,
                                                          command):
    bad_dir = tmp_path / "no_deaths"
    shutil.copytree(data_dir, bad_dir)
    path = bad_dir / "alberta.csv"
    lines = path.read_text().splitlines()
    lines[1:] = [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]    # deaths
    path.write_text("\n".join(lines) + "\n")
    code = run([*command, "--data-dir", bad_dir, "--test-days", "16", "--seed", "3",
                "--bootstrap", "40", "--out", tmp_path / "x"])
    assert code == 3
    assert "data error: Alberta, deaths: actuals are constant; r2 is undefined\n" \
        == capsys.readouterr().err


def test_rotate_emits_per_target_tables(data_dir, tmp_path):
    out = tmp_path / "rot"
    code = run(["rotate", "--data-dir", data_dir, "--test-days", "12",
                "--seed", "2", "--bootstrap", "40", "--out", out])
    assert code == 0
    for target in ("infections", "hospitalizations", "recoveries", "deaths"):
        lines = (out / f"monitoring_{target}.csv").read_text().strip().splitlines()
        assert len(lines) == 4                         # header + 3 province rows
        header = lines[0].split(",")
        assert header[0] == "province" and header[-1] == "tt_seconds"
        assert len(header) == 14
    doc = json.loads((out / "rotation.json").read_text())
    assert len(doc) == 3


def test_rotate_deterministic_modulo_walltime(data_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["rotate", "--data-dir", data_dir, "--test-days", "12",
                    "--seed", "2", "--bootstrap", "40", "--out", out]) == 0
    for name in ("monitoring_infections.csv", "monitoring_deaths.csv"):
        rows_a = (out_a / name).read_text().strip().splitlines()
        rows_b = (out_b / name).read_text().strip().splitlines()
        # identical except the wall-clock training-time column
        strip = lambda lines: [",".join(r.split(",")[:-1]) for r in lines]
        assert strip(rows_a) == strip(rows_b)


def test_predict_and_ppe_roundtrip(data_dir, tmp_path):
    out = tmp_path / "model_out"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--seed", "3", "--out", out]) == 0
    model = out / "model.json"
    input_csv = data_dir / "alberta.csv"

    pred_out = tmp_path / "pred"
    assert run(["predict", "--model", model, "--input", input_csv,
                "--out", pred_out]) == 0
    lines = (pred_out / "predictions.csv").read_text().strip().splitlines()
    assert len(lines) == 81
    assert lines[0].startswith("date,infections,")

    ppe_out = tmp_path / "ppe"
    assert run(["ppe", "--model", model, "--input", input_csv,
                "--capacity", "0.75", "--personnel", "200", "--out", ppe_out]) == 0
    lines = (ppe_out / "ppe_forecast.csv").read_text().strip().splitlines()
    assert len(lines) == 81
    assert lines[0].startswith("date,predicted_hospitalized,hsp_ratio,kits,")


def test_ppe_invalid_capacity_exits_2(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out2"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    for capacity, personnel, message in [
            ("1.2", "200", "operating capacity must be in [0, 1], got 1.2"),
            ("0.75", "nan", "personnel must be finite and >= 0, got nan"),
            ("0.75", "inf", "personnel must be finite and >= 0, got inf")]:
        code = run(["ppe", "--model", out / "model.json",
                    "--input", data_dir / "alberta.csv",
                    "--capacity", capacity, "--personnel", personnel,
                    "--out", tmp_path / "p"])
        assert code == 2
        assert message in capsys.readouterr().err


def test_ppe_health_centre_count_below_one_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    lines = (data_dir / "alberta.csv").read_text().splitlines()
    column = lines[0].split(",").index("feat_11")
    for text, shown in [("0", "0.0"), ("1e300", "1e+300"), ("2.5", "2.5")]:
        cells = lines[5].split(",")
        cells[column] = text
        path = tmp_path / f"feat_11_{text}" / "alberta.csv"
        path.parent.mkdir()
        path.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
        code = run(["ppe", "--model", out / "model.json", "--input", path,
                    "--out", tmp_path / "p"])
        assert code == 3
        assert (f"{path}: bad value at row 5, column 'feat_11': {shown} is not a health "
                "centre count in [1, 9007199254740992]") in capsys.readouterr().err
    assert not (tmp_path / "p" / "ppe_forecast.csv").exists()


def test_unknown_case_study_exits_2(data_dir, tmp_path, capsys):
    code = run(["train", "--data-dir", data_dir, "--case-study", "atlantis",
                "--out", tmp_path / "x"])
    assert code == 2
    assert "config error: unknown region name: 'atlantis'" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_non_finite_noise_exits_2(tmp_path, capsys, noise):
    assert run(["synth", "--regions", "1", "--rows", "10", "--noise", noise,
                "--out", tmp_path]) == 2
    assert f"noise must be finite and >= 0, got {noise}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_synth_rows_past_the_last_date_exit_2(tmp_path, capsys):
    # rejected before anything is allocated
    assert run(["synth", "--rows", "99999999999999", "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        "config error: rows must be <= 2914611 (the last date must fit in datetime.date), "
        "got 99999999999999\n")
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_artifact_version_exits_3(data_dir, tmp_path):
    out = tmp_path / "model_out3"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    doc["version"] = "999"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3


def test_version_1_artifact_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out4"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    for version in ("1", "2", "3", "4"):     # checked before any other field is read
        doc["version"] = version
        old = tmp_path / f"v{version}_model.json"
        old.write_text(json.dumps(doc))
        code = run(["predict", "--model", old, "--input", data_dir / "alberta.csv",
                    "--out", tmp_path / "x"])
        assert code == 3
        assert (f"{old}: model artifact version '{version}' not supported (expected '5')"
                in capsys.readouterr().err)
    doc["version"] = "5"
    del doc["store"]
    old.write_text(json.dumps(doc))
    assert run(["predict", "--model", old, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert f"{old}: model artifact is missing field 'store'" in capsys.readouterr().err


def test_negative_store_target_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    targets = decoded(doc["store"]["targets"])
    targets[7, 2] = -1.0
    doc["store"]["targets"] = encoded(targets)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: model artifact holds a negative count (store.targets)" \
        in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


@pytest.mark.parametrize("column, text", [
    ("feat_02", "nan"), ("infections", "inf"), ("feat_04", "1.0"),
])
def test_bad_cell_exits_3_naming_row_and_column(data_dir, tmp_path, capsys, column, text):
    bad_dir = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad_dir)
    path = bad_dir / "alberta.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index(column)] = text
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    code = run(["train", "--data-dir", bad_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"row 5, column '{column}'" in err
    assert f"{path}: bad value" in err          # names the file among the 3 loaded


def _rename_feat_02(lines):
    lines[0] = lines[0].replace("feat_02", "feat_2")


def _repeat_a_day(lines):
    lines.insert(6, lines[5])


def _swap_two_columns(lines):
    lines[:] = [",".join([c[0], c[2], c[1], *c[3:]]) for c in (ln.split(",") for ln in lines)]


def _latin1_byte_in_header(lines):
    lines[0] = lines[0].replace("feat_02", "f\udce9at_02")    # written as the byte 0xe9


def _unclosed_quote(lines):
    lines[1] = '"' + lines[1]
    lines.extend(lines[2:] * 5)     # the quoted field runs past csv's 131072-char limit


@pytest.mark.parametrize("mutate, message", [
    (_rename_feat_02, "required column missing from header: 'feat_02'"),
    (_repeat_a_day, "duplicate date in dataset"),
    (_swap_two_columns, "header columns out of order"),
    (_latin1_byte_in_header, "not UTF-8 text (byte 0xe9)"),
    (_unclosed_quote, "malformed CSV: field larger than field limit"),
], ids=["renamed_column", "repeated_date", "swapped_columns", "non_utf8_header",
        "unclosed_quote"])
def test_bad_header_or_dates_exit_3_naming_the_file(data_dir, tmp_path, capsys,
                                                    mutate, message):
    bad_dir = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad_dir)
    path = bad_dir / "manitoba.csv"
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    code = run(["train", "--data-dir", bad_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 3
    assert f"{path}: {message}" in capsys.readouterr().err


def test_byte_order_mark_is_read_as_utf8(data_dir, tmp_path):
    """A file saved as Excel's "CSV UTF-8" trains the same model as the plain file."""
    bom_dir = tmp_path / "bom_data"
    shutil.copytree(data_dir, bom_dir)
    for path in bom_dir.glob("*.csv"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for data, out in ((data_dir, tmp_path / "plain"), (bom_dir, tmp_path / "bom")):
        assert run(["train", "--data-dir", data, "--case-study", "alberta",
                    "--test-days", "16", "--out", out]) == 0
    assert (tmp_path / "bom" / "model.json").read_bytes() == \
        (tmp_path / "plain" / "model.json").read_bytes()


def test_missing_cell_on_earliest_date_exits_3_naming_its_row(data_dir, tmp_path, capsys):
    bad_dir = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad_dir)
    path = bad_dir / "alberta.csv"
    lines = path.read_text().splitlines()
    earliest = lines[1].split(",")
    earliest[5] = ""                                 # feat_05
    lines[1:4] = lines[2:4] + [",".join(earliest)]   # the earliest date on file row 3
    path.write_text("\n".join(lines) + "\n")
    code = run(["train", "--data-dir", bad_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: bad value at row 3, column 'feat_05': "
        "missing cell on the earliest date (nothing to forward-fill)\n")


@pytest.mark.parametrize("command", ["synth", "train", "evaluate", "rotate"])
def test_negative_seed_exits_2(data_dir, tmp_path, capsys, command):
    common = ["--data-dir", data_dir, "--case-study", "alberta", "--test-days", "16",
              "--bootstrap", "10", "--out", tmp_path / "x"]
    assert run([command, "--seed", "-1"] + common) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -3}))
    assert run([command, "--config", cfg] + common) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -3\n"
    assert not (tmp_path / "x").exists()


def _deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    return path


def test_deeply_nested_config_exits_2(data_dir, tmp_path, capsys):
    deep = _deeply_nested_json(tmp_path)
    assert run(["train", "--config", deep, "--data-dir", data_dir,
                "--out", tmp_path / "x"]) == 2
    assert f"config error: cannot read config file {deep}: maximum recursion depth exceeded" \
        in capsys.readouterr().err


def test_deeply_nested_artifact_exits_3(data_dir, tmp_path, capsys):
    deep = _deeply_nested_json(tmp_path)
    assert run(["predict", "--model", deep, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert f"data error: {deep}: malformed model artifact (maximum recursion depth exceeded" \
        in capsys.readouterr().err


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_number_in_artifact_exits_3(data_dir, tmp_path, capsys, token):
    out = tmp_path / "model_out7"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    doc["generic_weight"] = "TOKEN"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc).replace('"TOKEN"', token))
    assert token in bad.read_text()
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    # 1e999 is no token: json reads it as inf, caught after loading
    detail = "generic_weight" if token == "1e999" else token
    assert f"{bad}: model artifact holds a non-finite number ({detail})" \
        in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


@pytest.mark.parametrize("field, cell, value", [
    (("store", "features"), (5, 3), np.nan),
    (("store", "features"), (0, 0), np.inf),
    (("store", "features"), (-1, -1), -np.inf),
    (("feature_scaler", "landmarks"), (2, 7), np.nan),
    (("feature_scaler", "landmarks"), (0, -1), np.inf),
    (("feature_scaler", "landmarks"), (4, 0), -np.inf),
], ids=["features_nan", "features_inf", "features_-inf", "landmarks_nan", "landmarks_inf",
        "landmarks_-inf"])
def test_non_finite_array_value_in_artifact_exits_3(data_dir, tmp_path, capsys,
                                                    field, cell, value):
    out = tmp_path / "model_out7"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    values = decoded(doc[field[0]][field[1]])
    values[cell] = value     # ends of a landmark row, so the row stays sorted
    doc[field[0]][field[1]] = encoded(values)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert (f"{bad}: model artifact holds a non-finite number ({'.'.join(field)})"
            in capsys.readouterr().err)
    assert not (tmp_path / "x" / "predictions.csv").exists()


@pytest.mark.parametrize("field, value", [
    (("store", "source_tags", "shape"), "1e999"),
    (("case_study", "code"), "1e999"),
    (("config", "k"), '"six"'),
    (("store", "features", "b64"), '"abc"'),
])
def test_malformed_artifact_field_exits_3(data_dir, tmp_path, capsys, field, value):
    out = tmp_path / "model_out8"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = "TOKEN"
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc).replace('"TOKEN"', value))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: malformed model artifact" in capsys.readouterr().err


def _codes_to_feat_99(doc):
    doc["selected_features"][0] = doc["feature_scaler"]["column_codes"][0] = "feat_99"


def _repeat_first_code(doc):
    doc["selected_features"][1] = doc["feature_scaler"]["column_codes"][1] = "feat_05"


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["config"].update(k=0), "(k must be >= 1, got 0)"),
    (lambda doc: doc["config"].update(k=-3), "(k must be >= 1, got -3)"),
    (lambda doc: doc["config"].update(k=6.9), "(config.k must be a JSON integer, got 6.9)"),
    (lambda doc: doc["config"].update(k="6"), "(config.k must be a JSON integer, got '6')"),
    (lambda doc: doc["config"].update(k=True), "(config.k must be a JSON integer, got True)"),
    (lambda doc: doc.update(selected_features="feat_05"),
     "selected features differ from the feature scaler's columns"),
    (lambda doc: doc["selected_features"].__setitem__(0, "feat_99"),
     "selected features differ from the feature scaler's columns"),
    (_codes_to_feat_99, "unknown selected feature codes: ['feat_99']"),
    (_repeat_first_code, "selected feature codes repeat: ['feat_05', 'feat_05', "),
    (lambda doc: doc["selected_features"].pop(),
     "selected features differ from the feature scaler's columns"),
    (lambda doc: doc["store"].update(features=encoded(decoded(doc["store"]["features"])[:, :-1])),
     "store has 12 feature columns for 13 selected features"),
], ids=["k_0", "k_-3", "k_6.9", "k_string", "k_true", "features_string",
        "feature_unknown", "feature_unknown_to_scaler_too", "feature_repeated",
        "feature_missing", "store_one_column_short"])
def test_inconsistent_artifact_exits_3_naming_the_file(data_dir, tmp_path, capsys,
                                                       mutate, message):
    out = tmp_path / "model_out10"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err
    assert not (tmp_path / "x" / "predictions.csv").exists()


_NOT_A_SHAPE = "is not a list of non-negative integers)"


def _features_shape(shape):
    return lambda doc: doc["store"]["features"].update(shape=shape)


def _features_bytes(transform):
    def mutate(doc):
        raw = base64.b64decode(doc["store"]["features"]["b64"])
        doc["store"]["features"]["b64"] = base64.b64encode(transform(raw)).decode("ascii")
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["store"]["features"].update(b64="!!!!"),
     "store.features: bad base64 (Only base64 data is allowed))"),
    (lambda doc: doc["feature_scaler"]["landmarks"].update(b64="QUJD=A=="),
     "feature_scaler.landmarks: bad base64 (Discontinuous padding not allowed))"),
    (_features_bytes(lambda raw: raw[:-8]),
     "store.features: 23288 bytes do not fill shape [224, 13] of <f8)"),
    (_features_bytes(lambda raw: raw + b"\0"),
     "store.features: 23297 bytes do not fill shape [224, 13] of <f8)"),
    (lambda doc: doc["store"]["targets"]["shape"].__setitem__(0, 3),
     "store.targets: 7168 bytes do not fill shape [3, 4] of <f8)"),
    (lambda doc: doc["store"]["features"].update(dtype="<f4"),
     "store.features: dtype '<f4', expected '<f8')"),
    (lambda doc: doc["store"]["source_tags"].update(dtype="<f8"),
     "store.source_tags: dtype '<f8', expected '<i8')"),
    (lambda doc: doc["feature_scaler"]["landmarks"].update(dtype=">f8"),
     "feature_scaler.landmarks: dtype '>f8', expected '<f8')"),
    (_features_shape("224, 13"), "store.features: shape '224, 13' " + _NOT_A_SHAPE),
    (_features_shape([224, -13]), "store.features: shape [224, -13] " + _NOT_A_SHAPE),
    (_features_shape([224.0, 13]), "store.features: shape [224.0, 13] " + _NOT_A_SHAPE),
    (_features_shape([224, True]), "store.features: shape [224, True] " + _NOT_A_SHAPE),
    (_features_shape(None), "store.features: shape None " + _NOT_A_SHAPE),
], ids=["bad_base64", "bad_padding", "bytes_short", "bytes_long", "shape_too_small",
        "dtype_f4", "tags_dtype_f8", "big_endian", "shape_string", "shape_negative",
        "shape_float", "shape_bool", "shape_null"])
def test_undecodable_artifact_array_exits_3(data_dir, tmp_path, capsys, mutate, message):
    out = tmp_path / "model_out11"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: malformed model artifact ({message}" in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


def test_pooled_tag_in_dedicated_only_artifact_exits_3(data_dir, tmp_path, capsys):
    # generic weight 0 stores no pooled rows; a pooled tag derives weight 0
    out = tmp_path / "model_out12"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--generic-weight", "0", "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    tags = decoded(doc["store"]["source_tags"])
    assert set(tags.tolist()) == {0}
    tags[3] = 1                 # British Columbia
    doc["store"]["source_tags"] = encoded(tags)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: source weights must be strictly positive" in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


def test_zero_row_store_artifact_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out13"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    for name in ("features", "targets", "source_tags"):
        doc["store"][name] = encoded(decoded(doc["store"][name])[:0])
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"data error: {bad}: cannot fit on zero rows" in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


def test_non_utf8_artifact_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out9"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    bad = tmp_path / "bad_model.json"
    bad.write_bytes((out / "model.json").read_bytes().replace(b"Alberta", b"Alb\xe9rta"))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: not UTF-8 text (byte 0xe9)" in capsys.readouterr().err


# Byte strings that break CSV structure, text decoding or number parsing.
_FUZZ_TOKENS = [b",", b'"', b"\r", b"\n", b"\x00", b"\xe9", b"\xff", b"nan", b"1e999"]

_edits = st.lists(st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0),
    st.one_of(st.sampled_from(_FUZZ_TOKENS), st.binary(min_size=1, max_size=3)),
), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def fuzz_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_data")
    shutil.copytree(data_dir, root, dirs_exist_ok=True)
    return root


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["alberta.csv", "manitoba.csv"]), edits=_edits)
def test_mutated_region_csv_never_exits_4(data_dir, fuzz_dir, capsys, name, edits):
    """Inserted, deleted or replaced bytes end in exit 0, 2 or 3, never 4."""
    data = bytearray((data_dir / name).read_bytes())
    for op, at, token in edits:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = token
        elif op == "delete":
            del data[at:at + len(token)]
        else:
            data[at:at + len(token)] = token
    (fuzz_dir / name).write_bytes(bytes(data))
    try:
        code = run(["train", "--data-dir", fuzz_dir, "--case-study", "alberta",
                    "--test-days", "16", "--out", fuzz_dir / "out"])
    finally:
        shutil.copy(data_dir / name, fuzz_dir / name)
    assert code in (0, 2, 3), capsys.readouterr().err


def test_duplicate_region_files_exit_3(data_dir, tmp_path, capsys):
    dup_dir = tmp_path / "dup_data"
    shutil.copytree(data_dir, dup_dir)
    shutil.copy(dup_dir / "manitoba.csv", dup_dir / "MANITOBA.csv")
    code = run(["train", "--data-dir", dup_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 3
    err = capsys.readouterr().err
    assert "MANITOBA.csv" in err and "manitoba.csv" in err


def test_rotate_ranked_selection_exits_2(data_dir, tmp_path, capsys):
    code = run(["rotate", "--data-dir", data_dir, "--test-days", "12",
                "--bootstrap", "20", "--selection", "ranked", "--top-n", "5",
                "--out", tmp_path / "x"])
    assert code == 2
    assert "--selection ranked" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_predict_other_region_file_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out5"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    code = run(["predict", "--model", out / "model.json",
                "--input", data_dir / "british_columbia.csv", "--out", tmp_path / "x"])
    assert code == 3
    assert "does not match Alberta" in capsys.readouterr().err


def test_relevance_export(data_dir, tmp_path):
    out = tmp_path / "rel"
    assert run(["relevance", "--data-dir", data_dir, "--case-study", "alberta",
                "--out", out]) == 0
    lines = (out / "relevance.csv").read_text().strip().splitlines()
    assert lines[0] == "feature,infections,hospitalizations,recoveries,deaths"
    assert len(lines) == 1 + 44


@pytest.fixture()
def zero_unemployment_dir(data_dir, tmp_path):
    """A copy of ``data_dir`` whose Alberta file has feat_20 = -1e-9 on its fifth day,
    so d11 = feat_19 / (feat_20 + 1e-9) divides by zero there."""
    root = tmp_path / "zero_unemployment"
    shutil.copytree(data_dir, root)
    lines = (root / "alberta.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index("feat_20")] = "-1e-09"
    lines[5] = ",".join(cells)
    (root / "alberta.csv").write_text("\n".join(lines) + "\n")
    return root


def test_unused_derived_column_cannot_fail_predict(data_dir, zero_unemployment_dir, tmp_path):
    out = tmp_path / "model_out14"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["predict", "--model", out / "model.json",
                    "--input", zero_unemployment_dir / "alberta.csv", "--out", out]) == 0
    assert len((out / "predictions.csv").read_text().splitlines()) == 81


def test_non_finite_derived_value_names_region_date_and_code(zero_unemployment_dir, tmp_path,
                                                             capsys):
    date = (zero_unemployment_dir / "alberta.csv").read_text().splitlines()[5].split(",")[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["relevance", "--data-dir", zero_unemployment_dir, "--case-study", "alberta",
                    "--out", tmp_path / "x"])
    assert code == 3
    assert capsys.readouterr().err == (f"data error: bad value at Alberta, {date}, column 'd11': "
                                       "derived value inf is not finite\n")
    assert not (tmp_path / "x").exists()


def test_train_ranked_selection_end_to_end(data_dir, tmp_path):
    out = tmp_path / "ranked"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--selection", "ranked", "--top-n", "9",
                "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    assert tuple(doc["selected_features"]) == (
        "d13", "d11", "feat_20", "feat_19", "feat_14", "feat_17", "feat_16",
        "feat_12", "feat_15")
    assert run(["relevance", "--data-dir", data_dir, "--case-study", "alberta",
                "--out", out]) == 0
    assert hashlib.sha256((out / "relevance.csv").read_bytes()).hexdigest() == (
        "645b6e1d44f7261fbaf5c0f3a10ed1cbb308cda05fe310ffb3be6f7afc51f8e6")


def test_ranked_selection_ignores_held_out_targets(data_dir, tmp_path):
    """Relevance is scored on the training days, so the held-out days'
    targets cannot move the selected features."""
    alberta = region_by_name("alberta")
    ds = parse_regional_csv(data_dir / "alberta.csv", alberta)
    test = list(split_train_test(ds, 16, 0).test_indices)
    targets = ds.targets.copy()
    targets[test] = np.random.default_rng(0).integers(0, 10 ** 6, size=(16, 4))
    changed = RegionalDataset(alberta, ds.dates, ds.features, targets)
    codes = PRIMARY_FEATURE_CODES + DERIVED_FEATURE_CODES
    # scored on all days, the new targets do move the top 9
    assert (score_relevance(changed.columns(codes), codes, targets).top(9)
            != score_relevance(ds.columns(codes), codes, ds.targets).top(9))
    changed_dir = tmp_path / "changed"
    shutil.copytree(data_dir, changed_dir)
    write_regional_csv(changed, changed_dir / "alberta.csv")
    selected = []
    for root in (data_dir, changed_dir):
        out = tmp_path / f"out_{root.name}"
        assert run(["train", "--data-dir", root, "--case-study", "alberta", "--seed", "0",
                    "--test-days", "16", "--selection", "ranked", "--top-n", "9",
                    "--out", out]) == 0
        selected.append(json.loads((out / "model.json").read_text())["selected_features"])
    assert selected[0] == selected[1]


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_ranked_selection_with_two_training_days_exits_2(command, data_dir, tmp_path, capsys):
    code = run([command, "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "78", "--selection", "ranked", "--out", tmp_path / "x"])
    assert code == 2
    assert capsys.readouterr().err == ("config error: --selection ranked needs at least "
                                       "3 training days; --test-days 78 leaves 2\n")
    assert not (tmp_path / "x").exists()


def test_console_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "regio_forecast.cli", "synth",
         "--regions", "1", "--rows", "12", "--out", str(tmp_path / "d")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "alberta.csv").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time; only relevance scoring needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, regio_forecast.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
