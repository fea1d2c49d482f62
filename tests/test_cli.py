import argparse
import datetime as dt
import errno
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import regio_forecast
import regio_forecast.cli
import regio_forecast.evaluation
from regio_forecast.cli import _load_datasets, _predictions_csv, build_parser, main
from regio_forecast.evaluation import train_held_out
from regio_forecast.features import (
    DEFAULT_SELECTED_FEATURES, DERIVED_FEATURE_CODES, PRIMARY_FEATURE_CODES, score_relevance)
from regio_forecast.ingest import (
    RegionalDataset, parse_regional_csv, region_by_name, split_train_test, write_regional_csv)

from oracles import artifact_bytes_oracle, predictions_csv_oracle, read_artifact_oracle


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["synth", "--regions", "3", "--rows", "80", "--seed", "7",
                 "--out", str(root)]) == 0
    return root


def run(args):
    return main([str(a) for a in args])


def test_synth_writes_parseable_files(data_dir):
    files = sorted(p.name for p in data_dir.glob("*.csv"))
    assert files == ["alberta.csv", "british_columbia.csv", "manitoba.csv"]


def test_train_writes_artifact_and_report(data_dir, tmp_path):
    out = tmp_path / "model_out"
    code = run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--seed", "3", "--out", out])
    assert code == 0
    header, _ = read_artifact_oracle(out / "model.json")
    assert header["version"] == "6"
    assert header["case_study"]["name"] == "Alberta"
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


@pytest.mark.parametrize("command, flag, value, message", [
    ("evaluate", "--bootstrap", "100000000000",
     "bootstrap replicates must be in [1, 100000], got 100000000000"),
    ("rotate", "--bootstrap", "100000000000",
     "bootstrap replicates must be in [1, 100000], got 100000000000"),
    ("evaluate", "--test-days", "1", "--test-days must be >= 2 to score held-out days, got 1"),
    ("rotate", "--test-days", "1", "--test-days must be >= 2 to score held-out days, got 1"),
    ("train", "--generic-weight", "1e308", "generic weight must be in [0, 1], got 1e+308"),
    ("train", "--generic-weight", "1.5", "generic weight must be in [0, 1], got 1.5"),
    ("synth", "--noise", "1e308", "noise must be <= 100.0, got 1e+308"),
], ids=["evaluate-bootstrap", "rotate-bootstrap", "evaluate-test-days", "rotate-test-days",
        "train-generic-weight-1e308", "train-generic-weight-1.5", "synth-noise"])
def test_out_of_range_flag_exits_2_naming_it(data_dir, tmp_path, capsys,
                                             command, flag, value, message):
    # each command gets only the flags it reads
    regional = {"synth": [], "rotate": ["--data-dir", data_dir, "--test-days", "16"]}.get(
        command, ["--data-dir", data_dir, "--case-study", "alberta", "--test-days", "16"])
    code = run([command, *regional, flag, value, "--out", tmp_path / "x"])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.fixture
def train_calls(monkeypatch):
    """The ``train_mtl`` calls of ``train``, ``evaluate`` and ``rotate``, which all train
    through ``evaluation.train_held_out``."""
    calls = []
    real = regio_forecast.evaluation.train_mtl
    monkeypatch.setattr(regio_forecast.evaluation, "train_mtl",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_rotate_refuses_bad_bootstrap_before_training(data_dir, tmp_path, capsys, train_calls):
    assert run(["rotate", "--data-dir", data_dir, "--test-days", "16", "--bootstrap", "0",
                "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == \
        "config error: bootstrap replicates must be in [1, 100000], got 0\n"
    assert train_calls == []


@pytest.mark.parametrize("command, days", [("train", 400), ("train", 80), ("train", 0),
                                           ("evaluate", 400), ("rotate", 400)])
def test_test_days_beyond_the_data_exits_2_naming_flag_and_region(
        data_dir, tmp_path, capsys, train_calls, command, days):
    case = [] if command == "rotate" else ["--case-study", "manitoba"]
    assert run([command, "--data-dir", data_dir, *case, "--test-days", days,
                "--out", tmp_path / "x"]) == 2
    region = "Alberta" if command == "rotate" else "Manitoba"   # rotate checks files in order
    assert capsys.readouterr().err == (f"config error: --test-days must be in [1, 79] for "
                                       f"{region}, which has 80 days; got {days}\n")
    assert train_calls == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "rotate"])
def test_one_training_day_at_generic_weight_0_exits_2_before_training(
        data_dir, tmp_path, capsys, train_calls, command):
    """At weight 0 the scaler is fitted on the case study's training days
    alone, so each region that is split must keep two; rotate checks every region."""
    short_dir = tmp_path / "short"
    shutil.copytree(data_dir, short_dir)
    lines = (short_dir / "manitoba.csv").read_text().splitlines()
    (short_dir / "manitoba.csv").write_text("\n".join(lines[:41]) + "\n")    # 40 days
    case = [] if command == "rotate" else ["--case-study", "manitoba"]
    assert run([command, "--data-dir", short_dir, *case, "--generic-weight", "0",
                "--test-days", "39", "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == ("config error: --generic-weight 0 needs at least 2 "
                                       "training days; --test-days 39 leaves 1 of Manitoba's 40\n")
    assert train_calls == []
    assert not (tmp_path / "x").exists()


def test_train_keeps_a_single_held_out_day(data_dir, tmp_path):
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "1", "--out", tmp_path / "x"]) == 0


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
    ("generic_weight", "1"), ("case_study", 3), ("out", None), ("top_n", True),
    ("top_n", 9.0),
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


def test_config_holding_a_json_array_exits_2(data_dir, tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text('["case_study", "alberta"]')
    assert run(["train", "--config", cfg, "--data-dir", data_dir,
                "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: config must be a JSON object\n"


def test_unknown_csv_is_skipped_with_a_warning(data_dir, tmp_path, caplog):
    root = tmp_path / "data"
    shutil.copytree(data_dir, root)
    (root / "notes.csv").write_text("not a region\n")
    with caplog.at_level(logging.WARNING, logger="regio_forecast"):
        datasets = _load_datasets(str(root))
    assert [ds.region.name for ds in datasets] == ["Alberta", "British Columbia", "Manitoba"]
    assert caplog.messages == ["skipping notes.csv: not a known region file"]


def test_directory_without_region_files_exits_3(tmp_path, capsys):
    root = tmp_path / "data"
    root.mkdir()
    (root / "notes.csv").write_text("not a region\n")
    assert run(["train", "--data-dir", root, "--case-study", "alberta",
                "--out", tmp_path / "x"]) == 3
    assert capsys.readouterr().err == f"data error: no regional CSV files found in {root}\n"
    assert not (tmp_path / "x").exists()


def test_unexpected_exception_in_a_command_exits_4(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(regio_forecast.cli, "cmd_synth", broken)
    assert run(["synth", "--regions", "1", "--rows", "12", "--out", tmp_path / "d"]) == 4
    assert capsys.readouterr().err == "internal error: planted fault\n"


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
    header, arrays = read_artifact_oracle(out / "model.json")
    header["version"] = "999"
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3


def test_version_1_artifact_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out4"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    del header["shapes"]
    for version in ("1", "2", "3", "4"):     # checked before any other field is read
        header["version"] = version
        old = tmp_path / f"v{version}_model.json"
        old.write_bytes(artifact_bytes_oracle(header, arrays))
        code = run(["predict", "--model", old, "--input", data_dir / "alberta.csv",
                    "--out", tmp_path / "x"])
        assert code == 3
        assert (f"{old}: model artifact version '{version}' not supported (expected '6')"
                in capsys.readouterr().err)
    header["version"] = "6"
    old.write_bytes(artifact_bytes_oracle(header, arrays))
    assert run(["predict", "--model", old, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert f"{old}: model artifact is missing field 'shapes.landmarks'" \
        in capsys.readouterr().err
    v5 = tmp_path / "v5_model.json"      # one JSON document, arrays in base64, no newline
    v5.write_text(json.dumps({"version": "5", "config": {"k": 6}, "store": {
        "targets": {"dtype": "<f8", "shape": [1, 4], "b64": "A" * 44}}}))
    assert run(["predict", "--model", v5, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert capsys.readouterr().err == (
        f"data error: {v5}: no header line of at most 65536 bytes; not a version 6 model "
        "artifact (retrain a model saved by an older version)\n")


def test_negative_store_target_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    arrays["targets"][7, 2] = -1.0
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: model artifact holds a negative count (targets)" \
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


@pytest.mark.parametrize("text", ["20200129", "2020-W05-3"])
def test_date_other_than_yyyy_mm_dd_exits_3(data_dir, tmp_path, capsys, text):
    """Python 3.11's ``date.fromisoformat`` reads both as the day they replace; 3.10 does not."""
    bad_dir = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad_dir)
    path = bad_dir / "alberta.csv"
    lines = path.read_text().splitlines()
    assert lines[5].startswith("2020-01-29,")
    lines[5] = text + lines[5][len("2020-01-29"):]
    path.write_text("\n".join(lines) + "\n")
    code = run(["train", "--data-dir", bad_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", tmp_path / "x"])
    assert code == 3
    assert f"{path}: bad value at row 5, column 'date': {text}\n" in capsys.readouterr().err


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
    case = ["--data-dir", data_dir, "--case-study", "alberta", "--test-days", "16"]
    common = {"synth": [], "train": case, "evaluate": case + ["--bootstrap", "10"],
              "rotate": ["--data-dir", data_dir, "--test-days", "16", "--bootstrap", "10"]
              }[command] + ["--out", tmp_path / "x"]
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
    deep = tmp_path / "deep_model.json"
    deep.write_text("[" * 20_000 + "]" * 20_000 + "\n")     # fits in the header line
    assert run(["predict", "--model", deep, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert f"data error: {deep}: malformed model artifact (maximum recursion depth exceeded" \
        in capsys.readouterr().err


@pytest.mark.parametrize("weight", [1.5, 1e308])
def test_artifact_generic_weight_outside_unit_range_exits_3(data_dir, tmp_path, capsys, weight):
    out = tmp_path / "model_out"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    header["generic_weight"] = weight
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    assert run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert capsys.readouterr().err == (f"data error: {bad}: model artifact's generic weight "
                                       f"must be in [0, 1], got {weight}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_number_in_artifact_exits_3(data_dir, tmp_path, capsys, token):
    out = tmp_path / "model_out7"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    header["generic_weight"] = "TOKEN"
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(json.dumps(header).replace('"TOKEN"', token), arrays))
    assert token.encode("ascii") in bad.read_bytes()
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    # 1e999 is no token: json reads it as inf, caught after loading
    detail = "generic_weight" if token == "1e999" else token
    assert f"{bad}: model artifact holds a non-finite number ({detail})" \
        in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


@pytest.mark.parametrize("field, cell, value", [
    ("features", (5, 3), np.nan),
    ("features", (0, 0), np.inf),
    ("features", (-1, -1), -np.inf),
    ("landmarks", (2, 7), np.nan),
    ("landmarks", (0, -1), np.inf),
    ("landmarks", (4, 0), -np.inf),
], ids=["features_nan", "features_inf", "features_-inf", "landmarks_nan", "landmarks_inf",
        "landmarks_-inf"])
def test_non_finite_array_value_in_artifact_exits_3(data_dir, tmp_path, capsys,
                                                    field, cell, value):
    out = tmp_path / "model_out7"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    arrays[field][cell] = value     # ends of a landmark row, so the row stays sorted
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert (f"{bad}: model artifact holds a non-finite number ({field})"
            in capsys.readouterr().err)
    assert not (tmp_path / "x" / "predictions.csv").exists()


@pytest.mark.parametrize("field, value", [
    (("shapes", "source_tags"), "1e999"),
    (("case_study", "code"), "1e999"),
    (("k",), '"six"'),
    (("shapes", "features"), '"abc"'),
    # Alberta is region 0: int() would load each of these as Alberta
    (("case_study", "code"), "0.0"),
    (("case_study", "code"), '"0"'),
    (("case_study", "code"), "false"),
    (("generic_weight",), '"1.0"'),
    (("generic_weight",), "true"),
])
def test_malformed_artifact_field_exits_3(data_dir, tmp_path, capsys, field, value):
    out = tmp_path / "model_out8"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    parent = header
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = "TOKEN"
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(json.dumps(header).replace('"TOKEN"', value), arrays))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: malformed model artifact" in capsys.readouterr().err


def _store_one_column_short(header, arrays):
    arrays["features"] = arrays["features"][:, :-1]
    header["shapes"]["features"][1] -= 1


@pytest.mark.parametrize("mutate, message", [
    (lambda header, _: header.update(k=0), "(k must be >= 1, got 0)"),
    (lambda header, _: header.update(k=-3), "(k must be >= 1, got -3)"),
    (lambda header, _: header.update(k=6.9), "(k must be a JSON integer, got 6.9)"),
    (lambda header, _: header.update(k="6"), "(k must be a JSON integer, got '6')"),
    (lambda header, _: header.update(k=True), "(k must be a JSON integer, got True)"),
    (lambda header, _: header.update(feature_codes="feat_05"),
     "(feature_codes must be a JSON list, got 'feat_05')"),
    (lambda header, _: header["feature_codes"].__setitem__(0, "feat_99"),
     "unknown selected feature codes: ['feat_99']"),
    (lambda header, _: header["feature_codes"].__setitem__(1, "feat_05"),
     "selected feature codes repeat: ['feat_05', 'feat_05', "),
    (lambda header, _: header["feature_codes"].pop(),
     "landmark array shape does not match column codes"),
    (_store_one_column_short, "store has 12 feature columns for 13 selected features"),
], ids=["k_0", "k_-3", "k_6.9", "k_string", "k_true", "features_string",
        "feature_unknown", "feature_repeated", "feature_missing", "store_one_column_short"])
def test_inconsistent_artifact_exits_3_naming_the_file(data_dir, tmp_path, capsys,
                                                       mutate, message):
    out = tmp_path / "model_out10"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    mutate(header, arrays)
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err
    assert not (tmp_path / "x" / "predictions.csv").exists()


_NOT_A_SHAPE = "is not a list of non-negative integers)"
_NOT_A_LIST = "shapes.features must be a JSON list, got "


def _shape(name, shape):
    def mutate(header, raw):
        header["shapes"][name] = shape
        return raw
    return mutate


# the fixture's arrays: landmarks 13 x 224, features 224 x 13, targets 224 x 4, 224 tags
_BODY = (13 * 224 + 224 * 13 + 224 * 4 + 224) * 8


def _sizes(found, needed):
    return f"{found} bytes follow the header, the shapes need {needed})"


@pytest.mark.parametrize("mutate, message", [
    (lambda _, raw: raw[:-8], _sizes(_BODY - 8, _BODY)),
    (lambda _, raw: raw + b"\0", _sizes(_BODY + 1, _BODY)),
    (_shape("targets", [3, 4]), _sizes(_BODY, _BODY - 221 * 4 * 8)),
    (_shape("features", "224, 13"), _NOT_A_LIST + "'224, 13')"),
    (_shape("features", [224, -13]), "shapes.features: [224, -13] " + _NOT_A_SHAPE),
    (_shape("features", [224.0, 13]), "shapes.features: [224.0, 13] " + _NOT_A_SHAPE),
    (_shape("features", [224, True]), "shapes.features: [224, True] " + _NOT_A_SHAPE),
    (_shape("features", None), _NOT_A_LIST + "None)"),
], ids=["bytes_short", "bytes_long", "shape_too_small", "shape_string", "shape_negative",
        "shape_float", "shape_bool", "shape_null"])
def test_undecodable_artifact_array_exits_3(data_dir, tmp_path, capsys, mutate, message):
    out = tmp_path / "model_out11"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    line, raw = (out / "model.json").read_bytes().split(b"\n", 1)
    header = json.loads(line)
    raw = mutate(header, raw)
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(json.dumps(header).encode("ascii") + b"\n" + raw)
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
    header, arrays = read_artifact_oracle(out / "model.json")
    tags = arrays["source_tags"]
    assert set(tags.tolist()) == {0}
    tags[3] = 1                 # British Columbia
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert f"{bad}: source weights must be strictly positive" in capsys.readouterr().err
    assert not (tmp_path / "x" / "predictions.csv").exists()


@pytest.mark.parametrize("command", ["predict", "ppe"])
def test_artifact_tag_of_no_region_exits_3_naming_the_file(data_dir, tmp_path, capsys, command):
    out = tmp_path / "model_out"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    arrays["source_tags"][[0, 7]] = [99, 10]      # pooled rows, voting at the generic weight
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
    assert run([command, "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"]) == 3
    assert capsys.readouterr().err == f"data error: {bad}: source tags name no region: [10, 99]\n"
    assert not (tmp_path / "x").exists()


def test_zero_row_store_artifact_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out13"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    header, arrays = read_artifact_oracle(out / "model.json")
    for name in ("features", "targets", "source_tags"):
        arrays[name] = arrays[name][:0]
        header["shapes"][name][0] = 0
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(artifact_bytes_oracle(header, arrays))
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


@pytest.mark.parametrize("argv", [
    ["predict", "--model", "m.json", "--input", "a.csv", "--k", "0", "--generic-weight", "5",
     "--test-days", "1"],
    ["synth", "--k", "0", "--bootstrap", "-5", "--top-n", "5"],
    ["relevance", "--data-dir", "d", "--k", "-4", "--top-n", "0"],
    ["train", "--data-dir", "d", "--bootstrap", "0"],
    ["predict", "--model", "m.json", "--input", "a.csv", "--k", "0"],
], ids=["predict", "synth", "relevance", "train", "predict-k"])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", tmp_path / "x"]) == 2
    assert "error: unrecognized arguments: --" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_one_config_file_serves_every_command(data_dir, tmp_path):
    """A config file may hold keys a command does not read."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "data_dir": str(data_dir), "case_study": "alberta", "k": 5, "generic_weight": 0.5,
        "test_days": 16, "seed": 2, "bootstrap": 20, "top_n": 9,
        "out": str(tmp_path / "run"), "ppe_operating_capacity": 0.5, "ppe_personnel": 50.0}))
    model, series = tmp_path / "run" / "model.json", data_dir / "alberta.csv"
    for argv in (["train"], ["evaluate"], ["rotate"], ["relevance"],
                 ["predict", "--model", model, "--input", series],
                 ["ppe", "--model", model, "--input", series]):
        assert run(argv + ["--config", cfg]) == 0, argv
    assert read_artifact_oracle(model)[0]["k"] == 5


def test_rotate_ranked_selection_exits_2(data_dir, tmp_path, capsys):
    code = run(["rotate", "--data-dir", data_dir, "--test-days", "12",
                "--bootstrap", "20", "--top-n", "5", "--out", tmp_path / "x"])
    assert code == 2
    assert "unrecognized arguments: --top-n 5" in capsys.readouterr().err
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
                "--test-days", "16", "--top-n", "9", "--out", out]) == 0
    header, _ = read_artifact_oracle(out / "model.json")
    assert tuple(header["feature_codes"]) == (
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
                    "--test-days", "16", "--top-n", "9", "--out", out]) == 0
        selected.append(read_artifact_oracle(out / "model.json")[0]["feature_codes"])
    assert selected[0] == selected[1]


@pytest.mark.parametrize("argv, config, top_n", [
    (["--top-n", "9"], {}, 9),
    ([], {"top_n": 9}, 9),
    (["--top-n", "9"], {"top_n": 5}, 9),
    ([], {"top_n": None}, None),
    ([], {}, None),
], ids=["flag", "config", "flag-over-config", "config-null", "config-without-key"])
def test_top_n_alone_selects_what_train_held_out_selects(data_dir, tmp_path, argv, config,
                                                         top_n):
    cfg, out = tmp_path / "run.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    assert run(["train", "--config", cfg, "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", *argv, "--out", out]) == 0
    datasets = _load_datasets(str(data_dir))
    case = next(ds for ds in datasets if ds.region.name == "Alberta")
    _, model, _ = train_held_out(datasets, case, 16, 0, top_n=top_n)
    stored = tuple(read_artifact_oracle(out / "model.json")[0]["feature_codes"])
    assert stored == model.selected_features
    assert (stored == DEFAULT_SELECTED_FEATURES) == (top_n is None)
    assert len(stored) == (top_n or len(DEFAULT_SELECTED_FEATURES))


@pytest.mark.parametrize("argv, config, message", [
    (["--selection", "ranked"], {}, "error: unrecognized arguments: --selection ranked"),
    ([], {"selection": "ranked"}, "config error: unknown config keys: ['selection']"),
], ids=["flag", "config-key"])
def test_selection_is_not_an_option(data_dir, tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert run(["train", "--config", cfg, "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", *argv, "--out", tmp_path / "x"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_ranked_selection_with_two_training_days_exits_2(command, data_dir, tmp_path, capsys):
    code = run([command, "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "78", "--top-n", "13", "--out", tmp_path / "x"])
    assert code == 2
    assert capsys.readouterr().err == ("config error: --top-n needs at least "
                                       "3 training days; --test-days 78 leaves 2\n")
    assert not (tmp_path / "x").exists()


def package_env():
    """The environment with the package's source directory on ``PYTHONPATH``, so a
    child process imports it from an uninstalled checkout too."""
    return {**os.environ, "PYTHONPATH": str(Path(regio_forecast.__file__).parents[1])}


def test_console_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "regio_forecast.cli", "synth",
         "--regions", "1", "--rows", "12", "--out", str(tmp_path / "d")],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "alberta.csv").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time; only relevance scoring needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, regio_forecast.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("gap", [False, True], ids=["clean", "with_gap"])
@pytest.mark.parametrize("cell", [
    "0." + "0" * 140_000 + "1",                           # one line past the field limit
    '"' + (" " * 999 + "\n") * 140 + '1"',                # short lines, one quoted cell
], ids=["long_line", "quoted_over_lines"])
def test_cell_past_csv_field_limit_exits_3(tmp_path, capsys, cell, gap):
    """Both readers of a regional CSV refuse a cell longer than the csv
    module's field limit, whether or not a gap sends the file to the row loop."""
    assert run(["synth", "--regions", "1", "--rows", "12", "--out", tmp_path / "d"]) == 0
    path = tmp_path / "d" / "alberta.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = cell                                       # feat_01
    lines[5] = ",".join(cells)
    if gap:
        cells = lines[8].split(",")
        cells[5] = ""                                     # feat_05, forward-filled
        lines[8] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    code = run(["relevance", "--data-dir", tmp_path / "d", "--case-study", "alberta",
                "--out", tmp_path / "x"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: malformed CSV: field larger than field limit (131072)\n")


def test_prediction_rows_match_value_by_value_formatting():
    # -0.0, halves that 6-decimal and integer rounding take either way, and 1e15
    values = [-0.0, 0.0, 0.5, 1.5, 2.5, 5e-7, 1.5e-6, 1.0000005, 2.675, 0.1 + 0.2,
              7.4999999, 123456.7890125, 1e15, 1e15 + 0.5, 3.0, 1e15 - 0.25]
    counts = np.array(values).reshape(-1, 4)
    counts = np.vstack([counts, counts[:, ::-1]])
    dates = np.datetime64("2021-03-01") + np.arange(len(counts))
    assert _predictions_csv(dates, counts) == predictions_csv_oracle(dates, counts)


# Runs CLI argument lists read from stdin under a 2 GiB address-space limit,
# so a value that makes the program allocate without bound fails fast; prints
# [argv, exit code, stderr] for each.
_SWEEP_CHILD = """
import contextlib, io, json, resource, sys, warnings
from regio_forecast.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
warnings.simplefilter("always")
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse refused the value
            code = exc.code
    results.append([argv, code, err.getvalue()])
print(json.dumps(results))
"""


def test_every_numeric_flag_value_exits_0_2_or_3_without_warnings(tmp_path):
    """Each int or float flag of each subcommand, set to an extreme value,
    is accepted, refused as configuration or refused as data, with no
    warning printed on the way."""
    data, out, model_dir = tmp_path / "data", tmp_path / "out", tmp_path / "model"
    assert run(["synth", "--regions", "3", "--rows", "30", "--seed", "5", "--out", data]) == 0
    assert run(["train", "--data-dir", data, "--case-study", "alberta", "--test-days", "5",
                "--out", model_dir]) == 0
    series = ["--model", model_dir / "model.json", "--input", data / "alberta.csv"]
    case = ["--data-dir", data, "--case-study", "alberta", "--test-days", "5"]
    bases = {"synth": ["--regions", "1", "--rows", "10"], "predict": series, "ppe": series,
             "train": case, "evaluate": case + ["--bootstrap", "20"], "relevance": case[:4],
             "rotate": ["--data-dir", data, "--test-days", "5", "--bootstrap", "20"]}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    cases = [[command, *map(str, bases[command]), "--out", str(out),
              action.option_strings[0], value]
             for command, parser in commands.items()
             for action in parser._actions if action.type in (int, float)
             for value in ("0", "-1", str(2**31), str(10**11), "1e308", "nan", "inf")]
    # 7 values of each int or float flag: synth 4, train 5, evaluate 6, rotate 5, ppe 2
    assert len(cases) == 7 * 22
    env = {**package_env(), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bad = [f"{' '.join(argv[:1] + argv[-2:])}: exit {code}: {err.strip()[-300:]}"
           for argv, code, err in json.loads(proc.stdout)
           if code not in (0, 2, 3) or "Warning" in err]
    assert not bad, "\n".join(bad)


def test_prediction_rows_print_the_extreme_dates_as_isoformat():
    days = [dt.date.min, dt.date.max]
    text = _predictions_csv(np.array(days, dtype="datetime64[D]"), np.zeros((2, 4)))
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == [
        day.isoformat() for day in days]


@pytest.mark.parametrize("command, argv, cases, top_n", [
    ("train", ["--case-study", "alberta", "--top-n", "9"],
     ["Alberta"], 9),
    ("evaluate", ["--case-study", "manitoba", "--bootstrap", "10"], ["Manitoba"], None),
    ("rotate", ["--bootstrap", "10"], ["Alberta", "British Columbia", "Manitoba"], None),
])
def test_train_evaluate_and_rotate_train_through_train_held_out(
        data_dir, tmp_path, monkeypatch, command, argv, cases, top_n):
    seen = []
    real = regio_forecast.evaluation.train_held_out

    def spy(datasets, case_ds, test_size, seed, k=6, generic_weight=1.0, top_n=None):
        seen.append((case_ds.region.name, test_size, seed, k, generic_weight, top_n))
        return real(datasets, case_ds, test_size, seed, k, generic_weight, top_n)

    monkeypatch.setattr(regio_forecast.evaluation, "train_held_out", spy)
    monkeypatch.setattr(regio_forecast.cli, "train_held_out", spy)
    assert run([command, "--data-dir", data_dir, *argv, "--test-days", "16", "--seed", "3",
                "--k", "5", "--generic-weight", "0.5", "--out", tmp_path / "x"]) == 0
    assert [(name, days, k, w, n) for name, days, _, k, w, n in seen] == [
        (name, 16, 5, 0.5, top_n) for name in cases]
    seeds = [seed for _, _, seed, *_ in seen]
    if command == "rotate":       # each region's turn draws at a seed of its own
        assert len(set(seeds)) == len(cases)
    else:
        assert seeds == [3]


# What each command writes into --out (synth run with --regions 2)
COMMAND_FILES = {
    "synth": {"alberta.csv", "british_columbia.csv"},
    "train": {"model.json", "train_report.json"},
    "evaluate": {"evaluation.csv", "evaluation_long.csv", "evaluation.json"},
    "rotate": {"monitoring_infections.csv", "monitoring_hospitalizations.csv",
               "monitoring_recoveries.csv", "monitoring_deaths.csv", "rotation_long.csv",
               "rotation.json"},
    "predict": {"predictions.csv"},
    "ppe": {"ppe_forecast.csv"},
    "relevance": {"relevance.csv"},
}


@pytest.fixture(scope="module")
def command_args(data_dir, tmp_path_factory):
    """Each command's flags, apart from --out, for a run that succeeds."""
    model_dir = tmp_path_factory.mktemp("cli_model")
    case = ["--data-dir", data_dir, "--case-study", "alberta", "--test-days", "16"]
    assert run(["train", *case, "--out", model_dir]) == 0
    series = ["--model", model_dir / "model.json", "--input", data_dir / "alberta.csv"]
    return {"synth": ["--regions", "2", "--rows", "20"], "train": case,
            "evaluate": case + ["--bootstrap", "20"],
            "rotate": ["--data-dir", data_dir, "--test-days", "16", "--bootstrap", "20"],
            "predict": series, "ppe": series, "relevance": case[:4]}


def test_every_command_has_its_function():
    assert set(COMMAND_FILES) == set(regio_forecast.cli._COMMANDS)
    missing = [name for name in regio_forecast.cli._COMMANDS
               if not callable(getattr(regio_forecast.cli, f"cmd_{name}", None))]
    assert not missing


@pytest.mark.parametrize("command", sorted(COMMAND_FILES))
def test_command_makes_a_nested_out_and_writes_only_its_files(command_args, tmp_path, command):
    out = tmp_path / "a" / "b" / "c"
    assert run([command, *command_args[command], "--out", out]) == 0
    assert {p.name for p in out.iterdir()} == COMMAND_FILES[command]     # no .<name>.* left
    assert {p for p in tmp_path.rglob("*") if p.is_dir()} == {
        tmp_path / "a", tmp_path / "a" / "b", out}


@pytest.mark.parametrize("command", sorted(COMMAND_FILES))
def test_out_naming_an_existing_file_exits_3(command_args, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert run([command, *command_args[command], "--out", out]) == 3
    assert capsys.readouterr().err == (
        f"data error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{out}'\n")
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "kept\n"
