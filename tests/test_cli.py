import json
import shutil
import subprocess
import sys

import pytest

from regio_forecast.cli import main


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
    doc = json.loads((out / "model.json").read_text())
    assert doc["version"] == "2"
    assert doc["case_study"]["name"] == "Alberta"
    report = json.loads((out / "train_report.json").read_text())
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


def test_ppe_invalid_capacity_exits_2(data_dir, tmp_path):
    out = tmp_path / "model_out2"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    code = run(["ppe", "--model", out / "model.json",
                "--input", data_dir / "alberta.csv",
                "--capacity", "1.2", "--personnel", "200",
                "--out", tmp_path / "p"])
    assert code == 2


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
    doc["version"] = "1"           # checked before any other field is read
    old = tmp_path / "v1_model.json"
    old.write_text(json.dumps(doc))
    code = run(["predict", "--model", old, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert "version '1' not supported (expected '2')" in capsys.readouterr().err


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


def test_bad_clip_bounds_in_artifact_exits_3(data_dir, tmp_path, capsys):
    out = tmp_path / "model_out6"
    assert run(["train", "--data-dir", data_dir, "--case-study", "alberta",
                "--test-days", "16", "--out", out]) == 0
    doc = json.loads((out / "model.json").read_text())
    doc["feature_scaler"]["p_lo"] = 0
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = run(["predict", "--model", bad, "--input", data_dir / "alberta.csv",
                "--out", tmp_path / "x"])
    assert code == 3
    assert "clip bounds" in capsys.readouterr().err


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


def test_console_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "regio_forecast.cli", "synth",
         "--regions", "1", "--rows", "12", "--out", str(tmp_path / "d")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "alberta.csv").exists()
