"""Golden outputs: a fixed-seed CLI run must reproduce the committed files.

The fixture under ``tests/golden/`` holds the ``predict`` and ``ppe``
outputs and the ``evaluate`` interval tables for 3 synthetic regions.
Every value must match as written, except the wall-clock training time.
To regenerate the fixture after a deliberate change of outputs, run::

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import tempfile
from pathlib import Path

from regio_forecast.cli import main

GOLDEN = Path(__file__).parent / "golden"
FILES = ("predictions.csv", "ppe_forecast.csv", "evaluation.csv", "evaluation.json")


def run_golden(work: Path) -> dict[str, str]:
    """Run synth, train, predict, ppe and evaluate at the fixture's seed; return the outputs."""
    data, out = work / "data", work / "out"
    common = ["--data-dir", str(data), "--case-study", "alberta",
              "--test-days", "16", "--seed", "11"]
    assert main(["synth", "--regions", "3", "--rows", "80", "--seed", "11",
                 "--out", str(data)]) == 0
    assert main(["train", *common, "--out", str(out)]) == 0
    assert main(["predict", "--model", str(out / "model.json"),
                 "--input", str(data / "alberta.csv"), "--out", str(out)]) == 0
    assert main(["ppe", "--model", str(out / "model.json"), "--input", str(data / "alberta.csv"),
                 "--capacity", "0.75", "--personnel", "200", "--out", str(out)]) == 0
    assert main(["evaluate", *common, "--bootstrap", "200", "--out", str(out)]) == 0
    return {name: (out / name).read_text(encoding="utf-8") for name in FILES}


def without_training_time(name: str, text: str):
    """The file's content with the wall-clock columns or keys removed."""
    if name.endswith(".json"):
        doc = json.loads(text)
        doc.pop("training_time_seconds")
        return doc
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row.pop("tt_seconds", None)
    return rows


def test_golden_outputs_unchanged(tmp_path):
    outputs = run_golden(tmp_path)
    for name in FILES:
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert without_training_time(name, outputs[name]) == \
            without_training_time(name, expected), f"{name} differs from the golden fixture"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in run_golden(Path(tmp)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN / name}")
