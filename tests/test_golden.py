"""Golden outputs: a fixed-seed CLI run must reproduce the committed files.

The fixture under ``tests/golden/`` holds the ``predict`` and ``ppe``
outputs and the ``evaluate`` interval tables for 3 synthetic regions.
Every value must match as written, except the wall-clock training time.
To regenerate the fixture after a deliberate change of outputs, run::

    PYTHONPATH=src python tests/test_golden.py

Before it writes, it prints for each file how many values changed and the
largest absolute and relative change, wall-clock time aside; it rewrites
only the files whose values changed.
"""

import csv
import io
import json
import math
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


def leaves(value, path=()):
    """(path, scalar) for every scalar of a parsed file."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from leaves(item, path + (key,))
    else:
        yield path, value


def changes(name: str, old_text: str, new_text: str) -> str:
    """How many values of ``name`` moved, and by how much at most."""
    old = dict(leaves(without_training_time(name, old_text)))
    new = dict(leaves(without_training_time(name, new_text)))
    moved, max_abs, max_rel = 0, 0.0, 0.0
    for key in old.keys() | new.keys():
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        moved += 1
        try:
            diff = abs(float(b) - float(a))
            rel = diff / abs(float(a)) if float(a) else math.inf
        except (TypeError, ValueError):      # a text cell or a missing value
            diff = rel = math.inf
        max_abs, max_rel = max(max_abs, diff), max(max_rel, rel)
    return (f"{name}: {moved} of {len(old)} values changed, "
            f"largest change {max_abs:.3g} absolute, {max_rel:.3g} relative")


def test_golden_outputs_unchanged(tmp_path):
    outputs = run_golden(tmp_path)
    for name in FILES:
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert without_training_time(name, outputs[name]) == \
            without_training_time(name, expected), f"{name} differs from the golden fixture"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_golden(Path(tmp))
        fixture = {name: (GOLDEN / name).read_text(encoding="utf-8") for name in FILES}
        for name in FILES:
            print(changes(name, fixture[name], outputs[name]))
        for name in FILES:
            # a file that moved only in wall-clock time is left as it is
            if without_training_time(name, outputs[name]) != \
                    without_training_time(name, fixture[name]):
                (GOLDEN / name).write_text(outputs[name], encoding="utf-8")
                print(f"wrote {GOLDEN / name}")
