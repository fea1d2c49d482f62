"""Golden outputs: a fixed-seed CLI run must reproduce the committed files.

The fixture under ``tests/golden/`` holds the ``predict`` and ``ppe``
outputs and the ``evaluate`` interval tables for 3 synthetic regions, and
the sha256 of the trained ``model.json``, so that a change of the
artifact's bytes is deliberate. Every value must match as written, except
the wall-clock training time. To regenerate the fixture after a
deliberate change of outputs or of the artifact format, run::

    PYTHONPATH=src python tests/test_golden.py

Before it writes, it prints for each file how many values changed and the
largest absolute and relative change, wall-clock time aside, and the old
and new artifact digest; it rewrites only what changed.
"""

import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from regio_forecast.cli import main

GOLDEN = Path(__file__).parent / "golden"
FILES = ("predictions.csv", "ppe_forecast.csv", "evaluation.csv", "evaluation.json")
ARTIFACT_DIGEST = "model.json.sha256"


def run_golden(work: Path) -> dict[str, str]:
    """Run synth, train, predict, ppe and evaluate at the fixture's seed.

    Returns the text of each of FILES, and the hex sha256 of ``model.json``
    (with a newline) under ARTIFACT_DIGEST.
    """
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
    outputs = {name: (out / name).read_text(encoding="utf-8") for name in FILES}
    outputs[ARTIFACT_DIGEST] = hashlib.sha256((out / "model.json").read_bytes()).hexdigest() + "\n"
    return outputs


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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


def test_golden_outputs_unchanged(outputs):
    for name in FILES:
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert without_training_time(name, outputs[name]) == \
            without_training_time(name, expected), f"{name} differs from the golden fixture"


def test_golden_artifact_bytes_unchanged(outputs):
    assert outputs[ARTIFACT_DIGEST] == (GOLDEN / ARTIFACT_DIGEST).read_text(encoding="utf-8"), \
        "model.json differs from the golden artifact digest"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_golden(Path(tmp))
        fixture = {name: (GOLDEN / name).read_text(encoding="utf-8") for name in FILES}
        for name in FILES:
            print(changes(name, fixture[name], outputs[name]))
        digest = GOLDEN / ARTIFACT_DIGEST
        old_digest = digest.read_text(encoding="utf-8") if digest.exists() else "none\n"
        print(f"model.json sha256: {old_digest.strip()} -> {outputs[ARTIFACT_DIGEST].strip()}")
        for name in FILES:
            # a file that moved only in wall-clock time is left as it is
            if without_training_time(name, outputs[name]) != \
                    without_training_time(name, fixture[name]):
                (GOLDEN / name).write_text(outputs[name], encoding="utf-8")
                print(f"wrote {GOLDEN / name}")
        if outputs[ARTIFACT_DIGEST] != old_digest:
            digest.write_text(outputs[ARTIFACT_DIGEST], encoding="utf-8")
            print(f"wrote {digest}")
