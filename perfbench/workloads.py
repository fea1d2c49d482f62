"""The benchmark's workloads: input scale, CLI command sequence and output checks.

Why each workload exists is written down in ``perfbench/README.md``. Run
this module to time one set-up sample in a fresh interpreter::

    python3 -m perfbench.workloads --regions 7 --rows 362 --seed 0 --out DIR

It prints ``{"setup_s": ...}``: the seconds to import the CLI and write the
synthetic input CSVs. Only the standard library is imported before timing.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from perfbench import checker

PPE_CAPACITY = 0.75
PPE_PERSONNEL = 200.0


@dataclass(frozen=True)
class Step:
    """One CLI call; its time is reported as ``<label>_s``."""

    label: str
    argv: list[str]
    check: Callable[[], dict[str, list[float]]]
    artifact: Path | None = None


@dataclass(frozen=True)
class Workload:
    """The input scale of a workload; its commands are in ``steps``."""

    name: str
    regions: int
    rows: int
    test_days: int
    bootstrap: int = 0


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("monitor-paper", regions=7, rows=362, test_days=54, bootstrap=1000),
    Workload("serve-large", regions=10, rows=2000, test_days=285),
)}


def steps(w: Workload, data: Path, out: Path, seed: int) -> list[Step]:
    """The workload's CLI calls, reading inputs from ``data`` and writing under ``out``."""
    if w.name == "monitor-paper":
        common = ["--data-dir", str(data), "--bootstrap", str(w.bootstrap),
                  "--test-days", str(w.test_days), "--seed", str(seed)]
        return [
            Step("rotate", ["rotate", *common, "--out", str(out / "rotate")],
                 partial(checker.check_monitoring, out / "rotate", w.regions)),
            Step("evaluate", ["evaluate", *common, "--case-study", "ontario",
                              "--out", str(out / "evaluate")],
                 partial(checker.check_evaluation, out / "evaluate")),
        ]
    model, series = out / "model.json", data / "alberta.csv"
    instances = w.regions * w.rows - w.test_days
    return [
        Step("train", ["train", "--data-dir", str(data), "--case-study", "alberta",
                       "--test-days", str(w.test_days), "--seed", str(seed), "--out", str(out)],
             partial(checker.check_training, out, instances), artifact=model),
        Step("predict", ["predict", "--model", str(model), "--input", str(series),
                         "--out", str(out)],
             partial(checker.check_predictions, out, series)),
        Step("ppe", ["ppe", "--model", str(model), "--input", str(series),
                     "--capacity", str(PPE_CAPACITY), "--personnel", str(PPE_PERSONNEL),
                     "--out", str(out)],
             partial(checker.check_ppe, out, series, PPE_CAPACITY, PPE_PERSONNEL)),
    ]


def write_inputs(regions: int, rows: int, seed: int, data_dir: Path) -> None:
    """Write the synthetic input CSVs of a workload at ``seed``."""
    from regio_forecast.synth import SyntheticSpec, write_region_files

    write_region_files(SyntheticSpec(regions=regions, rows=rows, seed=seed), data_dir)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--regions", "--rows", "--seed"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    from regio_forecast import cli  # noqa: F401 -- the import is part of set-up

    write_inputs(args.regions, args.rows, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
