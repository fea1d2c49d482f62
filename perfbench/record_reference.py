"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record_reference.py

Runs every workload's command sequence once at the reference seed and
writes the checked values (predictions, PPE kits, interval ``mid`` values)
to ``perfbench/reference/<workload>.json``. Re-record only for a deliberate
change of outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):          # run as a script
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import REFERENCE_DIR, REFERENCE_SEED, WORK, run_rep, scale  # noqa: E402
from perfbench.workloads import WORKLOADS, steps, write_inputs  # noqa: E402


def record(name: str) -> Path:
    workload = WORKLOADS[name]
    work = WORK / f"reference-{name}"
    try:
        data, out = work / "data", work / "out"
        write_inputs(workload.regions, workload.rows, REFERENCE_SEED, data)
        out.mkdir(parents=True)
        from regio_forecast import cli

        rep = run_rep(cli, steps(workload, data, out, REFERENCE_SEED), None, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rep.failures:
        raise SystemExit(f"{name}: outputs failed their checks: {rep.failures}")
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    doc = {"seed": REFERENCE_SEED, "scale": scale(workload), "values": rep.values}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def main() -> int:
    for name in WORKLOADS:
        print(f"wrote {record(name).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
