"""Run every workload, untraced and then traced, each run in a fresh process.

    python3 perfbench/run_all.py [--seeds 0 1 ...] [--out FILE]

Each workload runs untraced once per seed and traced once at the first seed,
every run for the ``run_seconds`` that ``BENCHMARK.json`` gives.
Every run prints its metrics with units and sample counts and the result of
its output checks. The summary gives, per workload and end-to-end metric,
the median over seeds and the spread (interquartile range over median, as
``statistics.quantiles(n=4)`` gives the quartiles). Everything, the traced
per-layer metrics and the environment included, is written to ``--out``
(default ``perfbench/.work/report.json``). Exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORK = ROOT / "perfbench" / ".work"


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed}: run.py exited with {proc.returncode}")
    record_path = WORK / f"{name}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record.pop("spans", None)
    return record


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run every benchmark workload.")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", type=Path, default=WORK / "report.json")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    summary = []
    for workload in spec["workloads"]:
        name = workload["name"]
        timed = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        traced = run_once(name, args.seeds[0], seconds, 1)
        report["environment"] = traced.pop("environment")
        for record in timed:
            record.pop("environment")
        report["workloads"][name] = {
            "why": workload["why"],
            "spread": {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in timed])
                       for m in spec["end_to_end"]},
            "timed": timed,
            "traced": traced,
        }
        for metric, s in report["workloads"][name]["spread"].items():
            summary.append(f"  {name:14s} {metric:12s} median {s['median']:10.4f}  "
                           f"spread {s['iqr_over_median']:.4f}  n={len(timed)}")

    correct = all(r["correct"] for w in report["workloads"].values()
                  for r in w["timed"] + [w["traced"]])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("summary over seeds " + " ".join(map(str, args.seeds)))
    print("\n".join(summary))
    print(f"outputs {'correct' if correct else 'WRONG'}; report written to {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
