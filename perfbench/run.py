"""Benchmark one workload of the regio-forecast CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports the package and writes the workload's synthetic input CSVs
(``regio_forecast.synth`` at ``--seed``). It is timed in fresh interpreters,
``SETUP_SAMPLES`` times, and ``setup_s`` is the median; this process then
writes the inputs the job reads, untimed. The workload's command
sequence then runs through ``regio_forecast.cli.main(argv)`` in this
single-threaded process, repeated (at least twice) until ``--seconds``,
counted from the start of set-up, would be exceeded, and every call's
output files are checked. Timings are medians over the repetitions.

With ``--trace 1`` every second repetition runs with span tracing on (see
``tracer.py``); per-layer metrics come from the traced repetitions and the
tracing overhead is the traced minus the untraced median job time.

Human-readable lines come first. The last line of standard output is one
JSON object with the metrics that ``BENCHMARK.json`` names, and a fuller
record, spans included, is written to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):          # run as a script
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.checker import CheckFailure, compare_reference  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    Tracer, hooked, layer_metrics, median_metrics, subtree)
from perfbench.workloads import WORKLOADS, Step, Workload, steps, write_inputs  # noqa: E402

WORK = ROOT / "perfbench" / ".work"
REFERENCE_DIR = ROOT / "perfbench" / "reference"
REFERENCE_SEED = 0
SETUP_SAMPLES = 5
# Every run repeats the job at least twice, even when that outlasts --seconds,
# so no median rests on one sample and a traced run has an untraced twin.
MIN_REPS = 2
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Rep:
    """One execution of a workload's command sequence."""

    step_s: dict[str, float]
    failures: list[str]
    values: dict[str, dict[str, list[float]]]
    artifact_bytes: int | None = None
    tracer: Tracer | None = None

    @property
    def job_s(self) -> float:
        return sum(self.step_s.values())


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]      # name -> (value, unit)
    samples: dict[str, int]                    # name -> number of samples in the median
    failures: list[str]
    repetitions: list[dict]                    # per repetition: traced?, command -> seconds
    trace: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_rep(cli, job: list[Step], tracer: Tracer | None,
            reference: dict | None) -> Rep:
    rep = Rep({}, [], {}, tracer=tracer)
    for step in job:
        started = time.perf_counter()
        with tracer.span(f"cli.{step.label}") if tracer else nullcontext():
            with redirect_stdout(io.StringIO()):
                code = cli.main(step.argv)
        rep.step_s[step.label] = time.perf_counter() - started
        try:
            if code != 0:
                raise CheckFailure(f"exit code {code}")
            values = step.check()
            if reference is not None:
                if step.label not in reference:
                    raise CheckFailure(f"no reference values at seed {REFERENCE_SEED} "
                                       "for this scale; see record_reference.py")
                compare_reference(values, reference[step.label], step.label)
            rep.values[step.label] = values
        except CheckFailure as exc:
            rep.failures.append(f"{step.label}: {exc}")
        if step.artifact is not None and step.artifact.is_file():
            rep.artifact_bytes = step.artifact.stat().st_size
    return rep


def scale(workload: Workload) -> dict[str, int]:
    return {k: v for k, v in asdict(workload).items() if k != "name"}


def load_reference(workload: Workload, seed: int) -> dict | None:
    """Recorded output values by command at the reference seed, None at other seeds.

    At the reference seed, a missing file or one recorded at another scale
    gives no values, so every command of the run fails its check.
    """
    if seed != REFERENCE_SEED:
        return None
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["values"] if doc["scale"] == scale(workload) else {}


def _setup_in_subprocess(workload: Workload, seed: int, data_dir: Path) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", "--regions", str(workload.regions),
         "--rows", str(workload.rows), "--seed", str(seed), "--out", str(data_dir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    shutil.rmtree(data_dir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> Result:
    data, out = work / "data", work / "out"
    started = time.perf_counter()
    setup = [_setup_in_subprocess(workload, seed, work / f"setup{i}")
             for i in range(SETUP_SAMPLES)]
    setup_tracer = Tracer()
    with hooked(setup_tracer) if trace else nullcontext():
        write_inputs(workload.regions, workload.rows, seed, data)
    from regio_forecast import cli

    reference = load_reference(workload, seed)
    job = steps(workload, data, out, seed)
    reps: list[Rep] = []
    while True:
        tracer = Tracer() if trace and len(reps) % 2 == 1 else None
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        with hooked(tracer) if tracer else nullcontext():
            reps.append(run_rep(cli, job, tracer, reference))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.job_s for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break

    timed = [r for r in reps if r.tracer is None]
    traced = [r for r in reps if r.tracer is not None]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s": (statistics.median(r.job_s for r in timed), "s"),
    }
    samples = {"setup_s": len(setup), "job_s": len(timed)}
    for step in job:
        name = f"{step.label}_s"
        metrics[name] = (statistics.median(r.step_s[step.label] for r in timed), "s")
        samples[name] = len(timed)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    artifacts = [r.artifact_bytes for r in timed if r.artifact_bytes is not None]
    if artifacts:
        metrics["artifact_mb"] = (statistics.median(artifacts) / 1e6, "MB")
        samples["artifact_mb"] = len(artifacts)
    failures = [f for r in reps for f in r.failures]
    attempted = len(job) * len(reps)
    metrics["failed_frac"] = (len(failures) / attempted, "ratio")
    samples["failed_frac"] = attempted

    result = Result(attempted, len(failures), metrics, samples, failures,
                    [{"traced": r.tracer is not None, "step_s": r.step_s} for r in reps])
    if trace:
        result.trace = _trace_summary(setup_tracer, timed, traced)
        metrics.update(result.trace.pop("layers"))
    return result


def _trace_summary(setup_tracer: Tracer, timed: list[Rep], traced: list[Rep]) -> dict:
    layers = median_metrics([layer_metrics(r.tracer.spans) for r in traced])
    for name, value in layer_metrics(setup_tracer.spans).items():
        if name.startswith("synth."):
            layers[name] = value
    traced_job = statistics.median(r.job_s for r in traced)
    layers["trace.overhead_s"] = (traced_job - statistics.median(r.job_s for r in timed), "s")
    layers["trace.spans"] = (statistics.median(len(r.tracer.spans) for r in traced), "count")
    missing = traced[0].tracer.missing_hooks
    layers["trace.missing_hooks"] = (len(missing), "count")
    by_command = {}
    for label in traced[0].step_s:
        per_rep = [layer_metrics(subtree(r.tracer.spans, f"cli.{label}")) for r in traced]
        by_command[label] = {
            "command_s": statistics.median(r.step_s[label] for r in traced),
            **{name: value for name, (value, unit) in median_metrics(per_rep).items()
               if unit == "s"},
        }
    return {
        "layers": layers,
        "by_command": by_command,
        "missing_hooks": missing,
        "counter_errors": sorted({e for r in traced for e in r.tracer.counter_errors}),
        "spans": {"setup": [s.to_json_dict() for s in setup_tracer.spans],
                  "reps": [[s.to_json_dict() for s in r.tracer.spans] for r in traced]},
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, read from the library itself."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def report_lines(workload: Workload, seed: int, result: Result) -> list[str]:
    lines = [f"workload {workload.name}  seed {seed}  calls {result.attempted}  "
             f"failed {result.failed}"]
    for failure in result.failures:
        lines.append(f"  FAILED {failure}")
    for name, (value, unit) in result.metrics.items():
        n = result.samples.get(name)
        lines.append(f"  {name:32s} {value:14.6g} {unit:6s}" + (f" n={n}" if n else ""))
    for label, times in result.trace.get("by_command", {}).items():
        total = times["command_s"]
        top = sorted(((v, k) for k, v in times.items() if k != "command_s"), reverse=True)[:3]
        shares = ", ".join(f"{k} {v:.3f} s ({100 * v / total:.0f}%)" for v, k in top)
        lines.append(f"  {label}: {total:.3f} s traced; {shares}")
    if result.trace.get("missing_hooks"):
        lines.append("  hooks not found: " + ", ".join(result.trace["missing_hooks"]))
    for error in result.trace.get("counter_errors", []):
        lines.append(f"  counter error: {error}")
    return lines


def result_line(spec: dict, result: Result, trace: bool) -> dict:
    """The final output line: the metrics BENCHMARK.json names for this mode."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one regio-forecast workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regio_forecast").is_dir():
        print(f"error: no regio_forecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "failures": result.failures, "repetitions": result.repetitions,
        "metrics": {k: {"value": v, "unit": u, "samples": result.samples.get(k)}
                    for k, (v, u) in result.metrics.items()},
        **result.trace,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    record_path = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for line in report_lines(workload, args.seed, result):
        print(line)
    print(f"  full record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result_line(spec, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
