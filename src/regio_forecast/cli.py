"""Command-line driver.

Subcommands: synth, train, evaluate, rotate, predict, ppe, relevance.
Each subcommand takes only the flags it reads; any other flag is a usage
error (exit 2). A --config file may hold keys a command does not read.
Configuration precedence is flag > config file (JSON via --config) >
built-in default, and every run's randomness flows from one master seed.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error. Set REGIO_FORECAST_LOG to DEBUG/INFO/WARNING to control logging.
``train``, ``evaluate`` and ``rotate`` train through ``evaluation.train_held_out``;
the CLI refuses bad flags before any training, reads the files, writes the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import atomic_write_text, load_model, save_model
from .errors import ConfigError, DataError
from .evaluation import (
    BootstrapConfig,
    evaluate_model,
    reports_to_long_csv,
    reports_to_target_table,
    rotate_regions,
    train_held_out,
)
from .features import FEATURE_CODES, TARGET_COLUMNS, score_relevance
from .ingest import (
    REGION_ENCODINGS,
    RegionalDataset,
    normalize_region_name,
    parse_regional_csv,
    region_by_name,
)
from .mtl import predict_monitoring
from .ppe import forecast_series, forecast_to_csv
from .synth import SyntheticSpec, write_region_files

log = logging.getLogger("regio_forecast")


@dataclass
class RunConfig:
    data_dir: str = "data"
    case_study: str = "Ontario"
    k: int = 6
    generic_weight: float = 1.0
    test_days: int = 54
    seed: int = 0
    bootstrap: int = 1000
    top_n: int | None = None        # None: the default 13 columns; N: the N most relevant
    out: str = "out"
    ppe_operating_capacity: float = 0.75
    ppe_personnel: float = 200.0


# JSON value types accepted for each RunConfig field type; an int is a float too,
# and null leaves an optional int at its default.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "int | None": (type(None), int)}


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x})") from None
        except (OSError, json.JSONDecodeError, RecursionError) as exc:   # or nested too deep
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        types = {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(RunConfig)}
        unknown = set(doc) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            # bool is an int subclass, but true/false is not a number here
            if isinstance(value, bool) or not isinstance(value, types[key]):
                raise ConfigError(f"{args.config}: config key {key!r} must be "
                                  f"{types[key][-1].__name__}, got {value!r}")
        cfg = dataclasses.replace(cfg, **doc)
    cfg = dataclasses.replace(cfg, **{f.name: getattr(args, f.name)
                                      for f in dataclasses.fields(RunConfig)
                                      if getattr(args, f.name, None) is not None})
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    return cfg


def _load_datasets(data_dir: str) -> list[RegionalDataset]:
    root = Path(data_dir)
    if not root.is_dir():
        raise DataError(f"data directory not found: {root}")
    stems = {normalize_region_name(name): name for name in REGION_ENCODINGS.values()}
    datasets, files = [], {}
    for path in sorted(root.glob("*.csv")):
        key = normalize_region_name(path.stem)
        if key not in stems:
            log.warning("skipping %s: not a known region file", path.name)
            continue
        if key in files:
            raise DataError(f"{files[key]} and {path} are both files of {stems[key]}")
        files[key] = path
        datasets.append(parse_regional_csv(path, region_by_name(stems[key])))
    if not datasets:
        raise DataError(f"no regional CSV files found in {root}")
    return datasets


def _case_dataset(datasets: list[RegionalDataset], cfg: RunConfig) -> RegionalDataset:
    case = region_by_name(cfg.case_study)
    for ds in datasets:
        if ds.region.code == case.code:
            return ds
    raise DataError(
        f"case-study file missing: expected {case.file_stem}.csv in {cfg.data_dir}")


def _check_test_days(cfg: RunConfig, datasets: list[RegionalDataset]) -> None:
    """Every dataset that will be split keeps at least one day on each side, and two
    training days at generic weight 0, where the scaler is fitted on them alone."""
    for ds in datasets:
        if not 0 < cfg.test_days < ds.n_rows:
            raise ConfigError(f"--test-days must be in [1, {ds.n_rows - 1}] for {ds.region.name}, "
                              f"which has {ds.n_rows} days; got {cfg.test_days}")
        if cfg.generic_weight == 0 and ds.n_rows - cfg.test_days < 2:
            raise ConfigError(f"--generic-weight 0 needs at least 2 training days; --test-days "
                              f"{cfg.test_days} leaves 1 of {ds.region.name}'s {ds.n_rows}")


def _train(cfg: RunConfig):
    datasets = _load_datasets(cfg.data_dir)
    case_ds = _case_dataset(datasets, cfg)
    _check_test_days(cfg, [case_ds])
    train_days = case_ds.n_rows - cfg.test_days
    if cfg.top_n is not None and train_days < 3:   # relevance is scored on these days
        raise ConfigError(f"--top-n needs at least 3 training days; "
                          f"--test-days {cfg.test_days} leaves {train_days}")
    split, model, report = train_held_out(
        datasets, case_ds, cfg.test_days, cfg.seed, cfg.k, cfg.generic_weight, cfg.top_n)
    return datasets, case_ds, split, model, report


def cmd_train(cfg: RunConfig) -> int:
    datasets, case_ds, split, model, report = _train(cfg)
    case = model.case_study
    doc = dataclasses.asdict(report)
    doc["case_study"] = case.name
    doc["pooled_regions"] = sorted(
        ds.region.name for ds in datasets if ds.region.code != case.code)
    doc["test_days_held_out"] = len(split.test_indices)
    doc["seed"] = cfg.seed
    del datasets, case_ds    # free the parsed tables before the artifact is encoded
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    atomic_write_text(out / "train_report.json", json.dumps(doc, indent=2, sort_keys=True))
    log.info("model written to %s", out / "model.json")
    print(f"trained {case.name}: generic={report.generic_instances} "
          f"dedicated={report.dedicated_instances} -> {out / 'model.json'}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    bootstrap = BootstrapConfig(cfg.bootstrap, cfg.seed)   # a bad count is refused before training
    _, case_ds, split, model, report = _train(cfg)
    test = case_ds.subset(split.test_indices)
    metric_report = evaluate_model(model, test, bootstrap, report.fit_seconds)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "evaluation.csv", reports_to_target_table([metric_report]))
    atomic_write_text(out / "evaluation_long.csv", reports_to_long_csv([metric_report]))
    atomic_write_text(out / "evaluation.json",
                      json.dumps(metric_report.to_json_dict(), indent=2, sort_keys=True))
    print(f"evaluated {case_ds.region.name} on {test.n_rows} held-out days -> {out}")
    return 0


def cmd_rotate(cfg: RunConfig) -> int:
    datasets = _load_datasets(cfg.data_dir)
    _check_test_days(cfg, datasets)
    reports = rotate_regions(
        datasets, cfg.k, cfg.test_days, cfg.seed, cfg.generic_weight, cfg.bootstrap)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for target in TARGET_COLUMNS:
        atomic_write_text(out / f"monitoring_{target}.csv",
                          reports_to_target_table(reports, target))
    atomic_write_text(out / "rotation_long.csv", reports_to_long_csv(reports))
    atomic_write_text(
        out / "rotation.json",
        json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True))
    print(f"rotated {len(reports)} regions -> {out}")
    return 0


def _predictions_csv(dates: np.ndarray, counts: np.ndarray) -> str:
    """One row per ``datetime64[D]`` day: the target counts to 6 decimals, then each rounded."""
    lines = ["date," + ",".join(TARGET_COLUMNS)
             + "," + ",".join(f"{t}_rounded" for t in TARGET_COLUMNS)]
    row = "%s" + ",%.6f" * len(TARGET_COLUMNS) + ",%d" * len(TARGET_COLUMNS)
    for date, day, rounded in zip(np.datetime_as_string(dates).tolist(), counts.tolist(),
                                  np.rint(counts).astype(np.int64).tolist()):
        lines.append(row % (date, *day, *rounded))
    return "\n".join(lines) + "\n"


def cmd_predict(cfg: RunConfig, model_path: str, input_csv: str) -> int:
    model = load_model(model_path)
    ds = parse_regional_csv(input_csv, model.case_study)
    text = _predictions_csv(ds.dates, predict_monitoring(model, ds))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "predictions.csv", text)
    print(f"wrote {ds.n_rows} prediction rows -> {out / 'predictions.csv'}")
    return 0


def cmd_ppe(cfg: RunConfig, model_path: str, input_csv: str) -> int:
    model = load_model(model_path)
    ds = parse_regional_csv(input_csv, model.case_study)
    forecast = forecast_series(model, ds, cfg.ppe_operating_capacity, cfg.ppe_personnel)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "ppe_forecast.csv", forecast_to_csv(forecast))
    print(f"wrote {len(forecast)} PPE demand rows -> {out / 'ppe_forecast.csv'}")
    return 0


def cmd_relevance(cfg: RunConfig) -> int:
    case_ds = _case_dataset(_load_datasets(cfg.data_dir), cfg)
    report = score_relevance(case_ds.columns(FEATURE_CODES), FEATURE_CODES, case_ds.targets)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "relevance.csv", report.to_csv_text())
    print(f"scored {len(report.feature_codes)} features for {case_ds.region.name} "
          f"-> {out / 'relevance.csv'}")
    return 0


def cmd_synth(cfg: RunConfig, regions: int, rows: int, noise: float) -> int:
    spec = SyntheticSpec(regions=regions, rows=rows, noise=noise, seed=cfg.seed)
    paths = write_region_files(spec, cfg.out)
    print(f"wrote {len(paths)} regional files -> {cfg.out}")
    return 0


# Each subcommand's help and the RunConfig flags it reads, and the
# argparse options of the flags that are not plain strings
_TRAIN_FLAGS = ("data-dir", "case-study", "k", "generic-weight", "test-days", "seed",
                "top-n", "out")
_COMMANDS = {
    "synth": ("generate synthetic regional CSVs", ("seed", "out")),
    "train": ("train a model for the case study", _TRAIN_FLAGS),
    "evaluate": ("train and score held-out days", _TRAIN_FLAGS + ("bootstrap",)),
    "rotate": ("evaluate every region as the case study",
               ("data-dir", "k", "generic-weight", "test-days", "seed", "bootstrap", "out")),
    "predict": ("predict daily counts", ("out",)),
    "ppe": ("predict daily PPE kit demand", ("out",)),
    "relevance": ("export feature relevance scores", ("data-dir", "case-study", "out")),
}
_FLAG_OPTIONS = {"k": {"type": int}, "generic-weight": {"type": float},
                 "test-days": {"type": int}, "seed": {"type": int}, "bootstrap": {"type": int},
                 "top-n": {"type": int}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regio-forecast",
        description="Regional epidemic monitoring and PPE demand prediction.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, flags) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAG_OPTIONS.get(flag, {}))
    commands["synth"].add_argument("--regions", type=int, default=7)
    commands["synth"].add_argument("--rows", type=int, default=362)
    commands["synth"].add_argument("--noise", type=float, default=0.05)
    for name in ("predict", "ppe"):
        commands[name].add_argument("--model", required=True)
        commands[name].add_argument("--input", required=True)
    commands["ppe"].add_argument("--capacity", dest="ppe_operating_capacity", type=float)
    commands["ppe"].add_argument("--personnel", dest="ppe_personnel", type=float)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("REGIO_FORECAST_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse printed a usage error (2) or the help (0)
        return exc.code
    try:
        cfg = _load_config(args)
        if args.command in ("evaluate", "rotate") and cfg.test_days < 2:   # r2 needs 2 days
            raise ConfigError(f"--test-days must be >= 2 to score held-out days, "
                              f"got {cfg.test_days}")
        if args.command == "synth":
            return cmd_synth(cfg, args.regions, args.rows, args.noise)
        if args.command in ("predict", "ppe"):
            return {"predict": cmd_predict, "ppe": cmd_ppe}[args.command](
                cfg, args.model, args.input)
        return {"train": cmd_train, "evaluate": cmd_evaluate, "rotate": cmd_rotate,
                "relevance": cmd_relevance}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # noqa: BLE001 -- exit code 4 is the contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
