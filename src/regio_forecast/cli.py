"""Command-line driver.

Subcommands: synth, train, evaluate, rotate, predict, ppe, relevance.
Each subcommand takes only the flags it reads; any other flag is a usage
error (exit 2). A --config file may hold keys a command does not read.
Configuration precedence is flag > config file (JSON via --config) >
built-in default, and every run's randomness flows from one master seed.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error. Set REGIO_FORECAST_LOG to DEBUG/INFO/WARNING to control logging.
``train``, ``evaluate`` and ``rotate`` train through ``evaluation.train_held_out``, after
bad flags are refused. Each ``cmd_<name>`` returns its message and {file name: text},
and ``main`` writes those files into ``--out``, then prints the message.
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
from .ingest import RegionalDataset, parse_regional_csv, region_by_name
from .mtl import MtlModel, predict_monitoring
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
    datasets, files = [], {}
    for path in sorted(root.glob("*.csv")):
        try:
            region = region_by_name(path.stem)
        except ConfigError:
            log.warning("skipping %s: not a known region file", path.name)
            continue
        if region.code in files:
            raise DataError(f"{files[region.code]} and {path} are both files of {region.name}")
        files[region.code] = path
        datasets.append(parse_regional_csv(path, region))
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


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    datasets, case_ds, split, model, report = _train(cfg)
    case = model.case_study
    doc = dataclasses.asdict(report)
    doc["case_study"] = case.name
    doc["pooled_regions"] = sorted(
        ds.region.name for ds in datasets if ds.region.code != case.code)
    doc["test_days_held_out"] = len(split.test_indices)
    doc["seed"] = cfg.seed
    del datasets, case_ds    # free the parsed tables before the artifact is encoded
    path = Path(cfg.out) / "model.json"
    save_model(model, path)  # streamed, so the encoded artifact is never one string
    log.info("model written to %s", path)
    return (f"trained {case.name}: generic={report.generic_instances} "
            f"dedicated={report.dedicated_instances} -> {path}",
            {"train_report.json": json.dumps(doc, indent=2, sort_keys=True)})


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    bootstrap = BootstrapConfig(cfg.bootstrap, cfg.seed)   # a bad count is refused before training
    _, case_ds, split, model, report = _train(cfg)
    test = case_ds.subset(split.test_indices)
    metric_report = evaluate_model(model, test, bootstrap, report.fit_seconds)
    return (f"evaluated {case_ds.region.name} on {test.n_rows} held-out days -> {Path(cfg.out)}",
            {"evaluation.csv": reports_to_target_table([metric_report]),
             "evaluation_long.csv": reports_to_long_csv([metric_report]),
             "evaluation.json": json.dumps(metric_report.to_json_dict(), indent=2, sort_keys=True)})


def cmd_rotate(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    datasets = _load_datasets(cfg.data_dir)
    _check_test_days(cfg, datasets)
    reports = rotate_regions(
        datasets, cfg.k, cfg.test_days, cfg.seed, cfg.generic_weight, cfg.bootstrap)
    files = {f"monitoring_{target}.csv": reports_to_target_table(reports, target)
             for target in TARGET_COLUMNS}
    files["rotation_long.csv"] = reports_to_long_csv(reports)
    files["rotation.json"] = json.dumps([r.to_json_dict() for r in reports], indent=2,
                                        sort_keys=True)
    return f"rotated {len(reports)} regions -> {Path(cfg.out)}", files


def _predictions_csv(dates: np.ndarray, counts: np.ndarray) -> str:
    """One row per ``datetime64[D]`` day: the target counts to 6 decimals, then each rounded."""
    lines = ["date," + ",".join(TARGET_COLUMNS)
             + "," + ",".join(f"{t}_rounded" for t in TARGET_COLUMNS)]
    row = "%s" + ",%.6f" * len(TARGET_COLUMNS) + ",%d" * len(TARGET_COLUMNS)
    for date, day, rounded in zip(np.datetime_as_string(dates).tolist(), counts.tolist(),
                                  np.rint(counts).astype(np.int64).tolist()):
        lines.append(row % (date, *day, *rounded))
    return "\n".join(lines) + "\n"


def _model_and_input(args: argparse.Namespace) -> tuple[MtlModel, RegionalDataset]:
    """The --model artifact and the --input file, read as the model's case study."""
    model = load_model(args.model)
    return model, parse_regional_csv(args.input, model.case_study)


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    model, ds = _model_and_input(args)
    text = _predictions_csv(ds.dates, predict_monitoring(model, ds))
    return (f"wrote {ds.n_rows} prediction rows -> {Path(cfg.out) / 'predictions.csv'}",
            {"predictions.csv": text})


def cmd_ppe(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    model, ds = _model_and_input(args)
    forecast = forecast_series(model, ds, cfg.ppe_operating_capacity, cfg.ppe_personnel)
    return (f"wrote {len(forecast)} PPE demand rows -> {Path(cfg.out) / 'ppe_forecast.csv'}",
            {"ppe_forecast.csv": forecast_to_csv(forecast)})


def cmd_relevance(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    case_ds = _case_dataset(_load_datasets(cfg.data_dir), cfg)
    report = score_relevance(case_ds.columns(FEATURE_CODES), FEATURE_CODES, case_ds.targets)
    return (f"scored {len(report.feature_codes)} features for {case_ds.region.name} "
            f"-> {Path(cfg.out) / 'relevance.csv'}", {"relevance.csv": report.to_csv_text()})


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> tuple[str, dict[str, str]]:
    spec = SyntheticSpec(regions=args.regions, rows=args.rows, noise=args.noise, seed=cfg.seed)
    paths = write_region_files(spec, cfg.out)
    return f"wrote {len(paths)} regional files -> {cfg.out}", {}


# Each subcommand's help and its flags in parser order, and the argparse
# options of every flag that is not an optional plain string
_TRAIN_FLAGS = ("data-dir", "case-study", "k", "generic-weight", "test-days", "seed",
                "top-n", "out")
_COMMANDS = {
    "synth": ("generate synthetic regional CSVs", ("seed", "out", "regions", "rows", "noise")),
    "train": ("train a model for the case study", _TRAIN_FLAGS),
    "evaluate": ("train and score held-out days", _TRAIN_FLAGS + ("bootstrap",)),
    "rotate": ("evaluate every region as the case study",
               ("data-dir", "k", "generic-weight", "test-days", "seed", "bootstrap", "out")),
    "predict": ("predict daily counts", ("out", "model", "input")),
    "ppe": ("predict daily PPE kit demand", ("out", "model", "input", "capacity", "personnel")),
    "relevance": ("export feature relevance scores", ("data-dir", "case-study", "out")),
}
_FLAG_OPTIONS = {"k": {"type": int}, "generic-weight": {"type": float}, "test-days": {"type": int},
                 "seed": {"type": int}, "bootstrap": {"type": int}, "top-n": {"type": int},
                 "regions": {"type": int, "default": 7}, "rows": {"type": int, "default": 362},
                 "noise": {"type": float, "default": 0.05}, "model": {"required": True},
                 "input": {"required": True}, "personnel": {"dest": "ppe_personnel", "type": float},
                 "capacity": {"dest": "ppe_operating_capacity", "type": float}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regio-forecast",
        description="Regional epidemic monitoring and PPE demand prediction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAG_OPTIONS.get(flag, {}))
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
        message, files = globals()[f"cmd_{args.command}"](cfg, args)   # looked up per call
        for name, text in files.items():
            atomic_write_text(Path(cfg.out) / name, text)
        print(message)
        return 0
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
