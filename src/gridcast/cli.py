"""Command-line entry point.

Subcommands:

    synth      generate a synthetic household and write its CSV files
    ingest     validate + merge meter/weather files into one merged CSV
    train      train a single roster model and write its artifacts
    evaluate   score one model from a finished run on the test slice
    compare    run the full configured roster end to end
    report     re-render the metric table from a stored report.json

Every subcommand accepts --config (path to the flat JSON config, or the
literal word "default"), --seed (replaces both the experiment seed and
the generator seed), and --out.  The output directory resolves as:
--out flag, else the GRIDCAST_OUT environment variable, else the
config's out_dir.

Exit codes: 0 success; 2 for usage problems (bad flags, bad config,
subcommand inapplicable to the configured source); 1 for runtime
failures (unreadable data, training errors).  compare and report print
exactly the report.csv text on stdout, so piping either gives the same
metric table.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from gridcast.baselines import BASELINE_LAGS
from gridcast.config import (
    MODEL_NAMES,
    ExperimentConfig,
    load_config,
)
from gridcast.errors import GridcastError, InvalidConfigError, PipelineError
from gridcast.evaluate import compute_metrics, read_report_json, write_report_csv
from gridcast.nn.serialize import load_model
from gridcast.pipeline import alignment, load_frame, predict, run_experiment
from gridcast.preprocess import load_scalers
from gridcast.synth import generate, write_csvs

# Not called here: perfbench/probes.py patches these names on this module
# as well as on gridcast.pipeline, so they must stay bound.
from gridcast.baselines import persistence_forecast  # noqa: F401
from gridcast.ingest import (  # noqa: F401
    build_frame,
    interpolate_weather,
    load_weather_dir,
    merge_solar,
    parse_meter_csv,
)
from gridcast.models import lstm_predict, mlp_predict  # noqa: F401
from gridcast.preprocess import (  # noqa: F401
    feature_matrix,
    make_windows,
    scaler_from_dict,
    transform,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcast",
        description="Short-term household load forecasting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("synth", "generate synthetic household CSVs"),
        ("ingest", "validate and merge meter/weather files"),
        ("train", "train one model"),
        ("evaluate", "score one model from a finished run"),
        ("compare", "run the full configured roster"),
        ("report", "re-render the metric table from report.json"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat JSON config file, or 'default'")
        p.add_argument("--seed", type=int, default=None,
                       help="replace experiment and generator seeds")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory")
        if name in ("train", "evaluate"):
            p.add_argument("--model", required=True, choices=MODEL_NAMES)
        if name == "evaluate":
            p.add_argument("--run-dir", default=None, metavar="DIR",
                           help="finished run to load models/scalers from "
                                "(default: the output directory)")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config is None or args.config == "default":
        config = ExperimentConfig()
    else:
        config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(
            config, seed=args.seed,
            synth=dataclasses.replace(config.synth, seed=args.seed))
    return config


def _resolve_out(args, config: ExperimentConfig) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("GRIDCAST_OUT")
    if env:
        return Path(env)
    return Path(config.out_dir)


def _cmd_synth(args, config: ExperimentConfig, out: Path) -> int:
    if config.source != "synth":
        raise InvalidConfigError("synth subcommand needs source 'synth'")
    frame, truth = generate(config.synth)
    files = write_csvs(frame, truth, out)
    print(f"rows {len(frame.times)}")
    for path in list(files.meter) + list(files.weather):
        print(path)
    return 0


def _cmd_ingest(args, config: ExperimentConfig, out: Path) -> int:
    if config.source != "files":
        raise InvalidConfigError("ingest subcommand needs source 'files'")
    frame, counts = load_frame(config)
    for stream in ("meter", "grid", "solar"):
        if f"{stream}_rows" in counts:
            rows, dropped = counts[f"{stream}_rows"], counts[f"{stream}_dropped"]
            print(f"{stream} rows {rows} dropped {dropped}")
    if "merged_rows" in counts:
        print(f"merged rows {counts['merged_rows']} grid-only "
              f"{counts['grid_only']} solar-only {counts['solar_only']}")
    print(f"weather days {counts['weather_days']} from "
          f"{counts['weather_files']} files dropped {counts['weather_dropped']}")
    out.mkdir(parents=True, exist_ok=True)
    target = out / "merged.csv"
    frame.to_csv(target)
    print(f"frame rows {len(frame)} "
          f"dropped-no-weather {counts['dropped_no_weather']}")
    print(target)
    return 0


def _print_report_csv(path: Path) -> None:
    sys.stdout.write(path.read_text(encoding="utf-8"))


def _cmd_train(args, config: ExperimentConfig, out: Path) -> int:
    config = dataclasses.replace(config, models=(args.model,))
    result = run_experiment(config, out)
    _print_report_csv(result.out_dir / "report.csv")
    return 0


def _cmd_compare(args, config: ExperimentConfig, out: Path) -> int:
    result = run_experiment(config, out)
    _print_report_csv(result.out_dir / "report.csv")
    return 0


def _cmd_report(args, config: ExperimentConfig, out: Path) -> int:
    report_path = out / "report.json"
    if not report_path.exists():
        raise InvalidConfigError(f"no stored report at {report_path}")
    report = read_report_json(report_path)
    write_report_csv(report, out / "report.csv")
    _print_report_csv(out / "report.csv")
    return 0


def _cmd_evaluate(args, config: ExperimentConfig, out: Path) -> int:
    run_dir = Path(args.run_dir) if args.run_dir is not None else out
    frame, _ = load_frame(config)
    name = args.model
    model = scalers = None
    if name not in BASELINE_LAGS:
        scaler_path = run_dir / "scalers.json"
        model_path = run_dir / "models" / f"{name}.npz"
        for path in (scaler_path, model_path):
            if not path.exists():
                raise InvalidConfigError(f"missing artifact: {path}")
        # Errors carry their stage label, as in run_experiment.
        try:
            scalers = load_scalers(scaler_path)
            model, _ = load_model(model_path)
        except GridcastError as exc:
            raise PipelineError(stage="load", cause=exc) from exc
    try:
        align = alignment(config, len(frame))
        predicted = predict(name, model, frame, align, scalers)
        metrics = compute_metrics(predicted, frame.consumption[align.targets],
                                  units="watts")
    except GridcastError as exc:
        raise PipelineError(stage="evaluate", cause=exc) from exc
    out.mkdir(parents=True, exist_ok=True)
    payload = {"model": name, "slice": "test",
               "metrics": {"rmse": metrics.rmse, "mae": metrics.mae,
                           "r2": metrics.r2, "n": metrics.n,
                           "units": metrics.units}}
    result_path = out / f"evaluate_{name}.json"
    result_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"{name},test,rmse,{metrics.rmse!r},{metrics.n},{metrics.units}")
    print(f"{name},test,mae,{metrics.mae!r},{metrics.n},{metrics.units}")
    r2_text = "" if metrics.r2 is None else repr(metrics.r2)
    print(f"{name},test,r2,{r2_text},{metrics.n},{metrics.units}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        out = _resolve_out(args, config)
        return _COMMANDS[args.command](args, config, out)
    except InvalidConfigError as exc:
        print(f"gridcast: {exc}", file=sys.stderr)
        return 2
    except (GridcastError, OSError) as exc:
        print(f"gridcast: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
