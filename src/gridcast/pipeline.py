"""End-to-end experiment runner: data -> preprocess -> train -> report.

All roster models are scored on the identical test targets: the rows a
window-fed model can reach, i.e. everything from window_length slots
into the test slice onward.  Baselines are looked up at the same rows
so the metric table compares like with like.  ``predict`` is the one
prediction path; ``gridcast evaluate`` calls it too.

Artifacts land in one directory per run:

    config_resolved.json        the fully-defaulted config, echoed back
    report.json / report.csv    metric cells for every model and season
    run.json                    what differs between identical runs: when
                                the run was made
    correlation.csv             weather/consumption correlation matrix
    diurnal.csv                 per-season median daily profile
    scalers.json                train-fitted feature and target scalers
    models/<name>.npz           trained network weights
    history/<name>.csv          per-epoch train/validation loss
    predictions/<name>.csv      timestamp, actual, predicted (watts)

Randomness: the experiment seed drives model init and batch shuffling
through two fixed-purpose child streams (mlp, lstm), so a run is
reproducible bit for bit and dropping one model from the roster does
not reseed the other.  Synthetic data uses its own synth.seed.
"""
from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcast.baselines import BASELINE_LAGS, persistence_forecast
from gridcast.config import ExperimentConfig, config_hash, save_config, to_flat_dict
from gridcast.errors import GridcastError, PipelineError, SeriesTooShortError
from gridcast.evaluate import (
    EvalReport,
    ReportCell,
    compute_metrics,
    correlation_matrix,
    diurnal_profile,
    stratify_by_season,
    write_correlation_csv,
    write_diurnal_csv,
    write_report_csv,
    write_report_json,
)
from gridcast.ingest import (
    MeterCsvSpec,
    build_frame,
    interpolate_weather,
    load_weather_dir,
    merge_solar,
    parse_meter_csv,
)
from gridcast.models import (
    LstmSpec,
    build_lstm,
    build_mlp,
    lstm_predict,
    mlp_predict,
)
from gridcast.nn import Network
from gridcast.nn.serialize import save_model
from gridcast.nn.training import TrainConfig, TrainingHistory, train
from gridcast.preprocess import (
    ScalerParams,
    chronological_split,
    feature_matrix,
    fit_scaler,
    make_windows,
    save_scalers,
    transform,
)
from gridcast.synth import generate
from gridcast.types import MergedFrame, MeterRecords, format_timestamps


@dataclass(frozen=True)
class ExperimentResult:
    report: EvalReport
    out_dir: Path
    target_indices: np.ndarray
    predictions: dict[str, np.ndarray]


@dataclass(frozen=True)
class Alignment:
    """Where the test targets sit: rows [boundary+window, n)."""

    boundary: int
    window: int
    targets: np.ndarray


def alignment(config: ExperimentConfig, n_rows: int) -> Alignment:
    """Test-target alignment shared by every roster model."""
    boundary = chronological_split(n_rows, config.split_ratio).boundary
    window = config.window_length
    first_target = boundary + window
    if first_target >= n_rows:
        raise SeriesTooShortError(
            f"test slice has {n_rows - boundary} rows; windows of length "
            f"{window} leave no scorable targets")
    if boundary <= window + 1:
        raise SeriesTooShortError(
            f"train slice has only {boundary} rows, too few for "
            f"windows of length {window}")
    return Alignment(boundary=boundary, window=window,
                     targets=np.arange(first_target, n_rows))


def _wrap(stage: str, exc: Exception) -> PipelineError:
    return PipelineError(stage=stage, cause=exc)


def load_frame(config: ExperimentConfig) -> tuple[MergedFrame, dict[str, int]]:
    """Materialize the configured data source as a merged frame.

    Also returns the row counts of each loading step, by name: rows kept
    and dropped per meter stream ("meter", or "grid" and "solar"), the
    merge's rows, weather days, files and dropped rows, and the meter
    rows dropped for want of weather. The synthetic source has none.
    """
    try:
        if config.source == "synth":
            frame, _ = generate(config.synth)
            return frame, {}
        files = config.files
        counts: dict[str, int] = {}

        def parse(name: str, kind: str) -> MeterRecords:
            parsed = parse_meter_csv(
                MeterCsvSpec(path=getattr(files, name), kind=kind))
            counts[f"{name}_rows"] = len(parsed.records)
            counts[f"{name}_dropped"] = parsed.drops.total
            return parsed.records

        if files.meter is not None:
            meter = parse("meter", "plain")
        else:
            meter, grid_only, solar_only = merge_solar(
                parse("grid", "grid"), parse("solar", "solar"))
            counts.update(merged_rows=len(meter), grid_only=grid_only,
                          solar_only=solar_only)
        weather, drops, n_files = load_weather_dir(files.weather_dir)
        counts.update(weather_days=len(weather), weather_files=n_files,
                      weather_dropped=drops.total_rows)
        frame, counts["dropped_no_weather"] = build_frame(
            meter, interpolate_weather(weather))
        return frame, counts
    except (GridcastError, OSError) as exc:
        raise _wrap("data", exc) from exc


def predict(name: str, model: Network | None, frame: MergedFrame,
            align: Alignment,
            scalers: dict[str, ScalerParams] | None) -> np.ndarray:
    """Watts that roster model ``name`` predicts at every test target.

    A baseline looks up the reading its lag before each target and needs
    no model or scalers. The networks take the fitted "features" and
    "target" scalers.
    """
    targets = align.targets
    if name in BASELINE_LAGS:
        lag = BASELINE_LAGS[name]
        if lag > targets[0]:
            raise SeriesTooShortError(
                f"{name} needs {lag} rows of history before "
                f"the first test target (have {targets[0]})")
        return persistence_forecast(frame.consumption, lag, targets)
    if name == "mlp":
        features = feature_matrix(frame).features
        return mlp_predict(model, features[targets], scalers["features"],
                           scalers["target"])
    y_scaled = transform(frame.consumption.reshape(-1, 1),
                         scalers["target"]).ravel()
    windows = make_windows(y_scaled[align.boundary:], align.window)
    return lstm_predict(model, windows, scalers["target"],
                        spec=LstmSpec(window_length=align.window))


def _train_config(config: ExperimentConfig) -> TrainConfig:
    t = config.train
    return TrainConfig(batch_size=t.batch_size, max_epochs=t.max_epochs,
                       patience=t.patience, learning_rate=t.learning_rate)


def _validation_cut(n_rows: int, fraction: float) -> int:
    return n_rows - max(1, int(fraction * n_rows))


def run_experiment(config: ExperimentConfig,
                   out_dir: str | Path | None = None) -> ExperimentResult:
    """Run the configured experiment and write all artifacts."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    frame, _ = load_frame(config)

    # --- preprocess -------------------------------------------------------
    try:
        y = frame.consumption
        n = len(y)
        align = alignment(config, n)
        boundary, window, targets = align.boundary, align.window, align.targets
        target_scaler = fit_scaler(y[:boundary].reshape(-1, 1))
        y_scaled = transform(y.reshape(-1, 1), target_scaler).ravel()
        features = feature_matrix(frame).features
        feature_scaler = fit_scaler(features[:boundary])
        features_scaled = transform(features, feature_scaler)
        scalers = {"features": feature_scaler, "target": target_scaler}
    except GridcastError as exc:
        raise _wrap("preprocess", exc) from exc

    # --- train and predict --------------------------------------------------
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    train_settings = _train_config(config)
    predictions: dict[str, np.ndarray] = {}
    histories: dict[str, TrainingHistory] = {}
    trained = {}
    try:
        for name in config.models:
            if name == "mlp":
                rng = np.random.default_rng(seeds[0])
                model = build_mlp(rng=rng)
                cut = _validation_cut(boundary, config.train.validation_fraction)
                histories[name] = train(
                    model,
                    (features_scaled[:cut], y_scaled[:cut].reshape(-1, 1)),
                    (features_scaled[cut:boundary],
                     y_scaled[cut:boundary].reshape(-1, 1)),
                    train_settings, rng)
                trained[name] = model
            elif name == "lstm":
                rng = np.random.default_rng(seeds[1])
                model = build_lstm(spec=LstmSpec(window_length=window), rng=rng)
                train_windows = make_windows(y_scaled[:boundary], window)
                cut = _validation_cut(len(train_windows.targets),
                                      config.train.validation_fraction)
                histories[name] = train(
                    model,
                    (train_windows.inputs[:cut],
                     train_windows.targets[:cut].reshape(-1, 1)),
                    (train_windows.inputs[cut:],
                     train_windows.targets[cut:].reshape(-1, 1)),
                    train_settings, rng)
                trained[name] = model
            predictions[name] = predict(name, trained.get(name), frame, align,
                                        scalers)
    except GridcastError as exc:
        raise _wrap("train", exc) from exc

    # --- evaluate ------------------------------------------------------------
    try:
        actual = y[targets]
        target_times = frame.times[targets]
        cells = []
        for name in config.models:
            pred = predictions[name]
            cells.append(ReportCell(
                model=name, subset="test",
                metrics=compute_metrics(pred, actual, units="watts")))
            by_season = stratify_by_season(pred, actual, target_times,
                                           units="watts")
            for season, metrics in by_season.items():
                cells.append(ReportCell(
                    model=name, subset=f"test/{season.value}",
                    metrics=metrics))
        metadata = {
            "config": to_flat_dict(config),
            "config_hash": config_hash(config),
            "seed": config.seed,
            "rows": n,
            "train_rows": boundary,
            "test_rows": n - boundary,
            "scored_targets": len(targets),
            "epochs": {name: len(h.train_loss) for name, h in histories.items()},
            "best_epoch": {name: h.best_epoch for name, h in histories.items()},
        }
        report = EvalReport(metadata=metadata, cells=cells)
    except GridcastError as exc:
        raise _wrap("evaluate", exc) from exc

    # --- write artifacts ------------------------------------------------------
    try:
        out.mkdir(parents=True, exist_ok=True)
        save_config(config, out / "config_resolved.json")
        run_info = {"created": dt.datetime.now(dt.timezone.utc).isoformat()}
        (out / "run.json").write_text(
            json.dumps(run_info, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        write_report_json(report, out / "report.json")
        write_report_csv(report, out / "report.csv")
        write_correlation_csv(correlation_matrix(frame), out / "correlation.csv")
        write_diurnal_csv(diurnal_profile(frame), out / "diurnal.csv")
        save_scalers(scalers, out / "scalers.json")
        predictions_dir = out / "predictions"
        predictions_dir.mkdir(exist_ok=True)
        # Every file shares its timestamp and actual columns.
        prefixes = list(map("{},{!r},".format,
                            format_timestamps(target_times), actual.tolist()))
        for name, pred in predictions.items():
            with open(predictions_dir / f"{name}.csv", "w",
                      encoding="utf-8", newline="") as handle:
                handle.write("timestamp,actual,predicted\n")
                handle.writelines(map("{}{!r}\n".format, prefixes,
                                      pred.tolist()))
        if trained:
            models_dir = out / "models"
            models_dir.mkdir(exist_ok=True)
            for name, model in trained.items():
                save_model(model, models_dir / f"{name}.npz",
                           metadata={"model": name,
                                     "config_hash": metadata["config_hash"]})
        if histories:
            history_dir = out / "history"
            history_dir.mkdir(exist_ok=True)
            for name, history in histories.items():
                with open(history_dir / f"{name}.csv", "w",
                          encoding="utf-8", newline="") as handle:
                    handle.write("epoch,train_loss,val_loss\n")
                    for i, (tl, vl) in enumerate(
                            zip(history.train_loss, history.val_loss), 1):
                        handle.write(f"{i},{float(tl)!r},{float(vl)!r}\n")
    except OSError as exc:
        raise PipelineError(stage="write", cause=exc) from exc
    return ExperimentResult(report=report, out_dir=out,
                            target_indices=targets, predictions=predictions)
