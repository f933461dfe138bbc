"""End-to-end experiment runner: data -> preprocess -> train -> report.

Row contract.  ``Alignment`` owns every row index a run reads.  The
first floor(split_ratio * n) rows train and the rest test.  A target row
t is predicted from its window rows t - WINDOW_LENGTH ... t - 1 (the
lstm), its own feature row t (the mlp) or its lag row t - lag (a
baseline), and is scored against the reading at row t.  The scalers and
the mlp train on every train row; the lstm trains on the train rows
whose window lies in the train slice.  Every roster model is scored at
the same test targets, the test rows whose window lies in the test
slice, so the metric table compares like with like.  ``predict`` is the
one prediction path; ``gridcast evaluate`` calls it too.

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

Each file is replaced whole (``types.atomic_write``).  The write stage
removes report.json and the roster files of models outside the roster,
then writes report.json last, so no other run's roster file is beside it.

Randomness: the experiment seed drives model init and batch shuffling
through two fixed-purpose child streams, 0 for the mlp and 1 for the
lstm, so a run is reproducible bit for bit and dropping one model from
the roster does not reseed the other.  A stream is built only when its
network trains, so a roster of baselines draws no random number.
Synthetic data uses its own synth.seed.
"""
from __future__ import annotations

import contextlib
import datetime as dt
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from gridcast.baselines import BASELINE_LAGS, persistence_forecast
from gridcast.config import (
    MODEL_NAMES,
    ExperimentConfig,
    config_hash,
    save_config,
    to_flat_dict,
)
from gridcast.errors import GridcastError, PipelineError, SeriesTooShortError
from gridcast.evaluate import (
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
    COMPUTE_DTYPE,
    WINDOW_LENGTH,
    build_lstm,
    build_mlp,
    lstm_predict,
    mlp_predict,
)
from gridcast.nn import Network
from gridcast.nn.serialize import save_model
from gridcast.nn.training import TrainingHistory, train
from gridcast.preprocess import (
    FEATURE_COLUMNS,
    ScalerParams,
    WindowBatch,
    chronological_split,
    feature_matrix,
    fit_scaler,
    make_windows,
    save_scalers,
    transform,
)
from gridcast.synth import generate
from gridcast.types import (
    ROW_CHUNK,
    MergedFrame,
    MeterRecords,
    write_csv,
    write_json,
    write_row_files,
)


VALIDATION_FRACTION = 0.1  # the tail of each network's train rows, for early stopping


@dataclass(frozen=True)
class Alignment:
    """The row contract (module docstring): train rows end at ``boundary``
    and the shared test ``targets`` are rows [boundary + WINDOW_LENGTH, n)."""

    boundary: int
    targets: np.ndarray

    @property
    def train_rows(self) -> slice:
        """The rows the scalers are fitted on and the mlp trains on."""
        return slice(0, self.boundary)

    def _train_blocks(self) -> list[slice]:
        """The train rows as consecutive blocks of at most ROW_CHUNK rows."""
        return [slice(start, min(start + ROW_CHUNK, self.boundary))
                for start in range(0, self.boundary, ROW_CHUNK)]

    def feature_scaler(self, frame: MergedFrame) -> ScalerParams:
        """The feature scaler of the train rows, fitted a block at a time.
        A min or max over blocks is exact, so it equals
        ``fit_scaler(feature_matrix(frame, self.train_rows))``."""
        fits = [fit_scaler(feature_matrix(frame, rows))
                for rows in self._train_blocks()]
        return ScalerParams(x_min=np.min([s.x_min for s in fits], axis=0),
                            x_max=np.max([s.x_max for s in fits], axis=0))

    def mlp_inputs(self, frame: MergedFrame, scaler: ScalerParams) -> np.ndarray:
        """The mlp's scaled train features in COMPUTE_DTYPE, written into
        one array a block at a time. transform works element by element,
        so they equal ``transform(feature_matrix(frame, self.train_rows),
        scaler).astype(COMPUTE_DTYPE)`` without a float64 matrix of them."""
        out = np.empty((self.boundary, len(FEATURE_COLUMNS)), dtype=COMPUTE_DTYPE)
        for rows in self._train_blocks():
            out[rows] = transform(feature_matrix(frame, rows), scaler)
        return out

    def windows(self, series: np.ndarray, scaler: ScalerParams,
                train: bool = False) -> WindowBatch:
        """The scaled window rows t - WINDOW_LENGTH ... t - 1 of ``series``, in
        COMPUTE_DTYPE, for each lstm train target (``train``) or test target
        t, with row t as its target. Only the rows they read are scaled
        and copied, once: each window is a read-only view of that copy."""
        first, stop = ((WINDOW_LENGTH, self.boundary) if train
                       else (int(self.targets[0]), int(self.targets[-1]) + 1))
        rows = transform(series[first - WINDOW_LENGTH:stop], scaler)
        return make_windows(rows.astype(COMPUTE_DTYPE), WINDOW_LENGTH)

    def lag_rows(self, name: str) -> np.ndarray:
        """Row t - lag of each test target t, for the baseline ``name``."""
        lag = BASELINE_LAGS[name]
        if lag > self.targets[0]:
            raise SeriesTooShortError(
                f"{name} needs {lag} rows of history before "
                f"the first test target (have {self.targets[0]})")
        return self.targets - lag


def alignment(config: ExperimentConfig, n_rows: int) -> Alignment:
    """Test-target alignment shared by every roster model."""
    boundary = chronological_split(n_rows, config.split_ratio)
    first_target = boundary + WINDOW_LENGTH
    if first_target >= n_rows:
        raise SeriesTooShortError(
            f"test slice has {n_rows - boundary} rows; windows of length "
            f"{WINDOW_LENGTH} leave no scorable targets")
    if boundary <= WINDOW_LENGTH + 1:
        raise SeriesTooShortError(
            f"train slice has only {boundary} rows, too few for "
            f"windows of length {WINDOW_LENGTH}")
    return Alignment(boundary=boundary, targets=np.arange(first_target, n_rows))


@contextlib.contextmanager
def stage(name: str):
    """Re-raise a runtime failure in the block as a PipelineError that
    names the stage, so the CLI prints it as ``[name] ...``."""
    try:
        yield
    except (GridcastError, OSError) as exc:
        raise PipelineError(stage=name, cause=exc) from exc


def load_frame(config: ExperimentConfig) -> tuple[MergedFrame, dict[str, int]]:
    """Materialize the configured data source as a merged frame.

    Also returns the counts of each loading step, by name: rows kept
    and dropped per meter stream ("meter", or "grid" and "solar"), the
    merge's rows, weather days, files, dropped rows and cells demoted to
    missing, and the meter rows dropped for want of weather. The
    synthetic source has none.
    """
    with stage("data"):
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
                      weather_dropped=drops.total_rows,
                      weather_invalid_cells=drops.invalid_cells)
        frame, counts["dropped_no_weather"] = build_frame(
            meter, interpolate_weather(weather))
        return frame, counts


def predict(name: str, model: Network | None, frame: MergedFrame,
            align: Alignment,
            scalers: dict[str, ScalerParams] | None) -> np.ndarray:
    """Watts that roster model ``name`` predicts at every test target.

    A baseline looks up the reading its lag before each target and needs
    no model or scalers. The networks take the fitted "features" and
    "target" scalers.
    """
    if name in BASELINE_LAGS:
        return persistence_forecast(frame.consumption, align.lag_rows(name))
    if name == "mlp":
        return mlp_predict(model, feature_matrix(frame, align.targets),
                           scalers["features"], scalers["target"])
    windows = align.windows(frame.consumption, scalers["target"])
    return lstm_predict(model, windows, scalers["target"])


# Child stream of the experiment seed that each network draws from.
_SEED_STREAMS = {"mlp": 0, "lstm": 1}


def _fit_network(name: str, config: ExperimentConfig, frame: MergedFrame,
                 align: Alignment, scalers: dict[str, ScalerParams]
                 ) -> tuple[Network, TrainingHistory]:
    """Build roster network ``name`` and train it on the train slice.

    Its inputs are built here, from the frame and the fitted scalers, and
    released when its training ends: the lstm never trains beside the
    mlp's scaled feature matrix.
    """
    rng = np.random.default_rng(np.random.SeedSequence(
        config.seed, spawn_key=(_SEED_STREAMS[name],)))
    if name == "mlp":
        model = build_mlp(rng=rng)
        inputs = align.mlp_inputs(frame, scalers["features"])
        targets = transform(frame.consumption[align.train_rows], scalers["target"])
    else:
        model = build_lstm(rng=rng)
        windows = align.windows(frame.consumption, scalers["target"], train=True)
        inputs, targets = windows.inputs, windows.targets
    n = len(targets)
    cut = n - max(1, int(VALIDATION_FRACTION * n))
    history = train(model, (inputs[:cut], targets[:cut]),
                    (inputs[cut:], targets[cut:]), config.train, rng)
    return model, history


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Run the configured experiment, write its artifacts into ``out_dir``
    and return that directory."""
    out = Path(out_dir)
    frame, _ = load_frame(config)

    # --- preprocess -------------------------------------------------------
    with stage("preprocess"):
        y = frame.consumption
        n = len(y)
        align = alignment(config, n)
        targets = align.targets
        scalers = {
            "features": align.feature_scaler(frame),
            "target": fit_scaler(y[align.train_rows].reshape(-1, 1)),
        }

    # --- train and predict --------------------------------------------------
    predictions: dict[str, np.ndarray] = {}
    histories: dict[str, TrainingHistory] = {}
    trained = {}
    with stage("train"):
        for name in config.models:
            if name in _SEED_STREAMS:
                trained[name], histories[name] = _fit_network(
                    name, config, frame, align, scalers)
            predictions[name] = predict(name, trained.get(name), frame, align,
                                        scalers)

    # --- evaluate ------------------------------------------------------------
    with stage("evaluate"):
        actual = y[targets]
        target_times = frame.times[targets]
        cells = []
        for name in config.models:
            pred = predictions[name]
            cells.append(ReportCell(
                model=name, subset="test",
                metrics=compute_metrics(pred, actual)))
            by_season = stratify_by_season(pred, actual, target_times)
            for season, metrics in by_season.items():
                cells.append(ReportCell(
                    model=name, subset=f"test/{season.value}",
                    metrics=metrics))
        metadata = {
            "config": to_flat_dict(config),
            "config_hash": config_hash(config),
            "seed": config.seed,
            "rows": n,
            "train_rows": align.boundary,
            "test_rows": n - align.boundary,
            "scored_targets": len(targets),
            "epochs": {name: len(h.train_loss) for name, h in histories.items()},
            "best_epoch": {name: h.best_epoch for name, h in histories.items()},
        }

    # --- write artifacts ------------------------------------------------------
    with stage("write"):
        # report.json marks a whole run: withdrawn first, written last.
        (out / "report.json").unlink(missing_ok=True)
        for name in MODEL_NAMES:
            if name not in config.models:
                for path in (f"predictions/{name}.csv", f"history/{name}.csv",
                             f"models/{name}.npz"):
                    (out / path).unlink(missing_ok=True)
        save_config(config, out / "config_resolved.json")
        write_json(out / "run.json",
                   {"created": dt.datetime.now(dt.timezone.utc).isoformat()})
        write_report_csv(cells, out / "report.csv")
        write_correlation_csv(correlation_matrix(frame), out / "correlation.csv")
        write_diurnal_csv(diurnal_profile(frame), out / "diurnal.csv")
        save_scalers(scalers, out / "scalers.json")
        write_row_files(
            {out / "predictions" / f"{name}.csv": pred
             for name, pred in predictions.items()},
            "timestamp,actual,predicted", target_times, shared=[actual])
        for name, model in trained.items():
            save_model(model, out / "models" / f"{name}.npz",
                       metadata={"model": name,
                                 "config_hash": metadata["config_hash"]})
        for name, history in histories.items():
            write_csv(out / "history" / f"{name}.csv",
                      ("epoch", "train_loss", "val_loss"),
                      zip(count(1), history.train_loss, history.val_loss))
        write_report_json(metadata, cells, out / "report.json")
    return out
