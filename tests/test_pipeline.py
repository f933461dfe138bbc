"""Tests for the end-to-end experiment runner."""
import dataclasses
import datetime as dt
import inspect
import json
import tracemalloc

import numpy as np
import pytest

from gridcast import pipeline, preprocess
from gridcast.config import ExperimentConfig, from_flat_dict
from gridcast.errors import PipelineError
from gridcast.evaluate import read_report_json, write_report_json
from gridcast.nn.layers import LSTM
from gridcast.pipeline import Alignment, alignment, load_frame, run_experiment
from gridcast.synth import SynthConfig, generate, write_csvs
from gridcast.types import ROW_CHUNK, SLOTS_PER_DAY, MergedFrame, format_timestamps
from helpers import (
    frame_of,
    random_frame,
    read_predictions,
    stored_metrics,
    traced_peak,
)


def small_config(**overrides):
    flat = {"synth.days": 8, "synth.seed": 3,
            "train.max_epochs": 2, "train.patience": 1}
    flat.update(overrides)
    return from_flat_dict(flat)


def test_returns_the_directory_it_wrote(tmp_path):
    out = run_experiment(small_config(models=["naive"]), str(tmp_path / "run"))
    assert out == tmp_path / "run" and (out / "report.json").is_file()


def test_alignment_matches_hand_computation():
    config = ExperimentConfig()
    align = alignment(config, 1000)
    assert align.boundary == 800
    assert align.targets[0] == 824 and align.targets[-1] == 999
    assert len(align.targets) == 176
    assert isinstance(align, Alignment)


def _extremes_at_block_edges(n: int, boundary: int) -> MergedFrame:
    """n rows, one a day, so each row has its own weather. Every feature
    column has its train maximum and minimum on the two sides of a
    ROW_CHUNK block edge, but for the first column's maximum, in the last
    train row; the first two test rows lie beyond them."""
    rng = np.random.default_rng(4)
    times = ((dt.date(1990, 1, 1).toordinal() + np.arange(n)) * SLOTS_PER_DAY
             + rng.integers(1, SLOTS_PER_DAY - 1, n))
    daily = rng.uniform(1.0, 30.0, (n, 6))
    high, low = (50.0, 300.0, 50.0, 99.0, 50.0, 99.0), (-15.0, 0.0) * 3
    for column in range(6):
        edge = ROW_CHUNK * (1 + column % 3)
        daily[edge - 1, column], daily[edge, column] = high[column], low[column]
    daily[boundary - 1, 0] = 54.0
    daily[boundary] = (55.0, 500.0, 55.0, 100.0, 55.0, 100.0)
    daily[boundary + 1] = (-20.0, 0.0) * 3
    times[ROW_CHUNK - 1] += SLOTS_PER_DAY - 1 - times[ROW_CHUNK - 1] % SLOTS_PER_DAY
    times[ROW_CHUNK] -= times[ROW_CHUNK] % SLOTS_PER_DAY
    return frame_of(times, rng.uniform(0.0, 3000.0, n), daily)


def test_block_built_scaler_and_mlp_inputs_equal_the_whole_array_formulas():
    n = 5 * ROW_CHUNK + 7
    align = alignment(ExperimentConfig(), n)
    # The train slice ends 5 rows into its fifth ROW_CHUNK block.
    assert align.boundary == 4 * ROW_CHUNK + 5
    frame = _extremes_at_block_edges(n, align.boundary)
    rows = align.train_rows
    whole = preprocess.fit_scaler(preprocess.feature_matrix(frame, rows))
    assert whole.x_max.tolist() == [54.0, 300.0, 50.0, 99.0, 50.0, 99.0,
                                    23 + 55 / 60]
    assert whole.x_min.tolist() == [-15.0, 0.0] * 3 + [0.0]
    scaler = align.feature_scaler(frame)
    assert scaler.x_min.tobytes() == whole.x_min.tobytes()
    assert scaler.x_max.tobytes() == whole.x_max.tobytes()
    inputs = align.mlp_inputs(frame, scaler)
    expected = preprocess.transform(preprocess.feature_matrix(frame, rows),
                                    scaler).astype(np.float32)
    assert inputs.dtype == np.float32
    assert inputs.shape == expected.shape and inputs.tobytes() == expected.tobytes()


def test_block_built_scaler_and_mlp_inputs_hold_no_float64_matrix():
    frame = random_frame(32 * ROW_CHUNK, seed=15)
    align = alignment(ExperimentConfig(), len(frame))
    matrix = align.boundary * 7 * 8  # one (n, 7) float64 array of the train rows
    scaler, peak = traced_peak(align.feature_scaler, frame)
    assert peak < 0.25 * matrix
    inputs, peak = traced_peak(align.mlp_inputs, frame, scaler)
    # The float32 inputs themselves, and a few blocks beside them.
    assert peak - inputs.nbytes < 0.25 * matrix


def test_alignment_rejects_short_series():
    # 100 rows split at 80 leave 20 test rows, fewer than one 24-row window.
    with pytest.raises(Exception) as exc_info:
        alignment(ExperimentConfig(), 100)
    assert "windows" in str(exc_info.value)


def test_naive_only_roster_gives_one_model(tmp_path):
    config = small_config(models=["naive"])
    cells = read_report_json(run_experiment(config, tmp_path) / "report.json")
    assert {c.model for c in cells} == {"naive"}
    subsets = [c.subset for c in cells]
    assert subsets[0] == "test"
    assert all(s == "test" or s.startswith("test/") for s in subsets)


def test_baseline_predictions_match_lag_oracle(tmp_path):
    config = small_config(models=["naive", "seasonal-naive"])
    run_experiment(config, tmp_path)
    frame, counts = load_frame(config)
    assert counts == {}  # the synthetic source has no loading steps
    y = frame.consumption
    j = alignment(config, len(y)).targets
    for name, lag in (("naive", 1), ("seasonal-naive", 288)):
        times, actual, predicted = read_predictions(tmp_path, name)
        assert np.array_equal(times, frame.times[j])
        assert np.array_equal(actual, y[j])
        assert np.array_equal(predicted, y[j - lag])
    cell = stored_metrics(tmp_path, "naive")
    assert cell is not None and cell.n == len(j)


def test_all_models_share_the_same_targets(tmp_path):
    config = small_config()
    run_experiment(config, tmp_path)
    n = 8 * 288
    boundary = int(0.8 * n)
    frame, _ = load_frame(config)
    expected = frame.times[boundary + 24:]
    for name in config.models:
        assert np.array_equal(read_predictions(tmp_path, name)[0], expected)
        assert stored_metrics(tmp_path, name).n == len(expected)


def test_artifacts_are_written(tmp_path):
    config = small_config()
    run_experiment(config, tmp_path)
    for name in ("config_resolved.json", "report.json", "report.csv",
                 "correlation.csv", "diurnal.csv", "scalers.json"):
        assert (tmp_path / name).is_file()
    for model in config.models:
        assert (tmp_path / "predictions" / f"{model}.csv").is_file()
    for model in ("mlp", "lstm"):
        assert (tmp_path / "models" / f"{model}.npz").is_file()
        assert (tmp_path / "history" / f"{model}.csv").is_file()
    assert not (tmp_path / "models" / "naive.npz").exists()
    # report.json holds the whole report: reloading and rewriting it
    # gives the same bytes.
    metadata = json.loads(
        (tmp_path / "report.json").read_text(encoding="utf-8"))["metadata"]
    write_report_json(metadata, read_report_json(tmp_path / "report.json"),
                      tmp_path / "again.json")
    assert ((tmp_path / "again.json").read_bytes()
            == (tmp_path / "report.json").read_bytes())


def test_prediction_csv_round_trips_exactly(tmp_path):
    config = small_config(models=["naive"])
    run_experiment(config, tmp_path)
    frame, _ = load_frame(config)
    y = frame.consumption
    j = alignment(config, len(y)).targets
    rows = zip(format_timestamps(frame.times[j]), y[j].tolist(),
               y[j - 1].tolist())
    assert ((tmp_path / "predictions" / "naive.csv").read_text(encoding="utf-8")
            == "timestamp,actual,predicted\n"
            + "".join(f"{t},{a!r},{p!r}\n" for t, a, p in rows))


def test_history_csv_shape(tmp_path):
    config = small_config(models=["mlp"])
    run_experiment(config, tmp_path)
    lines = (tmp_path / "history" / "mlp.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    metadata = json.loads(
        (tmp_path / "report.json").read_text(encoding="utf-8"))["metadata"]
    assert len(lines) - 1 == metadata["epochs"]["mlp"]
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[2])


def test_report_metadata_provenance(tmp_path):
    config = small_config(models=["naive"])
    run_experiment(config, tmp_path)
    meta = json.loads(
        (tmp_path / "report.json").read_text(encoding="utf-8"))["metadata"]
    assert meta["seed"] == config.seed
    assert meta["config"]["synth.days"] == 8
    assert meta["rows"] == 8 * 288
    assert meta["train_rows"] == int(0.8 * 8 * 288)
    assert meta["scored_targets"] == 8 * 288 - int(0.8 * 8 * 288) - 24
    assert len(meta["config_hash"]) == 64
    run_info = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert "created" in run_info
    resolved = json.loads((tmp_path / "config_resolved.json").read_text(
        encoding="utf-8"))
    assert resolved == meta["config"]


def test_repeat_run_writes_byte_identical_report_json(tmp_path):
    config = small_config(models=["naive", "seasonal-naive"])
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    assert b"created" not in first


def test_same_config_and_seed_reproduce_metrics_exactly(tmp_path):
    config = small_config()
    a = run_experiment(config, tmp_path / "a")
    b = run_experiment(config, tmp_path / "b")
    dict_a = json.loads((a / "report.json").read_text(encoding="utf-8"))
    dict_b = json.loads((b / "report.json").read_text(encoding="utf-8"))
    assert dict_a["cells"] == dict_b["cells"]
    for name in config.models:
        assert np.array_equal(read_predictions(a, name)[2],
                              read_predictions(b, name)[2])


def test_different_seed_changes_trained_models_only(tmp_path):
    base = small_config(models=["naive", "mlp"])
    other = dataclasses.replace(base, seed=1)
    a = run_experiment(base, tmp_path / "a")
    b = run_experiment(other, tmp_path / "b")
    assert np.array_equal(read_predictions(a, "naive")[2],
                          read_predictions(b, "naive")[2])
    assert not np.array_equal(read_predictions(a, "mlp")[2],
                              read_predictions(b, "mlp")[2])


def test_lstm_seed_stream_is_roster_independent(tmp_path):
    # dropping the mlp must not change what the lstm learns
    full = run_experiment(small_config(models=["mlp", "lstm"]), tmp_path / "a")
    solo = run_experiment(small_config(models=["lstm"]), tmp_path / "b")
    assert np.array_equal(read_predictions(full, "lstm")[2],
                          read_predictions(solo, "lstm")[2])


def test_file_source_matches_synth_source(tmp_path):
    synth_config = SynthConfig(days=8, seed=3)
    frame, truth = generate(synth_config)
    write_csvs(frame, truth, tmp_path / "data")
    files_config = from_flat_dict({
        "source": "files",
        "files.meter": str(tmp_path / "data" / "meter.csv"),
        "files.weather_dir": str(tmp_path / "data" / "weather"),
        "models": ["naive"],
    })
    loaded, counts = load_frame(files_config)
    assert isinstance(loaded, MergedFrame)
    assert np.array_equal(loaded.consumption, frame.consumption)
    assert counts == {"meter_rows": 8 * 288, "meter_dropped": 0,
                      "weather_days": 8, "weather_files": 1,
                      "weather_dropped": 0, "weather_invalid_cells": 0,
                      "dropped_no_weather": 0}
    via_files = run_experiment(files_config, tmp_path / "run")
    direct = run_experiment(small_config(models=["naive"]), tmp_path / "run2")
    assert (stored_metrics(via_files, "naive").rmse
            == stored_metrics(direct, "naive").rmse)


def test_file_source_counts_every_loading_step(tmp_path):
    synth_config = SynthConfig(days=3, seed=5, solar=True)
    frame, truth = generate(synth_config)
    write_csvs(frame, truth, tmp_path / "data")
    grid = tmp_path / "data" / "grid.csv"
    solar = tmp_path / "data" / "solar.csv"
    # One blank grid reading, one solar reading left out, and one
    # humidity above 100 % demoted to missing.
    grid.write_text(grid.read_text() + "2023-03-04 00:00,\n")
    lines = solar.read_text().splitlines(keepends=True)
    solar.write_text("".join(lines[:10] + lines[11:]))
    weather = tmp_path / "data" / "weather" / "202303.csv"
    lines = weather.read_text().splitlines(keepends=True)
    lines[2] = ",".join(lines[2].split(",")[:-1] + ["150\n"])
    weather.write_text("".join(lines))
    config = from_flat_dict({
        "source": "files", "files.grid": str(grid), "files.solar": str(solar),
        "files.weather_dir": str(tmp_path / "data" / "weather")})
    loaded, counts = load_frame(config)
    rows = 3 * 288
    assert counts == {"grid_rows": rows, "grid_dropped": 1,
                      "solar_rows": rows - 1, "solar_dropped": 0,
                      "merged_rows": rows - 1, "grid_only": 1,
                      "solar_only": 0, "weather_days": 3,
                      "weather_files": 1, "weather_dropped": 0,
                      "weather_invalid_cells": 1, "dropped_no_weather": 0}
    assert len(loaded) == rows - 1


def test_data_stage_failures_are_labeled(tmp_path):
    config = from_flat_dict({
        "source": "files",
        "files.meter": str(tmp_path / "nope.csv"),
        "files.weather_dir": str(tmp_path),
        "out_dir": str(tmp_path / "run"),
    })
    with pytest.raises(PipelineError) as exc_info:
        load_frame(config)
    assert exc_info.value.stage == "data"
    assert str(exc_info.value).startswith("[data]")


def test_preprocess_stage_failure_is_labeled(tmp_path):
    # 2 days split at 0.99 leave 6 test rows, fewer than one window.
    config = small_config(**{"synth.days": 2, "split_ratio": 0.99})
    with pytest.raises(PipelineError) as exc_info:
        run_experiment(config, tmp_path)
    assert exc_info.value.stage == "preprocess"


def test_seasonal_naive_needs_a_day_of_history(tmp_path):
    config = small_config(**{"synth.days": 2, "split_ratio": 0.4,
                             "models": ["seasonal-naive"]})
    with pytest.raises(PipelineError) as exc_info:
        run_experiment(config, tmp_path)
    assert exc_info.value.stage == "train"


def _lines_of(function):
    """(file, first line, last line) of a function's source."""
    lines, first = inspect.getsourcelines(function)
    return inspect.getsourcefile(function), first, first + len(lines) - 1


def test_lstm_trains_without_the_feature_matrix_alive(tmp_path, monkeypatch):
    # Only the mlp reads the feature matrix and its scaled copy, so no
    # array allocated in feature_matrix or transform may still be alive
    # when the lstm starts training.
    config = small_config(models=["naive", "mlp", "lstm"],
                          **{"train.max_epochs": 1})
    sources = [_lines_of(preprocess.feature_matrix),
               _lines_of(preprocess.transform)]
    alive = []
    real_train = pipeline.train

    def train(model, *args, **kwargs):
        if isinstance(model.layers[0], LSTM):
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            for trace in arrays.traces:
                if any(frame.filename == path and first <= frame.lineno <= last
                       for frame in trace.traceback
                       for path, first, last in sources):
                    alive.append(trace.size)
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train", train)
    tracemalloc.start(16)
    try:
        run_experiment(config, tmp_path)
    finally:
        tracemalloc.stop()
    assert sorted(p.name for p in (tmp_path / "predictions").iterdir()) == [
        "lstm.csv", "mlp.csv", "naive.csv"]
    assert alive == []


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_each_network_stream_is_a_child_of_the_experiment_seed(seed):
    # Building stream k alone gives what spawning both streams gives.
    children = np.random.SeedSequence(seed).spawn(2)
    for k in (0, 1):
        alone = np.random.SeedSequence(seed, spawn_key=(k,))
        assert np.array_equal(alone.generate_state(8),
                              children[k].generate_state(8))


def test_baseline_roster_draws_no_stream_and_scales_no_features(
        tmp_path, monkeypatch):
    frame, truth = generate(SynthConfig(days=8, seed=3))
    write_csvs(frame, truth, tmp_path / "data")
    config = from_flat_dict({
        "source": "files",
        "files.meter": str(tmp_path / "data" / "meter.csv"),
        "files.weather_dir": str(tmp_path / "data" / "weather"),
        "models": ["naive", "seasonal-naive"]})
    run_experiment(config, tmp_path / "a")

    def no_stream(*args, **kwargs):
        raise AssertionError("a baseline roster built a random stream")

    scaled = []
    real_transform = pipeline.transform

    def transform(x, params):
        scaled.append(np.shape(x))
        return real_transform(x, params)

    monkeypatch.setattr(np.random, "SeedSequence", no_stream)
    monkeypatch.setattr(pipeline, "transform", transform)
    run_experiment(config, tmp_path / "b")
    assert not [shape for shape in scaled if shape[1:] == (7,)]
    names = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(tmp_path / "b")
                           for p in (tmp_path / "b").rglob("*") if p.is_file())
    for name in names:
        if name.name != "run.json":
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name
