"""Tests for the end-to-end experiment runner."""
import dataclasses
import json

import numpy as np
import pytest

from gridcast.config import ExperimentConfig, from_flat_dict
from gridcast.errors import PipelineError
from gridcast.evaluate import read_report_json
from gridcast.pipeline import Alignment, alignment, load_frame, run_experiment
from gridcast.synth import SynthConfig, generate, write_csvs
from gridcast.types import MergedFrame


def small_config(out_dir, **overrides):
    flat = {"synth.days": 8, "synth.seed": 3,
            "train.max_epochs": 2, "train.patience": 1,
            "out_dir": str(out_dir)}
    flat.update(overrides)
    return from_flat_dict(flat)


def test_alignment_matches_hand_computation():
    config = ExperimentConfig()
    align = alignment(config, 1000)
    assert align.boundary == 800
    assert align.window == 24
    assert align.targets[0] == 824 and align.targets[-1] == 999
    assert len(align.targets) == 176
    assert isinstance(align, Alignment)


def test_alignment_rejects_short_series():
    config = from_flat_dict({"window_length": 200})
    with pytest.raises(Exception) as exc_info:
        alignment(config, 240)
    assert "windows" in str(exc_info.value)


def test_naive_only_roster_gives_one_model(tmp_path):
    config = small_config(tmp_path, models=["naive"])
    result = run_experiment(config)
    assert result.report.models() == ("naive",)
    subsets = [c.subset for c in result.report.cells]
    assert subsets[0] == "test"
    assert all(s == "test" or s.startswith("test/") for s in subsets)


def test_baseline_predictions_match_lag_oracle(tmp_path):
    config = small_config(tmp_path, models=["naive", "seasonal-naive"])
    result = run_experiment(config)
    frame, counts = load_frame(config)
    assert counts == {}  # the synthetic source has no loading steps
    y = frame.consumption
    j = result.target_indices
    assert np.array_equal(result.predictions["naive"], y[j - 1])
    assert np.array_equal(result.predictions["seasonal-naive"], y[j - 288])
    cell = result.report.cell("naive", "test")
    assert cell is not None and cell.n == len(j)


def test_all_models_share_the_same_targets(tmp_path):
    config = small_config(tmp_path)
    result = run_experiment(config)
    n = 8 * 288
    boundary = int(0.8 * n)
    expected = np.arange(boundary + 24, n)
    assert np.array_equal(result.target_indices, expected)
    for name in config.models:
        assert len(result.predictions[name]) == len(expected)
        assert result.report.cell(name, "test").n == len(expected)


def test_artifacts_are_written(tmp_path):
    config = small_config(tmp_path)
    result = run_experiment(config)
    for name in ("config_resolved.json", "report.json", "report.csv",
                 "correlation.csv", "diurnal.csv", "scalers.json"):
        assert (tmp_path / name).is_file()
    for model in config.models:
        assert (tmp_path / "predictions" / f"{model}.csv").is_file()
    for model in ("mlp", "lstm"):
        assert (tmp_path / "models" / f"{model}.npz").is_file()
        assert (tmp_path / "history" / f"{model}.csv").is_file()
    assert not (tmp_path / "models" / "naive.npz").exists()
    stored = read_report_json(tmp_path / "report.json")
    assert stored.to_dict() == result.report.to_dict()


def test_prediction_csv_round_trips_exactly(tmp_path):
    config = small_config(tmp_path, models=["naive"])
    result = run_experiment(config)
    lines = (tmp_path / "predictions" / "naive.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert lines[0] == "timestamp,actual,predicted"
    assert len(lines) == 1 + len(result.target_indices)
    parsed = [float(line.split(",")[2]) for line in lines[1:]]
    assert np.array_equal(np.array(parsed), result.predictions["naive"])


def test_history_csv_shape(tmp_path):
    config = small_config(tmp_path, models=["mlp"])
    result = run_experiment(config)
    lines = (tmp_path / "history" / "mlp.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) - 1 == result.report.metadata["epochs"]["mlp"]
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[2])


def test_report_metadata_provenance(tmp_path):
    config = small_config(tmp_path, models=["naive"])
    result = run_experiment(config)
    meta = result.report.metadata
    assert meta["seed"] == config.seed
    assert meta["config"]["synth.days"] == 8
    assert meta["rows"] == 8 * 288
    assert meta["train_rows"] == int(0.8 * 8 * 288)
    assert meta["scored_targets"] == len(result.target_indices)
    assert len(meta["config_hash"]) == 64
    run_info = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert "created" in run_info
    resolved = json.loads((tmp_path / "config_resolved.json").read_text(
        encoding="utf-8"))
    assert resolved == meta["config"]


def test_repeat_run_writes_byte_identical_report_json(tmp_path):
    config = small_config(tmp_path, models=["naive", "seasonal-naive"])
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    assert b"created" not in first


def test_same_config_and_seed_reproduce_metrics_exactly(tmp_path):
    config_a = small_config(tmp_path / "a")
    config_b = small_config(tmp_path / "b")
    result_a = run_experiment(config_a)
    result_b = run_experiment(config_b)
    dict_a, dict_b = result_a.report.to_dict(), result_b.report.to_dict()
    assert dict_a["cells"] == dict_b["cells"]
    for name in config_a.models:
        assert np.array_equal(result_a.predictions[name],
                              result_b.predictions[name])


def test_different_seed_changes_trained_models_only(tmp_path):
    base = small_config(tmp_path / "a", models=["naive", "mlp"])
    other = dataclasses.replace(small_config(tmp_path / "b",
                                             models=["naive", "mlp"]), seed=1)
    result_a, result_b = run_experiment(base), run_experiment(other)
    assert np.array_equal(result_a.predictions["naive"],
                          result_b.predictions["naive"])
    assert not np.array_equal(result_a.predictions["mlp"],
                              result_b.predictions["mlp"])


def test_lstm_seed_stream_is_roster_independent(tmp_path):
    # dropping the mlp must not change what the lstm learns
    full = small_config(tmp_path / "a", models=["mlp", "lstm"])
    solo = small_config(tmp_path / "b", models=["lstm"])
    pred_full = run_experiment(full).predictions["lstm"]
    pred_solo = run_experiment(solo).predictions["lstm"]
    assert np.array_equal(pred_full, pred_solo)


def test_file_source_matches_synth_source(tmp_path):
    synth_config = SynthConfig(days=8, seed=3)
    frame, truth = generate(synth_config)
    write_csvs(frame, truth, tmp_path / "data")
    files_config = from_flat_dict({
        "source": "files",
        "files.meter": str(tmp_path / "data" / "meter.csv"),
        "files.weather_dir": str(tmp_path / "data" / "weather"),
        "models": ["naive"],
        "out_dir": str(tmp_path / "run"),
    })
    loaded, counts = load_frame(files_config)
    assert isinstance(loaded, MergedFrame)
    assert np.array_equal(loaded.consumption, frame.consumption)
    assert counts == {"meter_rows": 8 * 288, "meter_dropped": 0,
                      "weather_days": 8, "weather_files": 1,
                      "weather_dropped": 0, "dropped_no_weather": 0}
    result = run_experiment(files_config)
    direct = run_experiment(small_config(tmp_path / "run2", models=["naive"]))
    assert (result.report.cell("naive", "test").rmse
            == direct.report.cell("naive", "test").rmse)


def test_file_source_counts_every_loading_step(tmp_path):
    synth_config = SynthConfig(days=3, seed=5, solar=True)
    frame, truth = generate(synth_config)
    write_csvs(frame, truth, tmp_path / "data")
    grid = tmp_path / "data" / "grid.csv"
    solar = tmp_path / "data" / "solar.csv"
    # One blank grid reading, and one solar reading left out.
    grid.write_text(grid.read_text() + "2023-03-04 00:00,\n")
    lines = solar.read_text().splitlines(keepends=True)
    solar.write_text("".join(lines[:10] + lines[11:]))
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
                      "dropped_no_weather": 0}
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
    config = small_config(tmp_path, **{"window_length": 500})
    with pytest.raises(PipelineError) as exc_info:
        run_experiment(config)
    assert exc_info.value.stage == "preprocess"


def test_seasonal_naive_needs_a_day_of_history(tmp_path):
    config = small_config(tmp_path, **{"synth.days": 2, "split_ratio": 0.4,
                                       "window_length": 4,
                                       "models": ["seasonal-naive"]})
    with pytest.raises(PipelineError) as exc_info:
        run_experiment(config)
    assert exc_info.value.stage == "train"