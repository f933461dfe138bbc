"""Tests for the command-line interface."""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gridcast.cli import main
from gridcast.evaluate import read_report_json
from gridcast.types import MergedFrame


def write_config(tmp_path, name="config.json", **flat):
    path = tmp_path / name
    path.write_text(json.dumps(flat), encoding="utf-8")
    return path


def small_flat(tmp_path, **extra):
    flat = {"synth.days": 8, "synth.seed": 3,
            "train.max_epochs": 2, "train.patience": 1,
            "out_dir": str(tmp_path / "out")}
    flat.update(extra)
    return flat


def test_synth_writes_meter_and_weather_files(tmp_path, capsys):
    config = write_config(tmp_path, **small_flat(tmp_path, **{"synth.days": 5}))
    assert main(["synth", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "meter.csv").is_file()
    assert (out / "weather" / "202303.csv").is_file()
    stdout = capsys.readouterr().out
    assert "rows 1440" in stdout
    assert "meter.csv" in stdout


def test_synth_solar_writes_two_meter_streams(tmp_path):
    config = write_config(tmp_path, **small_flat(
        tmp_path, **{"synth.days": 5, "synth.solar": True}))
    assert main(["synth", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "grid.csv").is_file()
    assert (out / "solar.csv").is_file()
    assert not (out / "meter.csv").exists()


def test_out_flag_beats_env_beats_config(tmp_path, monkeypatch):
    config = write_config(tmp_path, **small_flat(tmp_path, **{"synth.days": 3}))
    monkeypatch.setenv("GRIDCAST_OUT", str(tmp_path / "env"))
    assert main(["synth", "--config", str(config)]) == 0
    assert (tmp_path / "env" / "meter.csv").is_file()
    assert not (tmp_path / "out").exists()
    assert main(["synth", "--config", str(config),
                 "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "meter.csv").is_file()


def test_ingest_round_trips_merged_frame(tmp_path, capsys):
    synth_config = write_config(tmp_path, "synth.json",
                                **small_flat(tmp_path, **{"synth.days": 4}))
    main(["synth", "--config", str(synth_config),
          "--out", str(tmp_path / "data")])
    capsys.readouterr()
    files_config = write_config(
        tmp_path, "files.json",
        **{"source": "files",
           "files.meter": str(tmp_path / "data" / "meter.csv"),
           "files.weather_dir": str(tmp_path / "data" / "weather"),
           "out_dir": str(tmp_path / "merged")})
    assert main(["ingest", "--config", str(files_config)]) == 0
    stdout = capsys.readouterr().out
    assert "meter rows 1152 dropped 0" in stdout
    assert "frame rows 1152" in stdout
    frame = MergedFrame.from_csv(tmp_path / "merged" / "merged.csv")
    assert len(frame.times) == 4 * 288


def _three_day_household(tmp_path):
    """A 3-day synthetic household's CSVs and a files config reading them."""
    synth_config = write_config(tmp_path, "synth.json",
                                **small_flat(tmp_path, **{"synth.days": 3}))
    assert main(["synth", "--config", str(synth_config),
                 "--out", str(tmp_path / "data")]) == 0
    return write_config(
        tmp_path, "files.json",
        **{"source": "files",
           "files.meter": str(tmp_path / "data" / "meter.csv"),
           "files.weather_dir": str(tmp_path / "data" / "weather"),
           "out_dir": str(tmp_path / "merged")})


def test_ingest_demotes_a_non_finite_weather_cell(tmp_path, capsys):
    files_config = _three_day_household(tmp_path)
    path = tmp_path / "data" / "weather" / "202303.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rain = [float(row[2]) for row in rows]
    rows[1][2] = "inf"  # rainfall_mm of the middle day
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert main(["ingest", "--config", str(files_config)]) == 0
    assert "weather days 3 from 1 files dropped 0" in capsys.readouterr().out
    frame = MergedFrame.from_csv(tmp_path / "merged" / "merged.csv")
    filled = np.interp(1.0, [0.0, 2.0], [rain[0], rain[2]])
    assert frame.weather[::288, 1].tolist() == [rain[0], filled, rain[2]]


def test_ingest_ignores_a_weather_file_for_no_real_month(tmp_path, capsys):
    files_config = _three_day_household(tmp_path)
    weather_dir = tmp_path / "data" / "weather"
    for name in ("202313.csv", "202300.csv"):
        shutil.copy(weather_dir / "202303.csv", weather_dir / name)
    capsys.readouterr()
    assert main(["ingest", "--config", str(files_config)]) == 0
    stdout = capsys.readouterr().out
    assert "weather days 3 from 1 files dropped 0" in stdout
    assert "frame rows 864 dropped-no-weather 0" in stdout


def test_ingest_requires_files_source(tmp_path):
    config = write_config(tmp_path, **small_flat(tmp_path))
    assert main(["ingest", "--config", str(config)]) == 2


def test_synth_requires_synth_source(tmp_path):
    config = write_config(tmp_path, **{
        "source": "files", "files.meter": "m.csv", "files.weather_dir": "w"})
    assert main(["synth", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_data_file_is_a_runtime_error(tmp_path, capsys):
    config = write_config(tmp_path, **{
        "source": "files", "files.meter": str(tmp_path / "nope.csv"),
        "files.weather_dir": str(tmp_path),
        "out_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gridcast: [data] ") and "nope.csv" in err


def test_bad_config_file_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["compare", "--config", str(bad)]) == 2
    unknown = write_config(tmp_path, "unknown.json", **{"no_such_key": 1})
    assert main(["compare", "--config", str(unknown)]) == 2


def test_argparse_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["train"])  # --model is required
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["train", "--model", "transformer"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_train_single_model(tmp_path, capsys):
    config = write_config(tmp_path, **small_flat(tmp_path))
    assert main(["train", "--model", "naive", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert "naive,test,rmse," in stdout
    assert "mlp" not in stdout
    report = read_report_json(tmp_path / "out" / "report.json")
    assert report.models() == ("naive",)


def test_compare_then_report_identical_tables(tmp_path, capsys):
    config = write_config(tmp_path, **small_flat(
        tmp_path, models=["naive", "seasonal-naive"]))
    assert main(["compare", "--config", str(config)]) == 0
    compare_stdout = capsys.readouterr().out
    csv_after_compare = (tmp_path / "out" / "report.csv").read_bytes()
    assert main(["report", "--config", str(config)]) == 0
    report_stdout = capsys.readouterr().out
    assert report_stdout == compare_stdout
    assert (tmp_path / "out" / "report.csv").read_bytes() == csv_after_compare
    assert compare_stdout.splitlines()[0] == "model,slice,metric,value,n,units"


def test_report_without_stored_results(tmp_path):
    config = write_config(tmp_path, **small_flat(tmp_path))
    assert main(["report", "--config", str(config)]) == 2


def test_seed_flag_reseeds_everything(tmp_path, capsys):
    config = write_config(tmp_path, **small_flat(tmp_path, models=["mlp"]))
    main(["compare", "--config", str(config), "--seed", "1",
          "--out", str(tmp_path / "a")])
    first = capsys.readouterr().out
    main(["compare", "--config", str(config), "--seed", "1",
          "--out", str(tmp_path / "b")])
    second = capsys.readouterr().out
    main(["compare", "--config", str(config), "--seed", "2",
          "--out", str(tmp_path / "c")])
    third = capsys.readouterr().out
    assert first == second
    assert first != third


def test_evaluate_baseline_needs_no_artifacts(tmp_path, capsys):
    config = write_config(tmp_path, **small_flat(tmp_path))
    assert main(["evaluate", "--model", "naive", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("naive,test,rmse,")
    payload = json.loads((tmp_path / "out" / "evaluate_naive.json").read_text(
        encoding="utf-8"))
    assert payload["model"] == "naive"
    assert payload["metrics"]["n"] > 0


@pytest.fixture(scope="module")
def compared_roster(tmp_path_factory):
    """A finished compare of all four roster models, and its config."""
    root = tmp_path_factory.mktemp("roster")
    config = write_config(root, **small_flat(root))
    assert main(["compare", "--config", str(config)]) == 0
    return config, root / "out"


@pytest.mark.parametrize("model", ["naive", "seasonal-naive", "mlp", "lstm"])
def test_evaluate_reproduces_training_run_metrics(compared_roster, model,
                                                  capsys):
    config, out = compared_roster
    capsys.readouterr()
    assert main(["evaluate", "--model", model, "--config", str(config)]) == 0
    capsys.readouterr()
    payload = json.loads((out / f"evaluate_{model}.json").read_text(
        encoding="utf-8"))
    cell = read_report_json(out / "report.json").cell(model, "test")
    assert payload["metrics"] == {"rmse": cell.rmse, "mae": cell.mae,
                                  "r2": cell.r2, "n": cell.n,
                                  "units": cell.units}


def test_evaluate_baseline_fails_as_compare_does(tmp_path, capsys):
    # A baseline whose lag reaches before row 0 is one error, whichever
    # command scores it: 2 days at split 0.1 put the first target at 81.
    config = write_config(tmp_path, **small_flat(
        tmp_path, **{"synth.days": 2, "split_ratio": 0.1,
                     "models": ["seasonal-naive"]}))
    assert main(["compare", "--config", str(config)]) == 1
    compare_err = capsys.readouterr().err
    assert main(["evaluate", "--model", "seasonal-naive",
                 "--config", str(config)]) == 1
    evaluate_err = capsys.readouterr().err
    assert compare_err == ("gridcast: [train] seasonal-naive needs 288 rows "
                           "of history before the first test target "
                           "(have 81)\n")
    assert evaluate_err == compare_err.replace("[train]", "[evaluate]")


def test_evaluate_missing_artifacts(tmp_path):
    config = write_config(tmp_path, **small_flat(tmp_path))
    assert main(["evaluate", "--model", "lstm", "--config", str(config)]) == 2


def test_stages_communicate_through_files_across_processes(tmp_path):
    """synth -> ingest -> train run as separate OS processes."""
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    synth_config = write_config(tmp_path, "synth.json", **{
        "synth.days": 8, "synth.seed": 3, "out_dir": str(data_dir)})
    files_config = write_config(tmp_path, "files.json", **{
        "source": "files",
        "files.meter": str(data_dir / "meter.csv"),
        "files.weather_dir": str(data_dir / "weather"),
        "train.max_epochs": 2, "train.patience": 1,
        "out_dir": str(out_dir)})

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "gridcast.cli", *argv],
            capture_output=True, text=True, timeout=300)

    synth = run("synth", "--config", str(synth_config))
    assert synth.returncode == 0, synth.stderr
    ingest = run("ingest", "--config", str(files_config))
    assert ingest.returncode == 0, ingest.stderr
    assert (out_dir / "merged.csv").is_file()
    train = run("train", "--model", "naive", "--config", str(files_config))
    assert train.returncode == 0, train.stderr
    assert "naive,test,rmse," in train.stdout
    report = run("report", "--config", str(files_config))
    assert report.returncode == 0, report.stderr
    assert report.stdout == train.stdout

    # and the file-driven metrics equal the in-process synth-driven ones
    in_process = write_config(tmp_path, "direct.json", **{
        "synth.days": 8, "synth.seed": 3, "models": ["naive"],
        "train.max_epochs": 2, "train.patience": 1,
        "out_dir": str(tmp_path / "direct")})
    assert main(["compare", "--config", str(in_process)]) == 0
    direct = read_report_json(tmp_path / "direct" / "report.json")
    via_files = read_report_json(out_dir / "report.json")
    assert direct.cell("naive", "test").rmse == via_files.cell("naive", "test").rmse


def test_default_config_literal(tmp_path, monkeypatch):
    # the literal word "default" selects the built-in defaults; point the
    # output somewhere disposable and only exercise argument resolution
    monkeypatch.setenv("GRIDCAST_OUT", str(tmp_path / "o"))
    config_error = main(["report", "--config", "default"])
    assert config_error == 2  # nothing stored yet, flagged as usage

@pytest.fixture(scope="module")
def stored_lstm_run(tmp_path_factory):
    """A finished lstm run, copied per test before it is damaged."""
    root = tmp_path_factory.mktemp("stored")
    config = write_config(root, **small_flat(root, models=["lstm"]))
    assert main(["compare", "--config", str(config)]) == 0
    return root / "out"


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _garbage(path):
    path.write_bytes(b"this is not a model archive\n" * 8)


def _bad_json(path):
    path.write_text('{"target": ', encoding="utf-8")


@pytest.mark.parametrize("command, damaged, damage", [
    ("evaluate", "models/lstm.npz", _truncate),
    ("evaluate", "models/lstm.npz", _garbage),
    ("evaluate", "scalers.json", _bad_json),
    ("report", "report.json", _bad_json),
], ids=["truncated-model", "garbage-model", "bad-scalers", "bad-report"])
def test_corrupt_artifact_is_a_one_line_runtime_error(
        tmp_path, stored_lstm_run, command, damaged, damage):
    out = tmp_path / "out"
    shutil.copytree(stored_lstm_run, out)
    damage(out / damaged)
    config = write_config(tmp_path, **small_flat(tmp_path, models=["lstm"]))
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--model", "lstm"]
    done = subprocess.run([sys.executable, "-m", "gridcast.cli", *argv],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in done.stderr
    assert lines[0].startswith("gridcast: ")
    assert str(out / damaged) in lines[0]
    if command == "evaluate":
        assert lines[0].startswith("gridcast: [load] ")
