"""Tests for the command-line interface."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gridcast.cli import main
from gridcast.config import load_config
from gridcast.errors import SeriesTooShortError
from gridcast.evaluate import read_report_json
from gridcast.ingest import MeterCsvSpec, MeterDrops, parse_meter_csv
from gridcast.pipeline import load_frame
from gridcast.synth import generate
from helpers import stored_metrics


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


def test_a_reused_synth_directory_holds_only_the_last_household(tmp_path,
                                                                capsys):
    # A 70-day solar household writes grid.csv, solar.csv and the weather
    # of March to May; a 10-day grid household then writes meter.csv and
    # March. Files that are not gridcast's own stay.
    data = tmp_path / "data"
    solar = write_config(tmp_path, "solar.json",
                         **{"synth.days": 70, "synth.solar": True})
    assert main(["synth", "--config", str(solar), "--out", str(data)]) == 0
    for other in (data / "notes.txt", data / "weather" / "202313.csv"):
        other.write_text("kept\n")
    grid = write_config(tmp_path, "grid.json", **{"synth.days": 10})
    capsys.readouterr()
    assert main(["synth", "--config", str(grid), "--out", str(data)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rows 2880", str(data / "meter.csv"), str(data / "weather" / "202303.csv")]
    assert sorted(p.relative_to(data).as_posix()
                  for p in data.rglob("*") if p.is_file()) == [
        "meter.csv", "notes.txt", "weather/202303.csv", "weather/202313.csv"]
    files_config = write_config(
        tmp_path, "files.json",
        **{"source": "files", "files.meter": str(data / "meter.csv"),
           "files.weather_dir": str(data / "weather")})
    assert main(["ingest", "--config", str(files_config)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "meter rows 2880 dropped 0",
        "weather days 10 from 1 files dropped 0 invalid-cells 0",
        "frame rows 2880 dropped-no-weather 0"]


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
    assert capsys.readouterr().out.splitlines() == [
        "meter rows 1152 dropped 0",
        "weather days 4 from 1 files dropped 0 invalid-cells 0",
        "frame rows 1152 dropped-no-weather 0"]
    assert not (tmp_path / "merged").exists()  # ingest writes nothing
    # The frame read back from synth's files is the frame synth generated.
    frame, _ = load_frame(load_config(files_config))
    expected, _ = generate(load_config(synth_config).synth)
    assert np.array_equal(frame.times, expected.times)
    assert np.array_equal(frame.consumption, expected.consumption)
    assert np.array_equal(frame.weather.dates, expected.weather.dates)
    assert np.array_equal(frame.weather.values, expected.weather.values)


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
    assert ("weather days 3 from 1 files dropped 0 invalid-cells 1"
            in capsys.readouterr().out)
    frame, _ = load_frame(load_config(files_config))
    filled = np.interp(1.0, [0.0, 2.0], [rain[0], rain[2]])
    # Column 1 is rainfall, after max_temp.
    assert frame.weather.values[:, 1].tolist() == [rain[0], filled, rain[2]]


def test_ingest_ignores_a_weather_file_for_no_real_month(tmp_path, capsys):
    files_config = _three_day_household(tmp_path)
    weather_dir = tmp_path / "data" / "weather"
    for name in ("202313.csv", "202300.csv"):
        shutil.copy(weather_dir / "202303.csv", weather_dir / name)
    capsys.readouterr()
    assert main(["ingest", "--config", str(files_config)]) == 0
    stdout = capsys.readouterr().out
    assert "weather days 3 from 1 files dropped 0 invalid-cells 0" in stdout
    assert "frame rows 864 dropped-no-weather 0" in stdout


@pytest.mark.parametrize("command", ["ingest", "compare"])
def test_an_absurd_reading_is_dropped_and_counted(tmp_path, capsys, command):
    # A finite 1e308 W once passed the parser: grid + solar overflowed,
    # and on a plain meter the report got inf and nan. Above the
    # household ceiling it is now one dropped row per stream.
    synth_config = write_config(tmp_path, "synth.json", **small_flat(
        tmp_path, **{"synth.days": 12, "synth.solar": True}))
    assert main(["synth", "--config", str(synth_config),
                 "--out", str(tmp_path / "data")]) == 0
    for stream in ("grid", "solar"):
        path = tmp_path / "data" / f"{stream}.csv"
        text = path.read_text()
        start = text.index("\n2023-03-02 17:40,") + 1
        end = text.index("\n", start)
        path.write_text(text[:start] + "2023-03-02 17:40,1e308" + text[end:])
        assert parse_meter_csv(MeterCsvSpec(path, kind=stream)).drops == (
            MeterDrops(implausible_watts=1))
    files_config = write_config(
        tmp_path, "files.json", **small_flat(tmp_path, **{
            "source": "files", "models": ["naive", "mlp"],
            "files.grid": str(tmp_path / "data" / "grid.csv"),
            "files.solar": str(tmp_path / "data" / "solar.csv"),
            "files.weather_dir": str(tmp_path / "data" / "weather")}))
    capsys.readouterr()
    assert main([command, "--config", str(files_config)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "ingest":
        rows = 12 * 288 - 1
        assert f"grid rows {rows} dropped 1" in captured.out
        assert f"solar rows {rows} dropped 1" in captured.out
    else:
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert values and np.all(np.isfinite(values))


@pytest.mark.parametrize("damaged, tail", [
    ("meter.csv", b"\xff"),
    ("weather/202303.csv", b"\xe9"),
    ("meter.csv", b"2023-03-04 00:00," + b"1" * 200_000 + b"\n"),
    ("weather/202303.csv", b"2023-03-31," + b"1" * 200_000 + b"\n"),
], ids=["meter-not-utf8", "weather-not-utf8", "meter-huge-cell",
        "weather-huge-cell"])
@pytest.mark.parametrize("command", ["ingest", "compare"])
def test_an_unreadable_data_file_is_a_one_line_data_error(
        tmp_path, capsys, command, damaged, tail):
    # Each once ended in a UnicodeDecodeError or a csv "field larger
    # than field limit" traceback.
    files_config = _three_day_household(tmp_path)
    path = tmp_path / "data" / damaged
    with open(path, "ab") as handle:
        handle.write(tail)
    capsys.readouterr()
    assert main([command, "--config", str(files_config)]) == 1
    stderr = capsys.readouterr().err
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr
    assert lines[0].startswith(f"gridcast: [data] {path}: ")


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


def test_bad_config_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["compare", "--config", str(bad)]) == 2
    unknown = write_config(tmp_path, "unknown.json", **{"no_such_key": 1})
    assert main(["compare", "--config", str(unknown)]) == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"seed": 1, "out_dir": "\xff"}')
    capsys.readouterr()
    assert main(["compare", "--config", str(latin)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"gridcast: cannot read config {latin}: ")


@pytest.mark.parametrize("key, value, argv", [
    ("synth.days", 2.5, []), ("synth.days", "30", []),
    ("synth.seed", -1, []), ("synth.seed", 1.5, []),
    ("seed", "x", []), ("seed", -3, []),
    # No longer keys: a config that sets one exits 2 as an unknown key.
    ("window_length", 2.5, []), ("train.batch_size", 2.5, []),
    ("synth.solar", "no", []), ("seed", None, ["--seed", "-1"]),
    ("train.learning_rate", float("nan"), []),
    ("train.learning_rate", float("inf"), []),
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, key, value, argv):
    flat = {} if value is None else {key: value}
    config = write_config(tmp_path, **flat)
    assert main(["synth", "--config", str(config),
                 "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gridcast: ")
    assert key in err
    assert not (tmp_path / "o").exists()


def test_a_negative_seed_flag_is_named_as_the_flag(tmp_path, capsys):
    config = write_config(tmp_path, **small_flat(tmp_path))
    assert main(["synth", "--config", str(config), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == (
        "gridcast: --seed must be non-negative, got -1\n")
    assert not (tmp_path / "out").exists()


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
    cells = read_report_json(tmp_path / "out" / "report.json")
    assert {c.model for c in cells} == {"naive"}


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
    stdout = capsys.readouterr().out
    payload = json.loads((out / f"evaluate_{model}.json").read_text(
        encoding="utf-8"))
    cell = stored_metrics(out, model)
    assert payload["metrics"] == {"rmse": cell.rmse, "mae": cell.mae,
                                  "r2": cell.r2, "n": cell.n,
                                  "units": "watts"}
    # stdout is exactly the model's whole-test-slice rows of report.csv.
    rows = [line for line in (out / "report.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
        if line.startswith(f"{model},test,")]
    assert len(rows) == 3 and stdout == "".join(rows)


@pytest.mark.parametrize("model, stored", [("mlp", "lstm"), ("lstm", "mlp")])
def test_evaluate_a_swapped_model_file_is_a_one_line_error(
        tmp_path, capsys, compared_roster, model, stored):
    # Each network's own input check rejects the other's inputs.
    config, out = compared_roster
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    shutil.copyfile(out / "models" / f"{stored}.npz",
                    run_dir / "models" / f"{model}.npz")
    capsys.readouterr()
    assert main(["evaluate", "--model", model, "--config", str(config),
                 "--run-dir", str(run_dir), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr
    assert lines[0].startswith("gridcast: [evaluate] ")
    if model == "lstm":
        assert lines[0].startswith(
            "gridcast: [evaluate] dense layer expects (B, 7), got (")
    assert not (tmp_path / "o" / f"evaluate_{model}.json").exists()


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


def _files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file())


def test_a_reused_run_directory_holds_only_the_last_run(tmp_path, capsys):
    # A naive-only compare over a naive + lstm run once left the lstm's
    # files beside the new report.json, and evaluate --model lstm scored
    # the old network under the new scalers and exited 0.
    run_dir = tmp_path / "X"
    first = write_config(tmp_path, "first.json", **small_flat(
        tmp_path, **{"synth.days": 12, "models": ["naive", "lstm"]}))
    assert main(["compare", "--config", str(first),
                 "--out", str(run_dir)]) == 0
    assert "models/lstm.npz" in _files_under(run_dir)
    second = write_config(tmp_path, "second.json", **small_flat(
        tmp_path, **{"synth.days": 12, "models": ["naive"]}))
    assert main(["compare", "--config", str(second), "--seed", "5",
                 "--out", str(run_dir)]) == 0
    assert _files_under(run_dir) == [
        "config_resolved.json", "correlation.csv", "diurnal.csv",
        "predictions/naive.csv", "report.csv", "report.json", "run.json",
        "scalers.json"]
    capsys.readouterr()
    assert main(["evaluate", "--model", "lstm", "--config", str(second),
                 "--seed", "5", "--run-dir", str(run_dir),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gridcast: missing artifact: ")


def test_a_failed_write_stage_leaves_no_report_and_no_temporary_file(
        tmp_path, capsys, monkeypatch):
    # Each file is put in place by one os.replace, and report.json by the
    # last. Make each replace in turn fail, over a finished run.
    config = write_config(tmp_path, **small_flat(
        tmp_path, models=["naive", "mlp"]))
    done = tmp_path / "done"
    real_replace = os.replace
    replaced = []

    def counting(src, dst):
        replaced.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", counting)
    assert main(["compare", "--config", str(config), "--out", str(done)]) == 0
    assert replaced[-1] == done / "report.json"
    written = _files_under(done)
    assert len(replaced) == len(written) == 11
    for fail_at in range(len(replaced)):
        out = tmp_path / f"fail-{fail_at}"
        shutil.copytree(done, out)
        calls = []

        def failing(src, dst):
            calls.append(dst)
            if len(calls) > fail_at:
                raise OSError(f"no space left writing {dst}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        capsys.readouterr()
        assert main(["compare", "--config", str(config),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gridcast: [write] no space left writing ")
        left = _files_under(out)
        assert "report.json" not in left
        # No temporary file is left, and no file that the run names.
        assert set(left) <= set(written), left


@pytest.mark.parametrize("model", ["mlp", "lstm"])
def test_train_writes_the_bytes_compare_writes(tmp_path, compared_roster,
                                               model):
    # README, Determinism: one model's run writes the same files as the
    # whole roster's, and the same weights under another config_hash.
    config, roster = compared_roster
    one = tmp_path / "one"
    assert main(["train", "--model", model, "--config", str(config),
                 "--out", str(one)]) == 0
    for name in (f"predictions/{model}.csv", f"history/{model}.csv",
                 "scalers.json", "correlation.csv", "diurnal.csv"):
        assert (one / name).read_bytes() == (roster / name).read_bytes(), name
    with np.load(one / "models" / f"{model}.npz") as alone, \
            np.load(roster / "models" / f"{model}.npz") as together:
        names = [k for k in together.files if k.startswith("param_")]
        assert names and sorted(alone.files) == sorted(together.files)
        for key in names:
            assert np.array_equal(alone[key], together[key])
            assert alone[key].dtype == together[key].dtype


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
    assert not out_dir.exists()  # ingest writes nothing
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
    assert (stored_metrics(tmp_path / "direct", "naive").rmse
            == stored_metrics(out_dir, "naive").rmse)


@pytest.mark.parametrize("source", ["synth", "files"])
def test_compare_does_not_import_numpy_ma(tmp_path, source):
    # numpy.ma takes about 18 ms to import, and numpy 2.4 imports it for
    # an np.unique call that asks for neither indices nor counts.
    flat = small_flat(tmp_path)
    if source == "files":
        data = tmp_path / "data"
        synth_config = write_config(tmp_path, "synth.json", **flat)
        assert main(["synth", "--config", str(synth_config),
                     "--out", str(data)]) == 0
        flat.update({"source": "files",
                     "files.meter": str(data / "meter.csv"),
                     "files.weather_dir": str(data / "weather")})
    config = write_config(tmp_path, **flat)
    probe = ("import sys\n"
             "from gridcast.cli import main\n"
             f"code = main(['compare', '--config', {str(config)!r}])\n"
             "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300)
    assert done.stderr.splitlines()[-1] == "0 False", done.stderr


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


@pytest.mark.parametrize("metric, value", [
    ("rmse", "abc"), ("rmse", True), ("mae", None), ("r2", "0.5"),
    ("r2", False), ("n", "5"), ("n", True), ("n", 2.5), ("n", 0),
    # Python's json reads and writes these three as NaN and ±Infinity.
    ("rmse", float("nan")), ("mae", float("-inf")), ("r2", float("inf")),
])
def test_report_refuses_a_stored_metric_of_another_type(
        tmp_path, capsys, stored_lstm_run, metric, value):
    out = tmp_path / "out"
    shutil.copytree(stored_lstm_run, out)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["cells"][0]["metrics"][metric] = value
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    table = (out / "report.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gridcast: [load] cannot read report {out / 'report.json'}: "
        f"{metric} cannot be {json.dumps(value)}\n")
    assert (out / "report.csv").read_bytes() == table


@pytest.mark.parametrize("model, scaler, width", [
    ("mlp", "features", 6), ("lstm", "target", 2)])
def test_evaluate_refuses_scalers_of_another_width(
        tmp_path, capsys, compared_roster, model, scaler, width):
    config, out = compared_roster
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / "scalers.json"
    scalers = json.loads(path.read_text(encoding="utf-8"))
    scalers[scaler]["x_min"] = (scalers[scaler]["x_min"] * 2)[:width]
    path.write_text(json.dumps(scalers), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--model", model, "--config", str(config),
                 "--run-dir", str(run_dir), "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"gridcast: [load] cannot read scalers file {path}: ")


def _under_a_file(tmp_path):
    """An --out directory that cannot be made: its parent is a file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    return str(blocker / "out")


def _raise_grid_error(*args, **kwargs):
    raise SeriesTooShortError("injected failure")


def _failing_generate(tmp_path, monkeypatch, stored):
    monkeypatch.setattr("gridcast.cli.generate", _raise_grid_error)
    return ["synth", "--config", str(write_config(tmp_path, **small_flat(tmp_path)))]


def _synth_under_a_file(tmp_path, monkeypatch, stored):
    config = write_config(tmp_path, **small_flat(tmp_path))
    return ["synth", "--config", str(config), "--out", _under_a_file(tmp_path)]


def _compare_under_a_file(tmp_path, monkeypatch, stored):
    config = write_config(tmp_path, **small_flat(tmp_path, models=["naive"]))
    return ["compare", "--config", str(config),
            "--out", _under_a_file(tmp_path)]


def _evaluate_under_a_file(tmp_path, monkeypatch, stored):
    config = write_config(tmp_path, **small_flat(tmp_path))
    return ["evaluate", "--config", str(config), "--model", "naive",
            "--out", _under_a_file(tmp_path)]


def _report_from_garbage(tmp_path, monkeypatch, stored):
    out = tmp_path / "out"
    shutil.copytree(stored, out)
    (out / "report.json").write_text("not json", encoding="utf-8")
    return ["report", "--out", str(out)]


def _report_onto_a_directory(tmp_path, monkeypatch, stored):
    out = tmp_path / "out"
    shutil.copytree(stored, out)
    (out / "report.csv").unlink()
    (out / "report.csv").mkdir()
    return ["report", "--out", str(out)]


@pytest.mark.parametrize("stage, make_argv", [
    ("generate", _failing_generate),
    ("write", _synth_under_a_file),
    ("write", _compare_under_a_file),
    ("write", _evaluate_under_a_file),
    ("load", _report_from_garbage),
    ("write", _report_onto_a_directory),
], ids=["synth-generate", "synth-write", "compare-write", "evaluate-write",
        "report-load", "report-write"])
def test_every_runtime_failure_names_its_stage(
        tmp_path, monkeypatch, capsys, stored_lstm_run, stage, make_argv):
    argv = make_argv(tmp_path, monkeypatch, stored_lstm_run)
    capsys.readouterr()
    assert main(argv) == 1
    stderr = capsys.readouterr().err
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr
    assert lines[0].startswith(f"gridcast: [{stage}] ")
