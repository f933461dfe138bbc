"""Acceptance checklist: the package's headline guarantees, end to end.

Each test prints exactly one [PASS]/[FAIL] line (visible under
``pytest -s``) before asserting, so the file reads as a checklist.
The slow model-quality checks share two module-scoped training runs
and are held to explicit wall-clock budgets.
"""

import datetime as dt
import json
import math
import time

import numpy as np
import pytest

from gridcast.cli import main as cli_main
from gridcast.config import ExperimentConfig
from gridcast.evaluate import mae, pearson, r2, read_report_json, rmse
from gridcast.ingest import (
    MeterCsvSpec,
    WeatherDrops,
    interpolate_weather,
    load_weather_dir,
    parse_meter_csv,
)
from gridcast.models import LstmSpec, MlpSpec, build_lstm, build_mlp
from gridcast.nn.layers import Dense, LSTM, Network, count_params
from gridcast.nn.losses import mse_loss
from gridcast.pipeline import run_experiment
from gridcast.preprocess import chronological_split, make_windows
from gridcast.synth import SynthConfig, generate
from gridcast.types import WEATHER_CSV_COLUMNS


def _check(label: str, ok: bool, detail: str = "") -> None:
    """Print one checklist line, then enforce it."""
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


# --- shared training runs (used by the two model-quality checks) ---------

@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """Default synthetic household, full model roster, timed."""
    out = tmp_path_factory.mktemp("accept-grid")
    start = time.perf_counter()
    result = run_experiment(ExperimentConfig(), out)
    return result.report, time.perf_counter() - start


@pytest.fixture(scope="module")
def solar_run(tmp_path_factory):
    """Same household with panels switched on; static regressor only."""
    out = tmp_path_factory.mktemp("accept-solar")
    config = ExperimentConfig(synth=SynthConfig(solar=True), models=("mlp",))
    start = time.perf_counter()
    result = run_experiment(config, out)
    return result.report, time.perf_counter() - start


# --- 1: model sizes -------------------------------------------------------

def test_parameter_counts_are_exact():
    start = time.perf_counter()
    n_mlp = count_params(build_mlp(MlpSpec(), rng=np.random.default_rng(0)))
    n_lstm = count_params(build_lstm(LstmSpec(), rng=np.random.default_rng(0)))
    elapsed = time.perf_counter() - start
    _check(
        "model parameter counts are exact (2625 static, 10451 sequence)",
        n_mlp == 2625 and n_lstm == 10451 and elapsed < 1.0,
        f"mlp={n_mlp} lstm={n_lstm} elapsed={elapsed:.3f}s",
    )


# --- 2: gradients vs finite differences ----------------------------------

_H = 1e-5
_REL_TOL = 1e-4
_ZERO_FLOOR = 1e-7  # both gradients below this are treated as zero


def _numeric_gradients(loss_fn, params):
    out = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for k in range(flat_p.size):
            saved = flat_p[k]
            flat_p[k] = saved + _H
            up = loss_fn()
            flat_p[k] = saved - _H
            down = loss_fn()
            flat_p[k] = saved
            flat_g[k] = (up - down) / (2.0 * _H)
        out.append(g)
    return out


def _worst_relative_error(model, x, y) -> float:
    def loss_fn():
        return mse_loss(model.forward(x, train=False), y)[0]

    _, grad = mse_loss(model.forward(x, train=True), y)
    model.backward(grad)
    analytic = [g.copy() for g in model.grads()]
    numeric = _numeric_gradients(loss_fn, model.params())
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for av, nv in zip(a.ravel(), n.ravel()):
            scale = max(abs(av), abs(nv))
            if scale < _ZERO_FLOOR:
                continue
            worst = max(worst, abs(av - nv) / scale)
    return worst


def test_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    worst_mlp = worst_lstm = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mlp = Network([
            Dense(7, 4, "relu", rng=rng),
            Dense(4, 3, "relu", rng=rng),
            Dense(3, 1, rng=rng),
        ])
        for layer in mlp.layers:
            # keep pre-activations away from the relu kink
            layer.b[:] = rng.normal(size=layer.b.shape) * 0.1
        x = rng.normal(size=(8, 7))
        y = rng.normal(size=(8, 1))
        worst_mlp = max(worst_mlp, _worst_relative_error(mlp, x, y))

        rng = np.random.default_rng(1000 + seed)
        lstm = Network([LSTM(1, 4, "relu", rng=rng), Dense(4, 1, rng=rng)])
        head = lstm.layers[-1]
        head.b[:] = rng.normal(size=head.b.shape) * 0.1
        xs = rng.normal(size=(3, 5, 1))
        ys = rng.normal(size=(3, 1))
        worst_lstm = max(worst_lstm, _worst_relative_error(lstm, xs, ys))
    elapsed = time.perf_counter() - start
    _check(
        "analytic gradients match central differences for every parameter",
        worst_mlp < _REL_TOL and worst_lstm < _REL_TOL and elapsed < 30.0,
        f"worst rel err mlp={worst_mlp:.2e} lstm={worst_lstm:.2e} "
        f"over 10 seeds each, elapsed={elapsed:.2f}s",
    )


# --- 3: chronological split ----------------------------------------------

def test_split_counts_on_full_scale_series():
    split = chronological_split(117_513, 0.8)
    _check(
        "80/20 chronological split of 117513 rows lands on 94010/23503",
        split.boundary == 94_010 and 117_513 - split.boundary == 23_503,
        f"train={split.boundary} test={117_513 - split.boundary}",
    )


# --- 4: metric identities and hand-worked values --------------------------

def test_metric_identities_and_hand_worked_values():
    rng = np.random.default_rng(4)

    ok_mean = True
    for _ in range(5):
        actual = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.5, 3), size=400)
        ok_mean &= abs(r2(np.full(actual.size, actual.mean()), actual)) <= 1e-12

    ok_order = True
    for _ in range(1000):
        size = int(rng.integers(2, 60))
        pred = rng.normal(size=size) * rng.uniform(0.1, 10)
        actual = rng.normal(size=size) * rng.uniform(0.1, 10)
        ok_order &= rmse(pred, actual) >= mae(pred, actual)

    ok_affine = True
    for _ in range(20):
        pred = rng.normal(size=50)
        actual = rng.normal(size=50)
        alpha, beta = rng.uniform(0.2, 5), rng.uniform(-10, 10)
        ok_affine &= abs(r2(alpha * pred + beta, alpha * actual + beta)
                         - r2(pred, actual)) <= 1e-9

    hand = (
        abs(rmse([0.0, 0.0], [3.0, 4.0]) - math.sqrt(12.5)) <= 1e-9
        and abs(rmse([2.0], [5.0]) - 3.0) <= 1e-9
        and abs(mae([0.0, 0.0], [3.0, 4.0]) - 3.5) <= 1e-9
        and abs(mae([2.0, -2.0], [0.0, 0.0]) - 2.0) <= 1e-9
        and abs(r2([10.0, 10.0], [0.0, 2.0]) - (-81.0)) <= 1e-9
        and abs(pearson([1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0])) <= 1e-9
    )

    _check(
        "metric identities hold and hand-worked values match to 1e-9",
        ok_mean and ok_order and ok_affine and hand,
        f"mean-predictor r2 zero: {ok_mean}; rmse>=mae on 1000 draws: "
        f"{ok_order}; affine invariance: {ok_affine}; hand examples: {hand}",
    )


# --- 5: window enumeration ------------------------------------------------

def test_window_count_matches_brute_force():
    series = np.arange(30, dtype=np.float64) * 1.5 + 2.0
    length = 24
    batch = make_windows(series, length)

    brute_inputs = []
    brute_targets = []
    for i in range(series.size - length):
        brute_inputs.append(series[i:i + length])
        brute_targets.append(series[i + length])
    brute_inputs = np.array(brute_inputs)
    brute_targets = np.array(brute_targets)

    _check(
        "30-row series yields exactly 6 sliding windows of length 24",
        (len(batch) == 6
         and brute_inputs.shape[0] == 6
         and np.array_equal(batch.inputs[:, :, 0], brute_inputs)
         and np.array_equal(batch.targets, brute_targets)),
        f"windows={len(batch)} brute={brute_inputs.shape[0]}",
    )


# --- 6: model ranking on the default household ----------------------------

def test_default_household_model_ranking(grid_run):
    report, elapsed = grid_run
    lstm = report.cell("lstm", "test").r2
    mlp = report.cell("mlp", "test").r2
    naive = report.cell("naive", "test").r2
    ok = (
        lstm is not None and mlp is not None and naive is not None
        and lstm >= 0.80
        and mlp <= 0.50
        and lstm - mlp >= 0.30
        and lstm >= naive - 0.02
        and elapsed < 600.0
    )
    _check(
        "sequence model dominates the static one on the default household",
        ok,
        f"lstm r2={lstm:.4f} mlp r2={mlp:.4f} naive r2={naive:.4f} "
        f"elapsed={elapsed:.0f}s",
    )


# --- 7: solar features help the static model ------------------------------

def test_solar_features_lift_static_model(grid_run, solar_run):
    grid_report, _ = grid_run
    solar_report, solar_elapsed = solar_run
    mlp_grid = grid_report.cell("mlp", "test").r2
    mlp_solar = solar_report.cell("mlp", "test").r2

    frame_grid, _ = generate(SynthConfig())
    frame_solar, _ = generate(SynthConfig(solar=True))
    corr_grid = pearson(frame_grid.weather[:, 0], frame_grid.consumption)
    corr_solar = pearson(frame_solar.weather[:, 0], frame_solar.consumption)

    ok = (
        mlp_grid is not None and mlp_solar is not None
        and mlp_solar - mlp_grid >= 0.10
        and corr_solar > corr_grid
        and solar_elapsed < 600.0
    )
    _check(
        "solar household makes weather features genuinely informative",
        ok,
        f"mlp r2 {mlp_grid:.4f} -> {mlp_solar:.4f}; "
        f"temp/load correlation {corr_grid:.4f} -> {corr_solar:.4f}; "
        f"elapsed={solar_elapsed:.0f}s",
    )


# --- 8: bitwise reproducibility ------------------------------------------

def test_repeat_runs_are_bit_identical(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "synth.days": 16,
        "train.max_epochs": 4,
        "seed": 11,
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["compare", "--config", str(config_path), "--out", str(out_a)])
    code_b = cli_main(["compare", "--config", str(config_path), "--out", str(out_b)])

    cells_a = read_report_json(out_a / "report.json").to_dict()["cells"]
    cells_b = read_report_json(out_b / "report.json").to_dict()["cells"]
    same_tables = (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    same_predictions = all(
        (out_a / "predictions" / f"{name}.csv").read_bytes()
        == (out_b / "predictions" / f"{name}.csv").read_bytes()
        for name in ("naive", "seasonal-naive", "mlp", "lstm")
    )
    _check(
        "re-running an identical configured experiment is bit-identical",
        (code_a == 0 and code_b == 0 and cells_a == cells_b
         and same_tables and same_predictions),
        f"{len(cells_a)} metric cells, 4 prediction files compared",
    )


# --- 9: messy weather corpus ----------------------------------------------

_MONTHS = ("202303", "202304", "202305", "202306", "202307", "202308",
           "202309", "202310", "202311", "202312", "202401", "202402",
           "202403", "202404")
_MONTH_ROWS = (31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 31, 29, 31, 21)


def _weather_cells(i: int) -> list[str]:
    tmax = 18.0 + 8.0 * math.sin(2.0 * math.pi * i / 365.0)
    rain = max(0.0, 2.5 * math.sin(i * 0.7))
    rh9 = 60.0 + 15.0 * math.cos(i * 0.3)
    return [f"{v:.2f}" for v in
            (tmax, rain, tmax - 5.0, rh9, tmax - 1.5, rh9 - 12.0)]


def _write_corpus(directory, with_blanks: bool) -> dict[str, list[list[str]]]:
    """Write the 14 monthly files; return each file's data rows."""
    directory.mkdir()
    header = "date," + ",".join(WEATHER_CSV_COLUMNS)
    day = dt.date(2023, 3, 1)
    index = 0
    total = sum(_MONTH_ROWS)
    rows_by_month: dict[str, list[list[str]]] = {}
    for label, n_rows in zip(_MONTHS, _MONTH_ROWS):
        rows = []
        for _ in range(n_rows):
            cells = _weather_cells(index)
            if with_blanks and 0 < index < total - 1 and index % 23 == 7:
                cells[(index // 23) % 6] = ""
            rows.append([day.isoformat()] + cells)
            day += dt.timedelta(days=1)
            index += 1
        rows_by_month[label] = rows
        lines = [header] + [",".join(r) for r in rows]
        (directory / f"{label}.csv").write_text("\n".join(lines) + "\n")
    return rows_by_month


def test_messy_weather_corpus_is_handled_exactly(tmp_path):
    # clean corpus with interior blanks: parses whole, interpolates whole
    rows = _write_corpus(tmp_path / "clean", with_blanks=True)
    loaded, loaded_drops, _ = load_weather_dir(tmp_path / "clean")
    blanks_before = int(np.isnan(loaded.values).sum())
    filled = interpolate_weather(loaded)
    blanks_after = int(np.isnan(filled.values).sum())

    # defect corpus: same days plus appended junk and poisoned cells
    defect_dir = tmp_path / "defects"
    rows = _write_corpus(defect_dir, with_blanks=False)
    poison = {(2, 4): "150", (5, 1): "99.0", (8, 2): "-3.0", (11, 5): "oops"}
    june = [list(r) for r in rows["202306"]]
    for (row_i, cell_i), text in poison.items():
        june[row_i][cell_i] = text
    header = "date," + ",".join(WEATHER_CSV_COLUMNS)
    (defect_dir / "202306.csv").write_text(
        "\n".join([header] + [",".join(r) for r in june]) + "\n")

    def append(label: str, extra_rows: list[list[str]]) -> None:
        with open(defect_dir / f"{label}.csv", "a") as handle:
            for r in extra_rows:
                handle.write(",".join(r) + "\n")

    append("202305", [rows["202305"][3], rows["202305"][9]])       # duplicates
    append("202308", [rows["202308"][0]])                          # duplicate
    append("202307", [["2023-13-40"] + _weather_cells(1),          # bad dates
                      ["never"] + _weather_cells(2)])
    append("202311", [["2023-10-02"] + _weather_cells(3)])         # misfiled

    messy, messy_drops, _ = load_weather_dir(defect_dir)
    messy_filled = interpolate_weather(messy)
    expected_drops = WeatherDrops(bad_dates=2, duplicates=3,
                                  misfiled=1, invalid_cells=4)

    # meter stream with the same flavour of injected junk
    meter_path = tmp_path / "meter.csv"
    meter_lines = ["timestamp,watts"]
    t = dt.datetime(2023, 3, 1)
    for k in range(288):
        meter_lines.append(f"{t:%Y-%m-%d %H:%M},{400.0 + k}")
        t += dt.timedelta(minutes=5)
    meter_lines[5] = meter_lines[5].split(",")[0] + ","        # blank watts
    meter_lines[9] = meter_lines[9].split(",")[0] + ","        # blank watts
    meter_lines.append(meter_lines[20])                        # duplicate
    meter_lines.append("2023-03-99 09:00,500.0")               # bad timestamp
    meter_lines.append("2023-03-01 23:59,500.0")               # off-grid minute
    meter_path.write_text("\n".join(meter_lines) + "\n")
    meter = parse_meter_csv(MeterCsvSpec(path=meter_path))

    ok = (
        len(loaded) == 418
        and loaded_drops == WeatherDrops()
        and blanks_before == 18
        and blanks_after == 0
        and len(messy) == 418
        and messy_drops == expected_drops
        and not np.isnan(messy_filled.values).any()
        and len(meter.records) == 286
        and meter.drops.blank_watts == 2
        and meter.drops.duplicates == 1
        and meter.drops.bad_timestamps == 2
    )
    _check(
        "messy 14-month corpus parses with exact, fully-accounted drops",
        ok,
        f"clean days={len(loaded)} blanks {blanks_before}->{blanks_after}; "
        f"defect drops={messy_drops}; meter kept={len(meter.records)} "
        f"drops={meter.drops}",
    )
