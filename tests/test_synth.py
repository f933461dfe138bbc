"""Tests for the synthetic household generator."""
import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

from gridcast.config import from_flat_dict
from gridcast.errors import InvalidConfigError
from gridcast.evaluate import pearson
from gridcast.ingest import (
    MeterCsvSpec,
    build_frame,
    interpolate_weather,
    load_weather_dir,
    merge_solar,
    parse_meter_csv,
)
from gridcast.synth import FIRST_DAY, SynthConfig, generate, write_csvs
from gridcast.types import SLOTS_PER_DAY
from helpers import raises_exactly, slot


def lag_autocorrelation(series, lag: int) -> float:
    """Pearson correlation between the series and its lagged copy."""
    values = np.asarray(series, dtype=np.float64).ravel()
    if lag < 1 or lag >= len(values):
        raise ValueError(f"lag must be in [1, {len(values) - 1}], got {lag}")
    head, tail = values[:-lag], values[lag:]
    head = head - head.mean()
    tail = tail - tail.mean()
    denom = math.sqrt(float(np.sum(head * head)) * float(np.sum(tail * tail)))
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation undefined")
    return float(np.sum(head * tail) / denom)


def test_row_count_and_time_grid():
    frame, _ = generate(SynthConfig(days=4, seed=1))
    assert len(frame.times) == 4 * SLOTS_PER_DAY
    assert frame.consumption.shape == (4 * SLOTS_PER_DAY,)
    assert frame.weather.values.shape == (4, 6)
    assert frame.row_weather().shape == (4 * SLOTS_PER_DAY, 6)
    first, second = frame.times[0], frame.times[1]
    assert FIRST_DAY == dt.date(2023, 3, 1)
    assert first == slot(FIRST_DAY, 0, 0)
    assert second == slot(FIRST_DAY, 0, 5)
    assert (frame.times[SLOTS_PER_DAY] // SLOTS_PER_DAY
            == first // SLOTS_PER_DAY + 1)


def test_weather_constant_within_each_day():
    frame, _ = generate(SynthConfig(days=5, seed=2))
    first = FIRST_DAY.toordinal()
    assert frame.weather.dates.tolist() == list(range(first, first + 5))
    for day in range(5):
        block = frame.row_weather(slice(day * SLOTS_PER_DAY,
                                        (day + 1) * SLOTS_PER_DAY))
        assert np.all(block == frame.weather.values[day])


def test_frame_holds_sixteen_bytes_per_row_and_its_weather_days():
    # A row's weather and decimal hour are derived where they are read.
    frame, _ = generate(SynthConfig(days=60, seed=2))
    held = (frame.times.nbytes + frame.consumption.nbytes
            + frame.weather.dates.nbytes + frame.weather.values.nbytes)
    assert held <= 16 * len(frame) + 56 * len(frame.weather)
    assert len(frame.weather) == 60


def test_generate_traced_peak_per_row():
    # Per-row weather and a copy of each column took 266 B/row, and 124
    # without them; the truth's nine series and the frame's times alone
    # hold 80. A per-row weather array would add 48.
    config = SynthConfig(days=240, seed=4, solar=True)
    tracemalloc.start()
    try:
        frame, truth = generate(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.consumption is truth.total
    assert peak <= 150 * len(frame)


def test_same_seed_is_bit_identical():
    a_frame, a_truth = generate(SynthConfig(days=6, seed=42))
    b_frame, b_truth = generate(SynthConfig(days=6, seed=42))
    assert np.array_equal(a_frame.consumption, b_frame.consumption)
    assert np.array_equal(a_frame.weather.values, b_frame.weather.values)
    assert np.array_equal(a_frame.times, b_frame.times)
    assert np.array_equal(a_truth.spikes, b_truth.spikes)
    assert np.array_equal(a_truth.noise, b_truth.noise)


def test_different_seed_differs():
    a, _ = generate(SynthConfig(days=6, seed=1))
    b, _ = generate(SynthConfig(days=6, seed=2))
    assert not np.array_equal(a.consumption, b.consumption)


def test_solar_toggle_preserves_household_randomness():
    # the solar path draws nothing, so the underlying household is the same
    off_frame, off = generate(SynthConfig(days=8, seed=9, solar=False))
    on_frame, on = generate(SynthConfig(days=8, seed=9, solar=True))
    assert np.array_equal(off.diurnal, on.diurnal)
    assert np.array_equal(off.spikes, on.spikes)
    assert np.array_equal(off.noise, on.noise)
    assert np.array_equal(off_frame.weather.values, on_frame.weather.values)
    assert np.any(on.generation > 0.0)
    assert np.all(off.generation == 0.0)


def test_constant_base_when_everything_off():
    # Taking every load term off the grid-only house leaves a constant
    # 450 W base; the residual differs from it only by summation rounding.
    frame, truth = generate(SynthConfig(days=10, seed=3))
    assert np.all(truth.selfuse == 0.0)
    assert np.all(truth.generation == 0.0)
    assert np.all(frame.consumption > 50.0)  # no row sits on the floor
    residual = frame.consumption - (
        truth.diurnal + truth.seasonal + truth.weather_load
        + truth.spikes + truth.noise)
    np.testing.assert_allclose(residual, 450.0, rtol=0.0, atol=1e-9)


def test_truth_components_reassemble_consumption():
    # A constant 450 W base under the components, floored at 50 W.
    frame, truth = generate(SynthConfig(days=10, seed=3, solar=True))
    rebuilt = np.maximum(
        50.0,
        450.0 + truth.diurnal + truth.seasonal
        + truth.weather_load + truth.spikes + truth.noise + truth.selfuse)
    assert np.array_equal(rebuilt, truth.total)
    assert np.array_equal(frame.consumption, truth.total)
    assert np.array_equal(truth.grid, truth.total - truth.generation)


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _season_phase(days):
    """s(d) of the module docstring for the household's first days."""
    doy = np.array([(FIRST_DAY + dt.timedelta(days=d)).timetuple().tm_yday
                    for d in range(days)], dtype=np.float64)
    return np.cos(2.0 * math.pi * (doy - 15.0) / 365.25)


def _bump_area():
    """Slots under one whole 18-slot-wide bump of height 1."""
    slots = np.arange(SLOTS_PER_DAY)
    return float(np.sum(np.exp(-(slots - 144.0) ** 2 / (2 * 18.0 * 18.0))))


def test_mean_load_matches_analytic_expectation():
    # Each random term's mean against its expectation, within about three
    # standard errors; the day multipliers are an AR(1) with an effective
    # sample of a few days, so the diurnal term is checked given them.
    days = 150
    frame, truth = generate(SynthConfig(days=days, seed=11))
    n = len(frame)
    per_day = truth.diurnal.reshape(days, SLOTS_PER_DAY).sum(axis=1)
    np.testing.assert_allclose(
        per_day, truth.day_multiplier * (1000.0 + 1600.0) * _bump_area(),
        rtol=2e-3)
    # Poisson(2) events a day of U(800, 1800) W over 12 to 24 slots.
    spike_mean = 2.0 * 1300.0 * 18.0 / SLOTS_PER_DAY
    assert abs(truth.spikes.mean() - spike_mean) <= 0.2 * spike_mean
    assert abs(truth.noise.mean()) <= 3.0 * 110.0 / math.sqrt(n)
    assert abs(truth.noise.std() - 110.0) <= 0.01 * 110.0
    assert np.array_equal(truth.seasonal,
                          np.repeat(150.0 * _season_phase(days), SLOTS_PER_DAY))


def test_mean_load_with_weather_coupling():
    days = 150
    frame, truth = generate(SynthConfig(days=days, seed=12))
    max_temp = frame.weather.values[:, 0]
    assert np.array_equal(
        truth.weather_load,
        np.repeat(40.0 * np.maximum(0.0, max_temp - 22.0), SLOTS_PER_DAY))
    # T(d) ~ N(21 + 6.5 s(d), 3.5^2) C, so E[(T - 22)+] per day is analytic.
    mu, sigma = 21.0 + 6.5 * _season_phase(days), 3.5
    assert abs(max_temp.mean() - mu.mean()) <= 3.0 * sigma / math.sqrt(days)
    cooling = 0.0
    for gap in mu - 22.0:
        cooling += gap * _normal_cdf(gap / sigma) + sigma * _normal_pdf(gap / sigma)
    weather_term = 40.0 * cooling / days
    assert abs(truth.weather_load.mean() - weather_term) <= 0.2 * weather_term


def test_day_lag_autocorrelation_above_half_by_default():
    frame, _ = generate(SynthConfig())
    assert lag_autocorrelation(frame.consumption, SLOTS_PER_DAY) > 0.5


def test_adjacent_slot_autocorrelation_is_high():
    frame, _ = generate(SynthConfig())
    assert lag_autocorrelation(frame.consumption, 1) > 0.9


def test_autocorrelation_hand_checks():
    periodic = np.array([0.0, 1.0, 2.0] * 50)
    assert lag_autocorrelation(periodic, 3) == pytest.approx(1.0, abs=1e-9)
    alternating = np.array([1.0, -1.0] * 100)
    assert lag_autocorrelation(alternating, 1) == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        lag_autocorrelation(np.ones(10), 1)
    with pytest.raises(ValueError):
        lag_autocorrelation(periodic, 0)
    with pytest.raises(ValueError):
        lag_autocorrelation(periodic, len(periodic))


def test_spike_plateaus_have_expected_shape():
    _, truth = generate(SynthConfig(days=60, seed=1))
    spikes = truth.spikes
    nonzero = spikes > 0
    assert spikes[nonzero].min() >= 800.0
    # A run of constant height is one event: 12 to 24 slots of 800 to
    # 1800 W. Overlapping events make longer, stepped runs.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], nonzero.view(np.int8), [0]))))
    runs = [spikes[start:end] for start, end in zip(edges[::2], edges[1::2])
            if end < len(spikes)]
    single = [run for run in runs if np.all(run == run[0])]
    assert len(single) > len(runs) // 2
    for run in single:
        assert 12 <= len(run) <= 24 and 800.0 <= run[0] <= 1800.0
    assert all(len(run) >= 12 for run in runs)
    busy_fraction = nonzero.mean()
    target = 2.0 * 18.0 / SLOTS_PER_DAY
    assert 0.4 * target < busy_fraction < 1.8 * target


def test_weather_is_internally_consistent():
    frame, _ = generate(SynthConfig(days=120, seed=7))
    max_temp, rain, t9, rh9, t3, rh3 = frame.weather.values.T
    assert np.all(max_temp >= t3)
    assert np.all(max_temp >= t9)
    assert (t3 - t9).mean() > 0.0
    assert np.all(rain >= 0.0)
    assert np.all((rh9 >= 0.0) & (rh9 <= 100.0))
    assert np.all((rh3 >= 0.0) & (rh3 <= 100.0))


def test_rainy_days_run_cooler():
    frame, _ = generate(SynthConfig(days=400, seed=8))
    daily = frame.weather.values
    assert pearson(daily[:, 1], daily[:, 0]) < 0.0


def test_solar_generation_shape():
    frame, truth = generate(SynthConfig(days=60, seed=4, solar=True))
    gen = truth.generation
    assert np.all(gen >= 0.0)
    assert gen.max() <= 4200.0
    hours = frame.times % SLOTS_PER_DAY // 12
    assert np.all(gen[hours < 5] == 0.0)
    assert np.all(gen[hours >= 20] == 0.0)
    assert gen[(hours >= 11) & (hours < 14)].mean() > 0.3 * 4200.0
    # some export: grid goes negative around midday
    assert truth.grid.min() < 0.0


def test_cloud_tracks_rainfall():
    config = SynthConfig(days=200, seed=5, solar=True)
    frame, truth = generate(config)
    rainfall = frame.weather.values[:, 1]
    wet, dry = rainfall > 2.0, rainfall == 0.0
    assert wet.any() and dry.any()
    assert truth.cloud[wet].mean() > truth.cloud[dry].mean()


def test_solar_strengthens_temperature_correlation():
    frame, truth = generate(SynthConfig(solar=True))
    max_temp = frame.row_weather()[:, 0]
    assert pearson(max_temp, truth.total) > pearson(max_temp, truth.grid)
    hours = frame.times % SLOTS_PER_DAY // 12
    midday = (hours >= 10) & (hours < 15)
    assert (pearson(max_temp[midday], truth.total[midday])
            > pearson(max_temp[midday], truth.grid[midday]))


def test_invalid_configs_are_rejected():
    with pytest.raises(InvalidConfigError):
        SynthConfig(days=1)
    with raises_exactly(InvalidConfigError,
                        "synth.seed must be non-negative, got -1"):
        SynthConfig(seed=-1)
    # Each key takes its default's JSON type: an int, or true or false.
    assert from_flat_dict({"synth.days": 30, "synth.solar": True}).synth == \
        SynthConfig(days=30, solar=True)
    for bad in ({"synth.days": 2.5}, {"synth.days": "30"},
                {"synth.days": True}, {"synth.seed": 1.5},
                {"synth.solar": "no"}, {"synth.solar": 1}):
        key = next(iter(bad))
        with pytest.raises(InvalidConfigError, match=rf"\A{key} must be "):
            from_flat_dict(bad)


def test_amplitude_floor_keeps_diurnal_non_negative():
    # Seed 3 has 17 of 80 days at the 0.1 floor of the day multiplier.
    _, truth = generate(SynthConfig(days=80, seed=3))
    floored = truth.day_multiplier == 0.1
    assert floored.any() and truth.day_multiplier.min() == 0.1
    assert np.all(truth.diurnal >= 0.0)
    per_day = truth.diurnal.reshape(80, SLOTS_PER_DAY).sum(axis=1)
    np.testing.assert_allclose(per_day[floored], 0.1 * 2600.0 * _bump_area(),
                               rtol=2e-3)


def test_csv_round_trip_plain(tmp_path):
    frame, truth = generate(SynthConfig(days=12, seed=5))
    files = write_csvs(frame, truth, tmp_path)
    assert files == (tmp_path / "meter.csv", tmp_path / "weather" / "202303.csv")
    parsed = parse_meter_csv(MeterCsvSpec(path=files[0]))
    assert parsed.drops.total == 0
    assert len(parsed.records) == 12 * SLOTS_PER_DAY
    weather, drops, _ = load_weather_dir(tmp_path / "weather")
    assert drops.total_rows == 0
    rebuilt, dropped_no_weather = build_frame(parsed.records,
                                              interpolate_weather(weather))
    assert dropped_no_weather == 0
    assert np.array_equal(rebuilt.times, frame.times)
    assert np.array_equal(rebuilt.consumption, frame.consumption)
    assert np.array_equal(rebuilt.weather.dates, frame.weather.dates)
    assert np.array_equal(rebuilt.weather.values, frame.weather.values)


def test_csv_round_trip_solar(tmp_path):
    frame, truth = generate(SynthConfig(days=12, seed=5, solar=True))
    files = write_csvs(frame, truth, tmp_path)
    assert files == (tmp_path / "grid.csv", tmp_path / "solar.csv",
                     tmp_path / "weather" / "202303.csv")
    grid = parse_meter_csv(MeterCsvSpec(path=files[0], kind="grid"))
    solar = parse_meter_csv(MeterCsvSpec(path=files[1], kind="solar"))
    assert grid.drops.total == 0 and solar.drops.total == 0
    assert grid.records.watts.min() < 0.0
    merged, grid_only, solar_only = merge_solar(grid.records, solar.records)
    assert grid_only == 0 and solar_only == 0
    weather, _, _ = load_weather_dir(tmp_path / "weather")
    rebuilt, _ = build_frame(merged, interpolate_weather(weather))
    assert np.allclose(rebuilt.consumption, frame.consumption,
                       rtol=0.0, atol=1e-6)


def test_monthly_weather_files_follow_calendar(tmp_path):
    frame, truth = generate(SynthConfig(days=40, seed=2))
    files = write_csvs(frame, truth, tmp_path)
    assert [p.name for p in files[1:]] == ["202303.csv", "202304.csv"]
    march = files[1].read_text(encoding="utf-8").strip().splitlines()
    april = files[2].read_text(encoding="utf-8").strip().splitlines()
    assert len(march) == 32  # header plus all of March
    assert len(april) == 10  # header plus the first nine April days
    assert march[0].split(",")[0] == "date"
    assert march[1].split(",")[0] == "2023-03-01"
