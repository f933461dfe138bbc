"""Tests for the synthetic household generator."""
import dataclasses
import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

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
from gridcast.synth import SynthConfig, generate, write_csvs
from gridcast.types import SLOTS_PER_DAY, slot_index


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


def quiet_config(**overrides):
    """Config with every random component switched off."""
    base = dict(
        days=3, morning_peak_w=0.0, evening_peak_w=0.0, peak_drift_std=0.0,
        center_jitter_std_slots=0.0, spike_rate_per_day=0.0,
        seasonal_amplitude_w=0.0, weather_gain_w_per_c=0.0, noise_std_w=0.0,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_row_count_and_time_grid():
    frame, _ = generate(SynthConfig(days=4, seed=1))
    assert len(frame.times) == 4 * SLOTS_PER_DAY
    assert frame.consumption.shape == (4 * SLOTS_PER_DAY,)
    assert frame.weather.values.shape == (4, 6)
    assert frame.row_weather().shape == (4 * SLOTS_PER_DAY, 6)
    first, second = frame.times[0], frame.times[1]
    assert first == slot_index(SynthConfig().start_date, 0, 0)
    assert second == slot_index(SynthConfig().start_date, 0, 5)
    assert (frame.times[SLOTS_PER_DAY] // SLOTS_PER_DAY
            == first // SLOTS_PER_DAY + 1)


def test_weather_constant_within_each_day():
    frame, _ = generate(SynthConfig(days=5, seed=2))
    first = SynthConfig().start_date.toordinal()
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


def test_constant_base_when_everything_off():
    frame, truth = generate(quiet_config(base_load_w=777.0))
    assert np.all(frame.consumption == 777.0)
    assert np.all(truth.spikes == 0.0)
    assert np.all(truth.diurnal == 0.0)


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


def test_truth_components_reassemble_consumption():
    config = SynthConfig(days=10, seed=3, solar=True)
    frame, truth = generate(config)
    rebuilt = np.maximum(
        config.floor_w,
        config.base_load_w + truth.diurnal + truth.seasonal
        + truth.weather_load + truth.spikes + truth.noise + truth.selfuse)
    assert np.array_equal(rebuilt, truth.total)
    assert np.array_equal(frame.consumption, truth.total)
    assert np.array_equal(truth.grid, truth.total - truth.generation)


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _expected_multiplier(std):
    # E[max(0.1, 1 + a)] for a ~ N(0, std^2)
    if std == 0.0:
        return 1.0
    z = 0.9 / std
    return 1.0 + std * _normal_pdf(z) - 0.9 * _normal_cdf(-z)


def test_mean_load_matches_analytic_expectation():
    config = SynthConfig(days=150, seed=11, seasonal_amplitude_w=0.0,
                         weather_gain_w_per_c=0.0)
    frame, _ = generate(config)
    slots = np.arange(SLOTS_PER_DAY)
    width = config.peak_width_slots
    bump_sum = float(np.sum(np.exp(-(slots - 144.0) ** 2 / (2 * width * width))))
    peak_term = ((config.morning_peak_w + config.evening_peak_w)
                 * _expected_multiplier(config.peak_drift_std)
                 * bump_sum / SLOTS_PER_DAY)
    mlo, mhi = config.spike_magnitude_w
    dlo, dhi = config.spike_duration_slots
    spike_term = (config.spike_rate_per_day * (mlo + mhi) / 2.0
                  * (dlo + dhi) / 2.0 / SLOTS_PER_DAY)
    expected = config.base_load_w + peak_term + spike_term
    observed = float(frame.consumption.mean())
    assert abs(observed - expected) <= 0.10 * expected


def test_mean_load_with_weather_coupling():
    config = SynthConfig(days=150, seed=12, seasonal_amplitude_w=0.0)
    frame, _ = generate(config)
    slots = np.arange(SLOTS_PER_DAY)
    width = config.peak_width_slots
    bump_sum = float(np.sum(np.exp(-(slots - 144.0) ** 2 / (2 * width * width))))
    peak_term = ((config.morning_peak_w + config.evening_peak_w)
                 * _expected_multiplier(config.peak_drift_std)
                 * bump_sum / SLOTS_PER_DAY)
    mlo, mhi = config.spike_magnitude_w
    dlo, dhi = config.spike_duration_slots
    spike_term = (config.spike_rate_per_day * (mlo + mhi) / 2.0
                  * (dlo + dhi) / 2.0 / SLOTS_PER_DAY)
    # E[(T - comfort)+] for T ~ N(mu_d, sigma^2), averaged over days
    sigma = config.temp_noise_std_c
    cooling = 0.0
    for day in range(config.days):
        date = config.start_date + dt.timedelta(days=day)
        doy = date.timetuple().tm_yday
        mu = (config.temp_mean_c + config.temp_seasonal_amplitude_c
              * math.cos(2.0 * math.pi * (doy - 15.0) / 365.25))
        gap = mu - config.comfort_temp_c
        cooling += gap * _normal_cdf(gap / sigma) + sigma * _normal_pdf(gap / sigma)
    weather_term = config.weather_gain_w_per_c * cooling / config.days
    expected = config.base_load_w + peak_term + spike_term + weather_term
    observed = float(frame.consumption.mean())
    assert abs(observed - expected) <= 0.10 * expected


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
    config = quiet_config(days=60, spike_rate_per_day=0.6, base_load_w=100.0)
    frame, truth = generate(config)
    assert np.allclose(frame.consumption, 100.0 + truth.spikes,
                       rtol=0.0, atol=1e-9)
    nonzero = truth.spikes > 0
    assert nonzero.any()
    # contiguous runs are at least one full event long, except overlaps
    # (longer) and an event cut off by the end of the series (shorter)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], nonzero.view(np.int8), [0]))))
    starts, ends = edges[::2], edges[1::2]
    dlo, dhi = config.spike_duration_slots
    full_runs = ends < len(truth.spikes)
    assert np.all((ends - starts)[full_runs] >= dlo)
    mlo, mhi = config.spike_magnitude_w
    assert truth.spikes[nonzero].min() >= mlo - 1e-9
    assert truth.spikes[nonzero].max() <= 2.0 * mhi + 1e-9
    busy_fraction = nonzero.mean()
    target = config.spike_rate_per_day * (dlo + dhi) / 2.0 / SLOTS_PER_DAY
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
    config = SynthConfig(days=60, seed=4, solar=True)
    frame, truth = generate(config)
    gen = truth.generation
    assert np.all(gen >= 0.0)
    assert gen.max() <= config.solar_capacity_w
    hours = frame.times % SLOTS_PER_DAY // 12
    assert np.all(gen[hours < 5] == 0.0)
    assert np.all(gen[hours >= 20] == 0.0)
    assert gen[(hours >= 11) & (hours < 14)].mean() > 0.3 * config.solar_capacity_w
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
    with pytest.raises(InvalidConfigError):
        SynthConfig(evening_peak_w=-5.0)
    with pytest.raises(InvalidConfigError):
        SynthConfig(spike_magnitude_w=(500.0, 100.0))
    with pytest.raises(InvalidConfigError):
        SynthConfig(spike_duration_slots=(0, 5))
    with pytest.raises(InvalidConfigError):
        SynthConfig(peak_drift_phi=1.0)
    with pytest.raises(InvalidConfigError):
        SynthConfig(solar_selfuse_fraction=1.5)
    with pytest.raises(InvalidConfigError):
        SynthConfig(morning_center_slot=288)
    with pytest.raises(InvalidConfigError):
        SynthConfig(noise_std_w=-1.0)


def test_amplitude_floor_keeps_diurnal_non_negative():
    _, truth = generate(SynthConfig(days=80, seed=6, peak_drift_std=3.0))
    assert np.all(truth.diurnal >= 0.0)
    assert truth.day_multiplier.min() >= 0.1


def test_csv_round_trip_plain(tmp_path):
    frame, truth = generate(SynthConfig(days=12, seed=5))
    files = write_csvs(frame, truth, tmp_path)
    assert [p.name for p in files.meter] == ["meter.csv"]
    parsed = parse_meter_csv(MeterCsvSpec(path=files.meter[0]))
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
    assert [p.name for p in files.meter] == ["grid.csv", "solar.csv"]
    grid = parse_meter_csv(MeterCsvSpec(path=files.meter[0], kind="grid"))
    solar = parse_meter_csv(MeterCsvSpec(path=files.meter[1], kind="solar"))
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
    assert [p.name for p in files.weather] == ["202303.csv", "202304.csv"]
    march = files.weather[0].read_text(encoding="utf-8").strip().splitlines()
    april = files.weather[1].read_text(encoding="utf-8").strip().splitlines()
    assert len(march) == 32  # header plus all of March
    assert len(april) == 10  # header plus the first nine April days
    assert march[0].split(",")[0] == "date"
    assert march[1].split(",")[0] == "2023-03-01"
