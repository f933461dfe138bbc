"""Deterministic synthetic household generator.

Produces a 5-minute consumption series plus matching daily weather with
known ground-truth components, so end-to-end behaviour can be asserted
against construction instead of unavailable real data.

Consumption is assembled per day d and slot x as

    load = base
         + mult(d) * (morning bump(x) + evening bump(x))   diurnal
         + seasonal cosine(d)                              yearly cycle
         + gain * max(0, max_temp(d) - comfort)            cooling
         + appliance spike plateaus                        random events
         + Gaussian noise                                  meter jitter

floored at a small positive wattage.  The bumps repeat every day, which
gives the series its strong lag-288 structure, but their height drifts
day to day (AR(1)) and their centers jitter, so time-of-day features
alone cannot fully predict them while recent history can.

With the solar flag on the household also runs solar-tracking load
(pool pump style) equal to a fraction of generation, generation follows
a deterministic clear-sky arc damped by rainfall-derived cloud, the
meter records net grid draw (negative while exporting), and total
consumption = grid + generation.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridcast.errors import InvalidConfigError
from gridcast.types import (
    ROW_CHUNK,
    SLOTS_PER_DAY,
    WEATHER_CSV_COLUMNS,
    MergedFrame,
    Weather,
    format_timestamps,
)

_DAYS_PER_YEAR = 365.25
_SUMMER_PEAK_DOY = 15.0  # mid-January


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; defaults describe one plausible household."""

    seed: int = 0
    days: int = 200
    start_date: dt.date = dt.date(2023, 3, 1)
    base_load_w: float = 450.0
    # diurnal double peak
    morning_peak_w: float = 1000.0
    evening_peak_w: float = 1600.0
    morning_center_slot: int = 90   # 07:30
    evening_center_slot: int = 222  # 18:30
    peak_width_slots: float = 18.0
    # day-to-day persistence of the diurnal cycle
    peak_drift_phi: float = 0.93
    peak_drift_std: float = 0.9
    center_jitter_std_slots: float = 5.0
    # appliance spike plateaus
    spike_rate_per_day: float = 2.0
    spike_magnitude_w: tuple[float, float] = (800.0, 1800.0)
    spike_duration_slots: tuple[int, int] = (12, 24)  # 60 to 120 minutes
    # slow drivers
    seasonal_amplitude_w: float = 150.0
    weather_gain_w_per_c: float = 40.0
    comfort_temp_c: float = 22.0
    noise_std_w: float = 110.0
    floor_w: float = 50.0
    # solar household
    solar: bool = False
    solar_capacity_w: float = 4200.0
    solar_cloud_gain_per_mm: float = 0.10
    solar_selfuse_fraction: float = 0.5
    # weather shape
    temp_mean_c: float = 21.0
    temp_seasonal_amplitude_c: float = 6.5
    temp_noise_std_c: float = 3.5

    def __post_init__(self):
        if self.days < 2:
            raise InvalidConfigError(f"days must be at least 2, got {self.days}")
        non_negative = (
            "base_load_w", "morning_peak_w", "evening_peak_w",
            "peak_width_slots", "peak_drift_std", "center_jitter_std_slots",
            "spike_rate_per_day", "seasonal_amplitude_w",
            "weather_gain_w_per_c", "noise_std_w", "floor_w",
            "solar_capacity_w", "solar_cloud_gain_per_mm",
            "temp_seasonal_amplitude_c", "temp_noise_std_c",
        )
        for name in non_negative:
            if getattr(self, name) < 0:
                raise InvalidConfigError(f"{name} must be non-negative")
        if not (0.0 <= self.peak_drift_phi < 1.0):
            raise InvalidConfigError("peak_drift_phi must be in [0, 1)")
        if not (0.0 <= self.solar_selfuse_fraction <= 1.0):
            raise InvalidConfigError("solar_selfuse_fraction must be in [0, 1]")
        lo, hi = self.spike_magnitude_w
        if lo < 0 or hi < lo:
            raise InvalidConfigError("spike magnitude range must be 0 <= lo <= hi")
        dlo, dhi = self.spike_duration_slots
        if dlo < 1 or dhi < dlo:
            raise InvalidConfigError("spike duration range must be 1 <= lo <= hi")
        for slot_name in ("morning_center_slot", "evening_center_slot"):
            slot = getattr(self, slot_name)
            if not (0 <= slot < SLOTS_PER_DAY):
                raise InvalidConfigError(f"{slot_name} must be in [0, 288)")


@dataclass(frozen=True)
class SynthTruth:
    """Per-row ground-truth components (all length 288*days).

    total = the household's true consumption; grid = what the meter
    records (equal to total without solar, total - generation with it).
    """

    diurnal: np.ndarray
    seasonal: np.ndarray
    weather_load: np.ndarray
    spikes: np.ndarray
    noise: np.ndarray
    selfuse: np.ndarray
    generation: np.ndarray
    grid: np.ndarray
    total: np.ndarray
    day_multiplier: np.ndarray  # (days,)
    cloud: np.ndarray           # (days,)


def _gaussian_bump(slots: np.ndarray, center: np.ndarray, width: float
                   ) -> np.ndarray:
    # slots (288,), center (days, 1) -> (days, 288)
    return np.exp(-((slots[None, :] - center) ** 2) / (2.0 * width * width))


def _ar1(rng: np.random.Generator, n: int, phi: float, std: float
         ) -> np.ndarray:
    """Stationary AR(1) draws with the given marginal std."""
    out = np.empty(n)
    out[0] = rng.normal(0.0, std)
    innovation_std = std * math.sqrt(max(0.0, 1.0 - phi * phi))
    for i in range(1, n):
        out[i] = phi * out[i - 1] + rng.normal(0.0, innovation_std)
    return out


def generate(config: SynthConfig) -> tuple[MergedFrame, SynthTruth]:
    """Build the synthetic household deterministically from config.seed.

    Weather, day-level load structure, and spikes come from independent
    child seeds, and the solar path draws nothing, so toggling the solar
    flag (or changing its parameters) leaves the underlying household
    realization bit-identical. The frame's consumption is ``truth.total``
    itself, not a copy.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    weather_rng = np.random.default_rng(seeds[0])
    day_rng = np.random.default_rng(seeds[1])
    spike_rng = np.random.default_rng(seeds[2])

    days = config.days
    n = days * SLOTS_PER_DAY
    dates = [config.start_date + dt.timedelta(days=d) for d in range(days)]
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    season_phase = np.cos(2.0 * np.pi * (doy - _SUMMER_PEAK_DOY) / _DAYS_PER_YEAR)

    # --- daily weather ---------------------------------------------------
    max_temp = (config.temp_mean_c
                + config.temp_seasonal_amplitude_c * season_phase
                + weather_rng.normal(0.0, config.temp_noise_std_c, days))
    max_temp = np.clip(max_temp, -19.0, 54.0)
    # cool changes bring rain: rain probability falls with temperature
    rain_prob = np.clip(0.25 + 0.03 * (19.0 - max_temp), 0.05, 0.65)
    rainy = weather_rng.random(days) < rain_prob
    rainfall = np.where(rainy, weather_rng.exponential(4.0, days), 0.0)
    temp_9am = max_temp - np.clip(weather_rng.normal(6.0, 1.2, days), 1.0, None)
    temp_3pm = max_temp - np.clip(weather_rng.normal(1.5, 0.8, days), 0.2, None)
    temp_9am = np.clip(temp_9am, -19.5, 54.5)
    temp_3pm = np.clip(temp_3pm, -19.5, 54.5)
    rh_9am = np.clip(weather_rng.normal(68.0, 8.0, days) + 6.0 * rainy, 20.0, 100.0)
    rh_3pm = np.clip(rh_9am - np.clip(weather_rng.normal(18.0, 6.0, days), 0.0, None)
                     + 4.0 * rainy, 5.0, 100.0)
    weather_daily = np.column_stack(
        [max_temp, rainfall, temp_9am, rh_9am, temp_3pm, rh_3pm])

    # --- day-level load structure ----------------------------------------
    drift = _ar1(day_rng, days, config.peak_drift_phi, config.peak_drift_std)
    multiplier = np.maximum(0.1, 1.0 + drift)
    jitter_shape = (days, 2)
    jitter = np.rint(day_rng.normal(0.0, config.center_jitter_std_slots,
                                    jitter_shape)).astype(np.int64)
    jitter = np.clip(jitter, -12, 12)

    slots = np.arange(SLOTS_PER_DAY, dtype=np.float64)
    morning_centers = (config.morning_center_slot + jitter[:, 0])[:, None]
    evening_centers = (config.evening_center_slot + jitter[:, 1])[:, None]
    diurnal = config.morning_peak_w * _gaussian_bump(
        slots, morning_centers, config.peak_width_slots)
    diurnal += config.evening_peak_w * _gaussian_bump(
        slots, evening_centers, config.peak_width_slots)
    diurnal *= multiplier[:, None]

    seasonal_daily = config.seasonal_amplitude_w * season_phase
    weather_load_daily = (config.weather_gain_w_per_c
                          * np.maximum(0.0, max_temp - config.comfort_temp_c))

    # --- appliance spikes -------------------------------------------------
    spikes = np.zeros(n)
    dlo, dhi = config.spike_duration_slots
    mlo, mhi = config.spike_magnitude_w
    for day in range(days):
        for _ in range(spike_rng.poisson(config.spike_rate_per_day)):
            start = day * SLOTS_PER_DAY + int(spike_rng.integers(0, SLOTS_PER_DAY))
            duration = int(spike_rng.integers(dlo, dhi + 1))
            magnitude = spike_rng.uniform(mlo, mhi)
            spikes[start:start + duration] += magnitude

    noise = day_rng.normal(0.0, config.noise_std_w, n)

    # --- assembly ----------------------------------------------------------
    diurnal_flat = diurnal.ravel()
    seasonal_flat = np.repeat(seasonal_daily, SLOTS_PER_DAY)
    weather_flat = np.repeat(weather_load_daily, SLOTS_PER_DAY)

    if config.solar:
        half_width_h = 6.0 + 1.3 * season_phase  # longer days in summer
        time_dec = slots / 12.0
        u = ((time_dec[None, :] - (12.5 - half_width_h[:, None]))
             / (2.0 * half_width_h[:, None]))
        arc = np.where((u > 0.0) & (u < 1.0),
                       np.sin(np.pi * np.clip(u, 0.0, 1.0)) ** 1.5, 0.0)
        cloud = np.clip(0.08 + config.solar_cloud_gain_per_mm * rainfall,
                        0.0, 0.85)
        generation = (config.solar_capacity_w * arc
                      * (1.0 - cloud[:, None])).ravel()
        selfuse = config.solar_selfuse_fraction * generation
    else:
        cloud = np.zeros(days)
        generation = np.zeros(n)
        selfuse = np.zeros(n)

    # Summed in place, term by term in the formula's order, so the sum
    # keeps its bits and no temporary of N rows is made.
    total = diurnal_flat + config.base_load_w
    for term in (seasonal_flat, weather_flat, spikes, noise, selfuse):
        total += term
    np.maximum(config.floor_w, total, out=total)
    grid = total - generation

    first_day = config.start_date.toordinal()
    frame = MergedFrame(first_day * SLOTS_PER_DAY + np.arange(n), total,
                        Weather(first_day + np.arange(days), weather_daily))
    frame.validate()
    truth = SynthTruth(
        diurnal=diurnal_flat, seasonal=seasonal_flat,
        weather_load=weather_flat, spikes=spikes, noise=noise,
        selfuse=selfuse, generation=generation, grid=grid, total=total,
        day_multiplier=multiplier, cloud=cloud,
    )
    return frame, truth


@dataclass(frozen=True)
class WrittenFiles:
    """Paths emitted by write_csvs."""

    meter: tuple[Path, ...]
    weather: tuple[Path, ...]


def write_csvs(frame: MergedFrame, truth: SynthTruth, out_dir) -> WrittenFiles:
    """Emit the generated household in the ingest module's file schemas.

    Grid-only households produce meter.csv; solar households produce
    grid.csv (net draw, negative while exporting) and solar.csv
    (generation).  Weather lands in weather/YYYYMM.csv files.  Values
    are written with full float precision so parsing them back
    reproduces the frame exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weather_dir = out_dir / "weather"
    weather_dir.mkdir(exist_ok=True)

    solar_household = bool(np.any(truth.generation != 0.0))
    if solar_household:
        streams = {"grid.csv": truth.grid, "solar.csv": truth.generation}
    else:
        streams = {"meter.csv": truth.total}
    meter_paths = [out_dir / name for name in streams]
    with contextlib.ExitStack() as files:
        handles = [files.enter_context(open(path, "w", encoding="utf-8",
                                            newline=""))
                   for path in meter_paths]
        for handle in handles:
            handle.write("timestamp,watts\n")
        for start in range(0, len(frame.times), ROW_CHUNK):
            rows = slice(start, start + ROW_CHUNK)
            stamps = format_timestamps(frame.times[rows])
            for handle, series in zip(handles, streams.values()):
                handle.writelines(map("{},{!r}\n".format, stamps,
                                      series[rows].tolist()))

    header = "date," + ",".join(WEATHER_CSV_COLUMNS)
    by_month: dict[str, list[str]] = {}
    for ordinal, row in zip(frame.weather.dates.tolist(),
                            frame.weather.values.tolist()):
        date = dt.date.fromordinal(ordinal)
        line = date.isoformat() + "," + ",".join(map(repr, row))
        by_month.setdefault(date.strftime("%Y%m"), []).append(line)
    weather_paths = []
    for label in sorted(by_month):
        path = weather_dir / f"{label}.csv"
        path.write_text(header + "\n" + "\n".join(by_month[label]) + "\n",
                        encoding="utf-8")
        weather_paths.append(path)
    return WrittenFiles(meter=tuple(meter_paths), weather=tuple(weather_paths))
