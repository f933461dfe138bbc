"""Deterministic synthetic household generator.

Produces a 5-minute consumption series plus matching daily weather with
known ground-truth components, so end-to-end behaviour can be asserted
against construction instead of unavailable real data. The household
has one fixed shape, a stand-in for the paper's two Melbourne houses:
only its seed, its length in days from FIRST_DAY and its rooftop solar
are chosen.

Consumption is assembled per day d and slot x as

    load = 450 W                                           base
         + m(d) * (1000 W * b(x - 90 - j1(d))              07:30 peak
                   + 1600 W * b(x - 222 - j2(d)))          18:30 peak
         + 150 W * s(d)                                    yearly cycle
         + 40 W/C * max(0, T(d) - 22 C)                    cooling
         + Poisson(2)/day plateaus of U(800, 1800) W,      appliances
           each 12 to 24 slots (60 to 120 minutes) long
         + N(0, 110 W)                                     meter jitter

floored at 50 W, where b(u) = exp(-u^2 / (2 * 18^2)) is a bump 18
slots wide and s(d) = cos(2 pi (day of year - 15) / 365.25) peaks in
mid-January. The bumps repeat every day, which gives the series its
strong lag-288 structure, but their height m(d) = max(0.1, 1 + a(d))
drifts day to day (a is AR(1) with phi 0.93 and marginal std 0.9) and
their centers jitter by j(d) = round(N(0, 5 slots)) clipped to +-12, so
time-of-day features alone cannot fully predict them while recent
history can. Each day's maximum temperature is
T(d) = 21 C + 6.5 C * s(d) + N(0, 3.5 C), and cool days bring rain.

With the solar flag on the household also runs solar-tracking load
(pool pump style) equal to half of generation, generation follows a
deterministic clear-sky arc of 4200 W peak damped by cloud
min(0.85, 0.08 + 0.10/mm * rainfall), the meter records net grid draw
(negative while exporting), and total consumption = grid + generation.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcast.errors import InvalidConfigError
from gridcast.ingest import MONTH_FILE
from gridcast.types import (
    SLOTS_PER_DAY,
    WEATHER_CSV_COLUMNS,
    MergedFrame,
    Weather,
    write_csv,
    write_row_files,
)

FIRST_DAY = dt.date(2023, 3, 1)  # the paper's data starts here


@dataclass(frozen=True)
class SynthConfig:
    """The ``synth.*`` config keys."""

    seed: int = 0
    days: int = 200
    solar: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfigError(
                f"synth.seed must be non-negative, got {self.seed}")
        if self.days < 2:
            raise InvalidConfigError(
                f"synth.days must be at least 2, got {self.days}")


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


def _gaussian_bump(slots: np.ndarray, center: np.ndarray) -> np.ndarray:
    # slots (288,), center (days, 1) -> (days, 288); 18 slots wide
    return np.exp(-((slots[None, :] - center) ** 2) / (2.0 * 18.0 * 18.0))


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
    flag leaves the underlying household realization bit-identical. The
    frame's consumption is ``truth.total`` itself, not a copy.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    weather_rng = np.random.default_rng(seeds[0])
    day_rng = np.random.default_rng(seeds[1])
    spike_rng = np.random.default_rng(seeds[2])

    days = config.days
    n = days * SLOTS_PER_DAY
    dates = [FIRST_DAY + dt.timedelta(days=d) for d in range(days)]
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    # cosine of the year, peaking on day 15 (mid-January)
    season_phase = np.cos(2.0 * np.pi * (doy - 15.0) / 365.25)

    # --- daily weather ---------------------------------------------------
    max_temp = (21.0 + 6.5 * season_phase
                + weather_rng.normal(0.0, 3.5, days))  # C
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
    drift = _ar1(day_rng, days, 0.93, 0.9)
    multiplier = np.maximum(0.1, 1.0 + drift)
    jitter = np.rint(day_rng.normal(0.0, 5.0, (days, 2))).astype(np.int64)
    jitter = np.clip(jitter, -12, 12)  # slots

    slots = np.arange(SLOTS_PER_DAY, dtype=np.float64)
    morning_centers = (90 + jitter[:, 0])[:, None]   # 07:30
    evening_centers = (222 + jitter[:, 1])[:, None]  # 18:30
    diurnal = 1000.0 * _gaussian_bump(slots, morning_centers)  # W
    diurnal += 1600.0 * _gaussian_bump(slots, evening_centers)
    diurnal *= multiplier[:, None]

    seasonal_daily = 150.0 * season_phase  # W
    weather_load_daily = 40.0 * np.maximum(0.0, max_temp - 22.0)  # W/C above 22 C

    # --- appliance spikes -------------------------------------------------
    spikes = np.zeros(n)
    for day in range(days):
        for _ in range(spike_rng.poisson(2.0)):  # events per day
            start = day * SLOTS_PER_DAY + int(spike_rng.integers(0, SLOTS_PER_DAY))
            duration = int(spike_rng.integers(12, 25))  # 60 to 120 minutes
            magnitude = spike_rng.uniform(800.0, 1800.0)  # W
            spikes[start:start + duration] += magnitude

    noise = day_rng.normal(0.0, 110.0, n)  # W

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
        cloud = np.clip(0.08 + 0.10 * rainfall, 0.0, 0.85)  # per mm of rain
        generation = (4200.0 * arc * (1.0 - cloud[:, None])).ravel()  # W peak
        selfuse = 0.5 * generation
    else:
        cloud = np.zeros(days)
        generation = np.zeros(n)
        selfuse = np.zeros(n)

    # Summed in place, term by term in the formula's order, so the sum
    # keeps its bits and no temporary of N rows is made.
    total = diurnal_flat + 450.0  # W base load
    for term in (seasonal_flat, weather_flat, spikes, noise, selfuse):
        total += term
    np.maximum(50.0, total, out=total)  # W floor
    grid = total - generation

    first_day = FIRST_DAY.toordinal()
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


def write_csvs(frame: MergedFrame, truth: SynthTruth, out_dir) -> tuple[Path, ...]:
    """Emit the generated household in the ingest module's file schemas
    and return the paths written, meter files first.

    Grid-only households produce meter.csv; solar households produce
    grid.csv (net draw, negative while exporting) and solar.csv
    (generation).  Weather lands in weather/YYYYMM.csv files.  Values
    are written with full float precision so parsing them back
    reproduces the frame exactly.  A directory that held another
    household keeps none of its files: the meter files and the weather
    months this household does not write are removed first.
    """
    out_dir = Path(out_dir)
    solar_household = bool(np.any(truth.generation != 0.0))
    if solar_household:
        streams = {out_dir / "grid.csv": truth.grid,
                   out_dir / "solar.csv": truth.generation}
    else:
        streams = {out_dir / "meter.csv": truth.total}
    weather_dir = out_dir / "weather"
    by_month: dict[Path, list[list]] = {}
    for ordinal, row in zip(frame.weather.dates.tolist(),
                            frame.weather.values.tolist()):
        date = dt.date.fromordinal(ordinal)
        by_month.setdefault(weather_dir / f"{date:%Y%m}.csv", []).append(
            [date.isoformat(), *row])

    existing = [out_dir / name for name in ("meter.csv", "grid.csv", "solar.csv")]
    if weather_dir.is_dir():
        existing += [p for p in weather_dir.iterdir() if MONTH_FILE.match(p.name)]
    for path in existing:
        if path not in streams and path not in by_month:
            path.unlink(missing_ok=True)

    write_row_files(streams, "timestamp,watts", frame.times)
    for path, rows in by_month.items():
        write_csv(path, ("date",) + WEATHER_CSV_COLUMNS, rows)
    return tuple(streams) + tuple(by_month)
