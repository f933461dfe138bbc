"""Core vocabulary: 5-minute time points, meter records, daily weather,
seasons, and the merged analysis frame that the rest of the pipeline
consumes.

All consumption values are watts stored as float64. Timestamps are naive
local time; no timezone or DST arithmetic is applied anywhere.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SLOTS_PER_DAY = 288
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"

# Canonical weather field names, in the column order used everywhere:
# merged CSV files, feature matrices, and correlation tables.
WEATHER_FIELDS = ("max_temp", "rainfall", "temp_9am", "rh_9am", "temp_3pm", "rh_3pm")

# CSV headers carry units; in-memory names above do not.
WEATHER_CSV_COLUMNS = (
    "max_temp_c",
    "rainfall_mm",
    "temp_9am_c",
    "rh_9am_pct",
    "temp_3pm_c",
    "rh_3pm_pct",
)

MERGED_CSV_COLUMNS = ("timestamp", "consumption_w") + WEATHER_CSV_COLUMNS + ("time_decimal",)

_TEMP_RANGE = (-20.0, 55.0)
_RH_RANGE = (0.0, 100.0)


@dataclass(frozen=True, order=True)
class TimePoint:
    """One slot on the 5-minute measurement grid.

    Ordering is lexicographic on (date, hour, minute), which matches
    chronological order exactly.
    """

    date: dt.date
    hour: int
    minute: int

    def __post_init__(self):
        if not isinstance(self.date, dt.date):
            raise ValueError(f"date must be a datetime.date, got {type(self.date).__name__}")
        if not (0 <= self.hour <= 23):
            raise ValueError(f"hour out of range: {self.hour}")
        if not (0 <= self.minute <= 59):
            raise ValueError(f"minute out of range: {self.minute}")
        if self.minute % 5 != 0:
            raise ValueError(f"minute must lie on the 5-minute grid: {self.minute}")

    @classmethod
    def from_datetime(cls, when: dt.datetime) -> "TimePoint":
        return cls(when.date(), when.hour, when.minute)

    @classmethod
    def parse(cls, text: str, fmt: str = TIMESTAMP_FORMAT) -> "TimePoint":
        return cls.from_datetime(dt.datetime.strptime(text, fmt))

    def to_datetime(self) -> dt.datetime:
        return dt.datetime(self.date.year, self.date.month, self.date.day, self.hour, self.minute)

    def isoformat(self) -> str:
        return self.to_datetime().strftime(TIMESTAMP_FORMAT)

    @property
    def slot(self) -> int:
        """Index of this time within its day, 0..287."""
        return self.hour * 12 + self.minute // 5


def time_decimal(t: TimePoint) -> float:
    """Hour-of-day as a decimal in [0, 24), e.g. 19:15 -> 19.25."""
    return t.hour + t.minute / 60.0


class Season(Enum):
    """Southern-hemisphere meteorological seasons keyed by month."""

    DJF = "DJF"  # summer: December, January, February
    MAM = "MAM"  # autumn
    JJA = "JJA"  # winter
    SON = "SON"  # spring


_MONTH_TO_SEASON = {
    12: Season.DJF, 1: Season.DJF, 2: Season.DJF,
    3: Season.MAM, 4: Season.MAM, 5: Season.MAM,
    6: Season.JJA, 7: Season.JJA, 8: Season.JJA,
    9: Season.SON, 10: Season.SON, 11: Season.SON,
}


def season_of(t: TimePoint) -> Season:
    return _MONTH_TO_SEASON[t.date.month]


@dataclass(frozen=True)
class MeterRecord:
    """A single meter reading: watts at one 5-minute time point.

    Negative watts are legitimate only for net-grid streams from solar
    households (export to the grid); parsers enforce that rule because the
    record itself does not know which stream it came from.
    """

    t: TimePoint
    watts: float

    def __post_init__(self):
        if not math.isfinite(self.watts):
            raise ValueError(f"watts must be finite, got {self.watts}")


def weather_value_ok(name: str, value: float) -> bool:
    """Plausibility range for one weather field value (False for NaN)."""
    if name in ("max_temp", "temp_9am", "temp_3pm"):
        return _TEMP_RANGE[0] <= value <= _TEMP_RANGE[1]
    if name in ("rh_9am", "rh_3pm"):
        return _RH_RANGE[0] <= value <= _RH_RANGE[1]
    if name == "rainfall":
        return value >= 0
    raise KeyError(f"unknown weather field: {name}")


@dataclass(frozen=True)
class WeatherDay:
    """Daily weather observations; None marks a missing cell."""

    date: dt.date
    max_temp: float | None = None
    rainfall: float | None = None
    temp_9am: float | None = None
    rh_9am: float | None = None
    temp_3pm: float | None = None
    rh_3pm: float | None = None

    def __post_init__(self):
        for name in WEATHER_FIELDS:
            v = getattr(self, name)
            if v is not None and not weather_value_ok(name, v):
                raise ValueError(f"{name}={v} outside its plausible range")

    def field_values(self) -> tuple[float | None, ...]:
        return tuple(getattr(self, name) for name in WEATHER_FIELDS)

    def missing_fields(self) -> tuple[str, ...]:
        return tuple(name for name in WEATHER_FIELDS if getattr(self, name) is None)

    def is_complete(self) -> bool:
        return not self.missing_fields()


@dataclass(frozen=True)
class MergedFrame:
    """The analysis table: one row per meter reading, with that day's
    weather broadcast onto every row and a decimal-hour column.

    Column order of ``weather`` follows WEATHER_FIELDS. Invariants are
    enforced by validate(): strictly increasing times, finite consumption,
    complete in-range weather, and time_decimal consistent with the clock.
    """

    times: tuple[TimePoint, ...]
    consumption: np.ndarray  # (N,) watts
    weather: np.ndarray      # (N, 6)
    time_decimal: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.times)

    def validate(self) -> None:
        n = len(self.times)
        if self.consumption.shape != (n,):
            raise ValueError(f"consumption shape {self.consumption.shape} != ({n},)")
        if self.weather.shape != (n, len(WEATHER_FIELDS)):
            raise ValueError(f"weather shape {self.weather.shape} != ({n}, {len(WEATHER_FIELDS)})")
        if self.time_decimal.shape != (n,):
            raise ValueError(f"time_decimal shape {self.time_decimal.shape} != ({n},)")
        for prev, cur in zip(self.times, self.times[1:]):
            if not prev < cur:
                raise ValueError(f"times not strictly increasing at {cur.isoformat()}")
        if not np.all(np.isfinite(self.consumption)):
            raise ValueError("consumption contains non-finite values")
        if not np.all(np.isfinite(self.weather)):
            raise ValueError("weather contains missing or non-finite values")
        lo = np.array([_TEMP_RANGE[0], 0.0, _TEMP_RANGE[0], _RH_RANGE[0], _TEMP_RANGE[0], _RH_RANGE[0]])
        hi = np.array([_TEMP_RANGE[1], np.inf, _TEMP_RANGE[1], _RH_RANGE[1], _TEMP_RANGE[1], _RH_RANGE[1]])
        if np.any(self.weather < lo) or np.any(self.weather > hi):
            raise ValueError("weather values outside plausible ranges")
        expected = np.array([time_decimal(t) for t in self.times])
        if not np.array_equal(self.time_decimal, expected):
            raise ValueError("time_decimal column disagrees with timestamps")

    def select(self, rows: slice) -> "MergedFrame":
        return MergedFrame(
            times=self.times[rows],
            consumption=self.consumption[rows],
            weather=self.weather[rows],
            time_decimal=self.time_decimal[rows],
        )

    def to_csv(self, path: str | Path) -> None:
        """Write the frame with full float precision (repr round-trips)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(MERGED_CSV_COLUMNS)
            for i, t in enumerate(self.times):
                row = [t.isoformat(), repr(float(self.consumption[i]))]
                row += [repr(float(v)) for v in self.weather[i]]
                row.append(repr(float(self.time_decimal[i])))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str | Path, validate: bool = True) -> "MergedFrame":
        times: list[TimePoint] = []
        consumption: list[float] = []
        weather: list[list[float]] = []
        decimals: list[float] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if tuple(header) != MERGED_CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected header {header}")
            for row in reader:
                times.append(TimePoint.parse(row[0]))
                consumption.append(float(row[1]))
                weather.append([float(v) for v in row[2:8]])
                decimals.append(float(row[8]))
        frame = cls(
            times=tuple(times),
            consumption=np.asarray(consumption, dtype=np.float64),
            weather=np.asarray(weather, dtype=np.float64),
            time_decimal=np.asarray(decimals, dtype=np.float64),
        )
        if validate:
            frame.validate()
        return frame


def build_merged_frame(
    times: Sequence[TimePoint],
    consumption: Iterable[float],
    weather_rows: Iterable[Sequence[float]],
) -> MergedFrame:
    """Assemble a MergedFrame, computing the time_decimal column."""
    times = tuple(times)
    return MergedFrame(
        times=times,
        consumption=np.asarray(list(consumption), dtype=np.float64),
        weather=np.asarray([list(r) for r in weather_rows], dtype=np.float64),
        time_decimal=np.array([time_decimal(t) for t in times], dtype=np.float64),
    )
