"""Core vocabulary: the 5-minute time axis, meter streams, daily weather,
seasons, and the merged analysis frame that the rest of the pipeline
consumes.

Time is columnar. One slot on the 5-minute grid is one integer *slot
index*, ``date.toordinal() * SLOTS_PER_DAY + hour * 12 + minute // 5``,
and a series of times is an int64 array of them. Chronological order is
numeric order, the slot within the day is ``times % SLOTS_PER_DAY`` and
the date ordinal is ``times // SLOTS_PER_DAY``. The helpers below parse
timestamp text into slot indices and derive decimal hours, seasons and
timestamp text from them with vectorised operations.

All consumption values are watts stored as float64. Timestamps are naive
local time; no timezone or DST arithmetic is applied anywhere.
"""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

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

# Plausible range of each weather field, in WEATHER_FIELDS order:
# temperatures in [-20, 55] C, rainfall at least 0 mm, humidity in [0, 100] %.
WEATHER_LOW = np.array([-20.0, 0.0, -20.0, 0.0, -20.0, 0.0])
WEATHER_HIGH = np.array([55.0, np.inf, 55.0, 100.0, 55.0, 100.0])

# parse_timestamps marks an unreadable or off-grid timestamp with this
# value; every real slot index is at least SLOTS_PER_DAY (0001-01-01).
BAD_TIME = -1

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_FIRST_SLOT = dt.date.min.toordinal() * SLOTS_PER_DAY
_LAST_SLOT = (dt.date.max.toordinal() + 1) * SLOTS_PER_DAY - 1
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.concatenate([[0], np.cumsum(_DAYS_IN_MONTH)[:-1]])
# Character positions of "YYYY-MM-DD HH:MM".
_DIGIT_COLUMNS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15]
_SEPARATORS = {4: "-", 7: "-", 10: " ", 13: ":"}


def slot_index(date: dt.date, hour: int = 0, minute: int = 0) -> int:
    """The slot index of one time on the 5-minute grid.

    Raises ValueError for an hour or minute out of range and for a
    minute off the 5-minute grid.
    """
    if not isinstance(date, dt.date):
        raise ValueError(f"date must be a datetime.date, got {type(date).__name__}")
    if not (0 <= hour <= 23):
        raise ValueError(f"hour out of range: {hour}")
    if not (0 <= minute <= 59):
        raise ValueError(f"minute out of range: {minute}")
    if minute % 5 != 0:
        raise ValueError(f"minute must lie on the 5-minute grid: {minute}")
    return date.toordinal() * SLOTS_PER_DAY + hour * 12 + minute // 5


def _parse_fixed_width(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse 16-character texts shaped like "2023-03-01 19:15".

    Returns (slot indices, shaped): a text that is not ASCII digits in
    that exact shape is not decided here (shaped False). A shaped text
    gets a slot index exactly when strptime with TIMESTAMP_FORMAT reads
    it and its minute lies on the grid, else BAD_TIME.
    """
    chars = np.array(texts, dtype="U16").view(np.uint32).reshape(-1, 16)
    # Unsigned: a character below "0" wraps past 9 as well.
    digits = chars[:, _DIGIT_COLUMNS] - np.uint32(ord("0"))
    shaped = np.all(digits <= 9, axis=1)
    for column, sep in _SEPARATORS.items():
        shaped &= chars[:, column] == ord(sep)
    digits[~shaped] = 0
    pairs = (digits[:, 0::2] * 10 + digits[:, 1::2]).astype(np.int64)
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute = pairs[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_ok = (month >= 1) & (month <= 12)
    month = np.where(month_ok, month, 1)
    days_in_month = _DAYS_IN_MONTH[month] + (leap & (month == 2))
    ok = (shaped & month_ok & (year >= 1) & (day >= 1) & (day <= days_in_month)
          & (hour <= 23) & (minute <= 59) & (minute % 5 == 0))
    prior = year - 1
    ordinal = (prior * 365 + prior // 4 - prior // 100 + prior // 400
               + _DAYS_BEFORE_MONTH[month] + (leap & (month > 2)) + day)
    slots = ordinal * SLOTS_PER_DAY + hour * 12 + minute // 5
    return np.where(ok, slots, BAD_TIME), shaped


def parse_timestamps(texts: Sequence[str], fmt: str = TIMESTAMP_FORMAT) -> np.ndarray:
    """Slot indices of timestamp texts, BAD_TIME where a text is unreadable.

    A text is read as ``datetime.strptime(text, fmt)`` reads it, seconds
    ignored; a minute off the 5-minute grid counts as unreadable. With
    the default format, texts in its fixed-width shape are parsed as one
    array; any other text, and every text under another format, goes
    through strptime itself.
    """
    texts = list(texts)
    times = np.full(len(texts), BAD_TIME, dtype=np.int64)
    rest = range(len(texts))
    if fmt == TIMESTAMP_FORMAT and texts:
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        fixed = np.flatnonzero(lengths == 16)
        parsed, shaped = _parse_fixed_width([texts[i] for i in fixed])
        times[fixed] = parsed
        decided = np.zeros(len(texts), dtype=bool)
        decided[fixed[shaped]] = True
        rest = np.flatnonzero(~decided).tolist()
    for i in rest:
        try:
            when = dt.datetime.strptime(texts[i], fmt)
        except ValueError:
            continue
        if when.minute % 5 == 0:
            times[i] = (when.toordinal() * SLOTS_PER_DAY
                        + when.hour * 12 + when.minute // 5)
    return times


def _calendar(times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(year, month, day) arrays of slot indices."""
    days = (times // SLOTS_PER_DAY - _EPOCH_ORDINAL).astype("datetime64[D]")
    months = days.astype("datetime64[M]")
    year = months.astype("datetime64[Y]").astype(np.int64) + 1970
    month = months.astype(np.int64) % 12 + 1
    day = (days - months).astype(np.int64) + 1
    return year, month, day


def format_timestamps(times) -> list[str]:
    """Texts of slot indices in TIMESTAMP_FORMAT, e.g. "2023-03-01 19:15".

    The year is always four digits, so every text parses back.
    """
    times = np.asarray(times, dtype=np.int64)
    year, month, day = _calendar(times)
    slot = times % SLOTS_PER_DAY
    fields = (year, month, day, slot // 12, slot % 12 * 5)
    chars = np.empty((times.size, 16), dtype=np.uint32)
    column = 0
    for value, width in zip(fields, (4, 2, 2, 2, 2)):
        for place in range(width):
            chars[:, column + place] = value // 10 ** (width - 1 - place) % 10 + ord("0")
        column += width + 1
    for column, sep in _SEPARATORS.items():
        chars[:, column] = ord(sep)
    return chars.view("U16").ravel().tolist()


def time_decimal(times) -> np.ndarray:
    """Hour-of-day as a decimal in [0, 24), e.g. 19:15 -> 19.25."""
    slot = np.asarray(times, dtype=np.int64) % SLOTS_PER_DAY
    return slot // 12 + (slot % 12 * 5) / 60.0


class Season(Enum):
    """Southern-hemisphere meteorological seasons keyed by month."""

    DJF = "DJF"  # summer: December, January, February
    MAM = "MAM"  # autumn
    JJA = "JJA"  # winter
    SON = "SON"  # spring


# season_codes() values index this tuple.
SEASONS = tuple(Season)

_SEASON_CODE_BY_MONTH = np.array([
    -1,
    0, 0,        # January, February: DJF
    1, 1, 1,     # MAM
    2, 2, 2,     # JJA
    3, 3, 3,     # SON
    0,           # December: DJF
])


def season_codes(times) -> np.ndarray:
    """Each slot's season, as an index into SEASONS."""
    _, month, _ = _calendar(np.asarray(times, dtype=np.int64))
    return _SEASON_CODE_BY_MONTH[month]


@dataclass(frozen=True)
class MeterRecords:
    """One meter stream as columns: row i is ``watts[i]`` at slot index
    ``times[i]``.

    Watts must be finite. Negative watts are legitimate only for net-grid
    streams from solar households (export to the grid); parsers enforce
    that rule because the records do not know which stream they came from.
    """

    times: np.ndarray  # (N,) int64 slot indices
    watts: np.ndarray  # (N,) float64

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.int64)
        watts = np.asarray(self.watts, dtype=np.float64)
        if times.ndim != 1 or times.shape != watts.shape:
            raise ValueError(
                f"times shape {times.shape} and watts shape {watts.shape} "
                f"must be equal and one-dimensional")
        if not np.all(np.isfinite(watts)):
            raise ValueError("watts must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "watts", watts)

    def __len__(self) -> int:
        return len(self.times)


def weather_plausible(values) -> np.ndarray:
    """True where a weather value is finite and inside its field's range.

    The last axis of ``values`` follows WEATHER_FIELDS; NaN is False.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.isfinite(values) & (values >= WEATHER_LOW) & (values <= WEATHER_HIGH)


@dataclass(frozen=True)
class Weather:
    """Daily weather as columns: row i is the day with date ordinal
    ``dates[i]``, its six fields in WEATHER_FIELDS order.

    Dates strictly increase. NaN marks a missing cell; every other cell
    is plausible (see weather_plausible).
    """

    dates: np.ndarray   # (D,) int64 date ordinals
    values: np.ndarray  # (D, 6) float64

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if dates.ndim != 1 or values.shape != (len(dates), len(WEATHER_FIELDS)):
            raise ValueError(
                f"dates shape {dates.shape} and values shape {values.shape} "
                f"must be (D,) and (D, {len(WEATHER_FIELDS)})")
        unordered = np.flatnonzero(np.diff(dates) <= 0)
        if unordered.size:
            i = int(unordered[0])
            raise ValueError(
                f"weather dates must strictly increase; "
                f"{dt.date.fromordinal(int(dates[i + 1]))} follows "
                f"{dt.date.fromordinal(int(dates[i]))}")
        if not np.all(weather_plausible(values) | np.isnan(values)):
            raise ValueError("weather values outside plausible ranges")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class MergedFrame:
    """The analysis table: one row per meter reading, with that day's
    weather broadcast onto every row and a decimal-hour column.

    ``times`` holds int64 slot indices. Column order of ``weather``
    follows WEATHER_FIELDS. Invariants are enforced by validate():
    strictly increasing times, finite consumption, complete in-range
    weather, and time_decimal consistent with the clock.
    """

    times: np.ndarray        # (N,) int64 slot indices
    consumption: np.ndarray  # (N,) watts
    weather: np.ndarray      # (N, 6)
    time_decimal: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.times)

    def validate(self) -> None:
        n = len(self.times)
        if self.times.shape != (n,) or self.times.dtype != np.int64:
            raise ValueError(
                f"times must be a one-dimensional int64 array, got "
                f"shape {self.times.shape} dtype {self.times.dtype}")
        if self.consumption.shape != (n,):
            raise ValueError(f"consumption shape {self.consumption.shape} != ({n},)")
        if self.weather.shape != (n, len(WEATHER_FIELDS)):
            raise ValueError(f"weather shape {self.weather.shape} != ({n}, {len(WEATHER_FIELDS)})")
        if self.time_decimal.shape != (n,):
            raise ValueError(f"time_decimal shape {self.time_decimal.shape} != ({n},)")
        if n and (self.times.min() < _FIRST_SLOT or self.times.max() > _LAST_SLOT):
            raise ValueError("times outside the years 1 to 9999")
        unordered = np.flatnonzero(np.diff(self.times) <= 0)
        if unordered.size:
            at = format_timestamps(self.times[unordered[:1] + 1])[0]
            raise ValueError(f"times not strictly increasing at {at}")
        if not np.all(np.isfinite(self.consumption)):
            raise ValueError("consumption contains non-finite values")
        if not np.all(np.isfinite(self.weather)):
            raise ValueError("weather contains missing or non-finite values")
        if not np.all(weather_plausible(self.weather)):
            raise ValueError("weather values outside plausible ranges")
        if not np.array_equal(self.time_decimal, time_decimal(self.times)):
            raise ValueError("time_decimal column disagrees with timestamps")

    def to_csv(self, path: str | Path) -> None:
        """Write the frame with full float precision (repr round-trips).

        Lines end in CRLF, as the csv module's default dialect writes them;
        this is the documented format of merged.csv, the only artifact
        whose lines do not end in LF. A csv reader takes either; a reader
        that splits lines on LF must strip the CR from the last column.
        """
        columns = [format_timestamps(self.times)]
        for values in (self.consumption, *self.weather.T, self.time_decimal):
            columns.append(list(map(repr, values.tolist())))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(MERGED_CSV_COLUMNS) + "\r\n")
            fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))

    @classmethod
    def from_csv(cls, path: str | Path, validate: bool = True) -> "MergedFrame":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if tuple(header) != MERGED_CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected header {header}")
            rows = list(reader)
        width = len(MERGED_CSV_COLUMNS)
        for row in rows:
            if len(row) < width:
                raise ValueError(f"{path}: row {row} has fewer than {width} cells")
        texts = [row[0] for row in rows]
        times = parse_timestamps(texts)
        unreadable = np.flatnonzero(times == BAD_TIME)
        if unreadable.size:
            raise ValueError(f"{path}: unreadable timestamp {texts[unreadable[0]]!r}")
        values = np.array([[float(v) for v in row[1:width]] for row in rows],
                          dtype=np.float64).reshape(-1, width - 1)
        frame = cls(
            times=times,
            consumption=values[:, 0].copy(),
            weather=values[:, 1:1 + len(WEATHER_FIELDS)].copy(),
            time_decimal=values[:, -1].copy(),
        )
        if validate:
            frame.validate()
        return frame


def build_merged_frame(
    times: Sequence[int],
    consumption: Sequence[float],
    weather_rows: Sequence[Sequence[float]],
) -> MergedFrame:
    """Assemble a MergedFrame from slot indices, computing time_decimal.

    Every column is a fresh array, so the frame shares no memory with
    its inputs.
    """
    times = np.array(times, dtype=np.int64)
    return MergedFrame(
        times=times,
        consumption=np.array(consumption, dtype=np.float64),
        weather=np.array(weather_rows, dtype=np.float64).reshape(-1, len(WEATHER_FIELDS)),
        time_decimal=time_decimal(times),
    )
