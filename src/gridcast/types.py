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

import contextlib
import datetime as dt
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from gridcast.errors import ShapeError

SLOTS_PER_DAY = 288
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"

# Row files (meter and weather CSVs, predictions) are read and written
# this many rows at a time, so no row's text outlives its block: as
# Python strings a row costs hundreds of bytes, as numbers sixteen.
ROW_CHUNK = 4096

# Canonical weather field names, in the column order used everywhere:
# weather CSV files, feature matrices, and correlation tables.
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


def parse_timestamps(texts: Sequence[str]) -> np.ndarray:
    """Slot indices of timestamp texts, BAD_TIME where a text is unreadable.

    A text is read as ``datetime.strptime(text, TIMESTAMP_FORMAT)`` reads
    it; a minute off the 5-minute grid counts as unreadable. Texts in the
    format's fixed-width shape are parsed as one array; any other text
    (an unpadded "2023-3-1 0:05", say) goes through strptime itself.
    """
    texts = list(texts)
    times = np.full(len(texts), BAD_TIME, dtype=np.int64)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    fixed = np.flatnonzero(lengths == 16)
    parsed, shaped = _parse_fixed_width(
        texts if len(fixed) == len(texts) else [texts[i] for i in fixed])
    times[fixed] = parsed
    decided = np.zeros(len(texts), dtype=bool)
    decided[fixed[shaped]] = True
    for i in np.flatnonzero(~decided).tolist():
        try:
            when = dt.datetime.strptime(texts[i], TIMESTAMP_FORMAT)
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
    days = np.asarray(times, dtype=np.int64) // SLOTS_PER_DAY
    days -= _EPOCH_ORDINAL
    # Months since 1970-01; modulo 12 they count from January as 0.
    months = days.view("datetime64[D]").astype("datetime64[M]").view(np.int64)
    del days
    months %= 12
    return _SEASON_CODE_BY_MONTH[1:][months]


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
            raise ShapeError(
                f"times shape {times.shape} and watts shape {watts.shape} "
                f"must be equal and one-dimensional")
        if not np.all(np.isfinite(watts)):
            raise ShapeError("watts must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "watts", watts)

    def __len__(self) -> int:
        return len(self.times)


# The largest |watts| a household's meter can read. A reading beyond it
# is a corrupt row, not a load: kept, it would overflow the metrics.
MAX_HOUSEHOLD_WATTS = 1e6


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
            raise ShapeError(
                f"dates shape {dates.shape} and values shape {values.shape} "
                f"must be (D,) and (D, {len(WEATHER_FIELDS)})")
        unordered = np.flatnonzero(np.diff(dates) <= 0)
        if unordered.size:
            i = int(unordered[0])
            raise ShapeError(
                f"weather dates must strictly increase; "
                f"{dt.date.fromordinal(int(dates[i + 1]))} follows "
                f"{dt.date.fromordinal(int(dates[i]))}")
        if not np.all(weather_plausible(values) | np.isnan(values)):
            raise ShapeError("weather values outside plausible ranges")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class MergedFrame:
    """The analysis table: one row per meter reading, and the daily
    weather of the rows' dates.

    Row i is ``consumption[i]`` watts at slot index ``times[i]``; its
    weather is the day of ``weather`` with its date, which row_weather()
    gathers where a caller reads it, and its decimal hour is
    ``time_decimal(times[i])``. The table may hold days that no row has.
    Invariants are enforced by validate(): strictly increasing times,
    finite consumption, and a complete weather day for every row's date.
    """

    times: np.ndarray        # (N,) int64 slot indices
    consumption: np.ndarray  # (N,) watts
    weather: Weather

    def __len__(self) -> int:
        return len(self.times)

    def row_weather(self, rows=slice(None)) -> np.ndarray:
        """(n, 6) weather of the selected rows, each its date's day: a copy."""
        days = self.times[rows] // SLOTS_PER_DAY
        return self.weather.values[np.searchsorted(self.weather.dates, days)]

    def validate(self) -> None:
        n = len(self.times)
        if self.times.shape != (n,) or self.times.dtype != np.int64:
            raise ShapeError(
                f"times must be a one-dimensional int64 array, got "
                f"shape {self.times.shape} dtype {self.times.dtype}")
        if self.consumption.shape != (n,):
            raise ShapeError(f"consumption shape {self.consumption.shape} != ({n},)")
        if n and (self.times.min() < _FIRST_SLOT or self.times.max() > _LAST_SLOT):
            raise ShapeError("times outside the years 1 to 9999")
        unordered = np.flatnonzero(np.diff(self.times) <= 0)
        if unordered.size:
            at = format_timestamps(self.times[unordered[:1] + 1])[0]
            raise ShapeError(f"times not strictly increasing at {at}")
        if not np.all(np.isfinite(self.consumption)):
            raise ShapeError("consumption contains non-finite values")
        days = self.times // SLOTS_PER_DAY
        uncovered = days[~np.isin(days, self.weather.dates)]
        if uncovered.size:
            raise ShapeError(
                f"no weather for {dt.date.fromordinal(int(uncovered[0]))}")
        incomplete = self.weather.dates[np.isnan(self.weather.values).any(axis=1)]
        if incomplete.size:
            raise ShapeError(
                f"weather for {dt.date.fromordinal(int(incomplete[0]))} still "
                f"has missing fields; interpolate first")


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Every file gridcast writes goes through here ("w": UTF-8 text with
    LF lines, "wb": bytes), its directory made first. The handle writes a
    temporary file beside ``path`` that replaces it when the block ends;
    if the block raises, the temporary file is removed and ``path`` keeps
    what it held."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = "b" not in mode
    handle = open(temp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None)
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as gridcast's JSON: a 2-space indent, sorted keys
    and a final LF. Floats are written by repr, so they load back bit for
    bit."""
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def csv_line(cells) -> str:
    """One LF-ended CSV line. None and NaN are blank cells (a missing
    value); a float, numpy's included, is its repr, so it reads back bit
    for bit; anything else is its str. No cell holds a comma or quote."""
    return ",".join(map(_csv_cell, cells)) + "\n"


def write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """Write a header line and one line per row, each through csv_line."""
    with atomic_write(path) as handle:
        handle.write(csv_line(header))
        handle.writelines(map(csv_line, rows))


def write_row_files(files: dict[Path, np.ndarray], header: str,
                    times: np.ndarray, shared: Sequence[np.ndarray] = ()) -> None:
    """Write one CSV per ``files`` entry (a path and its own column),
    ROW_CHUNK rows at a time: row i is the timestamp of ``times[i]``, then
    ``repr(float(v))`` of row i of each ``shared`` column and of the own
    column. Each distinct float of a block is formatted once."""
    columns = [*shared, *files.values()]
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(atomic_write(path)) for path in files]
        for handle in handles:
            handle.write(header + "\n")
        for start in range(0, len(times), ROW_CHUNK):
            rows = slice(start, start + ROW_CHUNK)
            block = np.array([column[rows] for column in columns],
                             dtype=np.float64)
            # Distinct by bits, so -0.0 and 0.0 keep their own texts.
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            cells = np.array([f",{v!r}" for v in bits.view(np.float64).tolist()],
                             dtype=object)[inverse.reshape(block.shape)]
            lines = np.array(format_timestamps(times[rows]), dtype=object)
            for column in cells[:len(shared)]:
                lines += column
            for handle, column in zip(handles, cells[len(shared):]):
                handle.write("\n".join((lines + column).tolist()) + "\n")
