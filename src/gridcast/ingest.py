"""CSV ingestion: meter streams, daily weather, gap filling, merging.

Parsers are forgiving row by row but strict about structure: a missing
column or an empty file is an error, while individual bad rows are
dropped and counted so callers can assert exactly what was discarded.

Both file kinds are read as columns by one reader, ROW_CHUNK rows at a
time: each block of texts becomes numbers before the next is read, so a
file's rows are never held whole as Python strings. The header goes
through the csv module. After it, a block of ROW_CHUNK lines is split at
commas with str methods when that reads exactly what csv would: the
block has no quote or NUL character, no CR but in a CRLF line end, no
line longer than csv.field_size_limit(), and one comma fewer than the
header has fields on every line, so no blank, short or long row. From
the first block that fails a test, the rest of the file goes through
csv.reader, as every block did before. Both parse into
columnar tables (see gridcast.types): a meter stream is one MeterRecords,
an int64 array of slot indices beside a float64 array of watts, and a
weather directory is one Weather, an int64 array of date ordinals beside
a (D, 6) float64 array with NaN for a missing cell. Gap filling, merging
and frame building work on those arrays whole.

File schemas (UTF-8, optional BOM, LF or CRLF, header row required):

* meter:   ``timestamp,watts`` with timestamps like ``2023-03-01 00:05``
* weather: ``date,max_temp_c,rainfall_mm,temp_9am_c,rh_9am_pct,
  temp_3pm_c,rh_3pm_pct`` with ISO dates; an empty cell means missing

Monthly weather files are named ``YYYYMM.csv`` for a real month (01-12)
and hold only that month's days.
"""
from __future__ import annotations

import csv
import datetime as dt
import re
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from gridcast.errors import DataError, ShapeError
from gridcast.types import (
    BAD_TIME,
    MAX_HOUSEHOLD_WATTS,
    ROW_CHUNK,
    SLOTS_PER_DAY,
    TIMESTAMP_FORMAT,
    WEATHER_CSV_COLUMNS,
    WEATHER_FIELDS,
    MergedFrame,
    MeterRecords,
    Weather,
    format_timestamps,
    parse_timestamps,
    weather_plausible,
)

STREAM_KINDS = ("grid", "solar", "plain")

MONTH_FILE = re.compile(r"^\d{4}(0[1-9]|1[0-2])\.csv$")
# Date ordinals of weather rows that are dropped; real ordinals are >= 1.
_BAD_DATE = -1
_MISFILED = -2
# Every byte but comma and LF, deleted to leave a block's separators.
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


@dataclass(frozen=True)
class MeterCsvSpec:
    """Which meter file to read, and what it measures.

    ``kind`` states what the stream measures: ``grid`` is net draw from
    a solar household (negative = export, allowed), ``solar`` is panel
    generation, ``plain`` is a household without solar.  Negative watts
    are physically impossible for the latter two and are dropped.
    """

    path: str | Path
    kind: str = "plain"

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise ShapeError(f"kind must be one of {STREAM_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class MeterDrops:
    """Row-level discards from one meter file."""

    bad_timestamps: int = 0
    blank_watts: int = 0
    implausible_watts: int = 0
    negative_watts: int = 0
    duplicates: int = 0

    @property
    def total(self) -> int:
        return (self.bad_timestamps + self.blank_watts + self.implausible_watts
                + self.negative_watts + self.duplicates)


@dataclass(frozen=True)
class WeatherDrops:
    """Discards and demotions from weather files.

    ``invalid_cells`` counts unparseable, non-finite or out-of-range
    values demoted to missing (the row itself survives); the other
    counters are whole dropped rows.
    """

    bad_dates: int = 0
    duplicates: int = 0
    misfiled: int = 0
    invalid_cells: int = 0

    @property
    def total_rows(self) -> int:
        return self.bad_dates + self.duplicates + self.misfiled


@dataclass(frozen=True)
class MeterParseResult:
    records: MeterRecords
    drops: MeterDrops


def _column_index(header: list[str], name: str) -> int:
    """Position of a column; a repeated name means its last copy, as a
    csv.DictReader row would map it."""
    return len(header) - 1 - header[::-1].index(name)


def _plain_cells(lines: list[str], fields: int) -> list[str] | None:
    """The cells of a block of lines, row by row, when splitting the lines
    at commas reads exactly what the csv module would; else None.

    That holds when the block has no quote or NUL character, no CR but in
    a CRLF line end, no line longer than the csv field limit, and exactly
    ``fields - 1`` commas on every line. A blank line has no comma, so
    with two or more fields it fails the last test too.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if not text.endswith("\n"):  # the file's last line, without a line end
        text += "\n"
    # Comma and LF are single bytes in UTF-8, never part of another
    # character: the block's separators, in order, show every line's.
    separators = text.encode().translate(None, _NOT_SEPARATOR)
    if separators != ("," * (fields - 1) + "\n").encode() * len(lines):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return text[:-1].replace("\n", ",").split(",")


def _read_columns(path, names: Sequence[str]) -> Iterator[list[list[str]]]:
    """Stripped texts of the named columns, ROW_CHUNK data rows at a time.

    Each block is one list per name, each with one text per data row of
    the block; the last block may be shorter. Follows csv.DictReader:
    blank lines are no rows, and a cell missing from a short row reads as
    empty. Text that is not UTF-8, or a cell beyond the csv module's field
    limit, is a DataError naming the file.

    The header is read by the csv module. Blocks of ROW_CHUNK lines are
    then split at commas while _plain_cells can split them; from the
    first block it cannot, the rest of the file goes through the csv
    module, a block of rows at a time.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            header = next(csv.reader(handle), None)
            if header is None:
                raise DataError(f"{path}: no header row")
            missing = [c for c in names if c not in header]
            if missing:
                raise DataError(f"{path}: missing column(s) {missing}")
            columns = [_column_index(header, c) for c in names]
            fields = len(header)
            rows = 0
            while lines := list(islice(handle, ROW_CHUNK)):
                cells = _plain_cells(lines, fields)
                if cells is None:
                    break
                rows += len(lines)
                yield [list(map(str.strip, cells[c::fields])) for c in columns]
            width = max(columns) + 1
            reader = filter(None, csv.reader(chain(lines, handle)))
            while block := list(islice(reader, ROW_CHUNK)):
                rows += len(block)
                if min(map(len, block)) < width:
                    block = [row + [""] * (width - len(row)) for row in block]
                yield [list(map(str.strip, map(itemgetter(c), block)))
                       for c in columns]
            if not rows:
                raise DataError(f"{path}: header but no data rows")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from exc


def _parse_floats(texts: list[str]) -> np.ndarray:
    """float() of each text; NaN where float() refuses it."""
    try:
        return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        pass
    values = np.empty(len(texts), dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            values[i] = np.nan
    return values


def parse_meter_csv(spec: MeterCsvSpec) -> MeterParseResult:
    """Read one meter stream; returns records sorted by time plus drops.

    Rows with unreadable timestamps or watts are dropped and counted; a
    repeated timestamp keeps its first row.  If over half the rows have
    unreadable timestamps the format string is presumed wrong and the
    whole parse fails instead of silently discarding the file.  Each
    row feeds at most one counter, checked in the order bad timestamp,
    blank or non-finite watts, |watts| above MAX_HOUSEHOLD_WATTS,
    negative watts, duplicate.
    """
    time_blocks, watt_blocks = [], []
    for ts_texts, watts_texts in _read_columns(spec.path, ("timestamp", "watts")):
        time_blocks.append(parse_timestamps(ts_texts))
        watt_blocks.append(_parse_floats(watts_texts))
    times, watts = np.concatenate(time_blocks), np.concatenate(watt_blocks)
    readable = times != BAD_TIME
    bad_ts = len(times) - int(readable.sum())
    if bad_ts > len(times) / 2:
        raise DataError(
            f"{spec.path}: {bad_ts} of {len(times)} timestamps unreadable; "
            f"is the format string {TIMESTAMP_FORMAT!r} right?")
    finite = readable & np.isfinite(watts)
    plausible = finite & (np.abs(watts) <= MAX_HOUSEHOLD_WATTS)
    negative = plausible & (watts < 0) & (spec.kind != "grid")
    kept = np.flatnonzero(plausible & ~negative)
    # np.unique sorts and, with return_index, points at first occurrences.
    unique_times, first = np.unique(times[kept], return_index=True)
    return MeterParseResult(
        records=MeterRecords(unique_times, watts[kept[first]]),
        drops=MeterDrops(bad_timestamps=bad_ts,
                         blank_watts=int(readable.sum() - finite.sum()),
                         implausible_watts=int(finite.sum() - plausible.sum()),
                         negative_watts=int(negative.sum()),
                         duplicates=len(kept) - len(unique_times)),
    )


def _parse_weather_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Date ordinals, values and drop counts of one monthly weather file.

    The counts follow WeatherDrops' field order. A row is dropped for an
    unreadable date, then for a date outside the file's month, then for
    a date an earlier row already has. In the rows kept, a blank cell is
    missing and an unparseable or implausible one is demoted to missing.
    """
    month = (int(path.name[:4]), int(path.name[4:6]))
    blocks = []
    for date_texts, *cell_texts in _read_columns(
            path, ("date",) + WEATHER_CSV_COLUMNS):
        ordinals = np.empty(len(date_texts), dtype=np.int64)
        for i, text in enumerate(date_texts):
            try:
                date = dt.date.fromisoformat(text)
            except ValueError:
                ordinals[i] = _BAD_DATE
                continue
            ordinals[i] = (date.toordinal() if (date.year, date.month) == month
                           else _MISFILED)
        blocks.append((ordinals,
                       np.column_stack([_parse_floats(c) for c in cell_texts]),
                       np.column_stack([list(map(bool, c)) for c in cell_texts])))
    ordinals, values, present = map(np.concatenate, zip(*blocks))
    in_month = np.flatnonzero(ordinals > 0)
    # np.unique sorts and, with return_index, points at first occurrences.
    dates, first = np.unique(ordinals[in_month], return_index=True)
    kept = in_month[first]
    values, present = values[kept], present[kept]
    invalid = present & ~weather_plausible(values)
    values[invalid] = np.nan
    counts = np.array([np.sum(ordinals == _BAD_DATE), len(in_month) - len(dates),
                       np.sum(ordinals == _MISFILED), invalid.sum()])
    return dates, values, counts


def load_weather_dir(directory) -> tuple[Weather, WeatherDrops, int]:
    """Parse every YYYYMM.csv in a directory into one Weather table.

    Returns the table, the drops summed over files, and the number of
    files read. Other filenames, a month outside 01-12 among them, are
    ignored. Each file keeps only its own month's days, so files in name
    order are in date order.
    """
    directory = Path(directory)
    names = sorted(p.name for p in directory.iterdir()
                   if MONTH_FILE.match(p.name))
    if not names:
        raise DataError(f"{directory}: no YYYYMM.csv weather files")
    dates, values, counts = zip(*(_parse_weather_csv(directory / name)
                                  for name in names))
    drops = WeatherDrops(*np.sum(counts, axis=0).tolist())
    return Weather(np.concatenate(dates), np.concatenate(values)), drops, len(names)


def interpolate_weather(weather: Weather) -> Weather:
    """Fill every missing cell linearly along the date axis.

    Each filled value is the straight line between the nearest earlier
    and later observed values of that field, weighted by calendar-day
    distance.  A field missing at either end of the range (or missing
    everywhere) cannot be filled and is an error.  Running the fill a
    second time is a no-op.
    """
    if not len(weather):
        raise DataError("no weather days to interpolate")
    days = weather.dates.astype(np.float64)
    values = weather.values.copy()
    for j, name in enumerate(WEATHER_FIELDS):
        missing = np.isnan(values[:, j])
        known = np.flatnonzero(~missing)
        if not known.size:
            raise DataError(f"field {name} has no observed values")
        if known[0] != 0 or known[-1] != len(days) - 1:
            end = "start" if known[0] != 0 else "end"
            raise DataError(
                f"field {name} is missing at the {end} of the date range; "
                f"linear interpolation has no anchor there")
        if missing.any():
            values[missing, j] = np.interp(days[missing], days[known],
                                           values[known, j])
    return Weather(weather.dates, values)


def _require_sorted_records(records: MeterRecords, label: str) -> None:
    unordered = np.flatnonzero(np.diff(records.times) <= 0)
    if unordered.size:
        i = int(unordered[0])
        cur, prev = format_timestamps(records.times[[i + 1, i]])
        raise ShapeError(
            f"{label} records must be strictly sorted by time; "
            f"{cur} follows {prev}")


def merge_solar(grid: MeterRecords,
                solar: MeterRecords) -> tuple[MeterRecords, int, int]:
    """Add generation back onto net grid draw, per matching timestamp.

    Total consumption = grid watts + solar watts.  Timestamps present in
    only one stream are dropped and counted per side: returns the merged
    records, then the grid-only and solar-only counts.  An empty
    intersection is an error, and so is a sum too large for a float.
    """
    _require_sorted_records(grid, "grid")
    _require_sorted_records(solar, "solar")
    times, in_grid, in_solar = np.intersect1d(
        grid.times, solar.times, assume_unique=True, return_indices=True)
    if not len(times):
        raise DataError(
            "grid and solar streams share no timestamps")
    with np.errstate(over="ignore"):
        watts = grid.watts[in_grid] + solar.watts[in_solar]
    overflow = np.flatnonzero(~np.isfinite(watts))
    if overflow.size:
        at = format_timestamps(times[overflow[:1]])[0]
        raise DataError(f"grid + solar watts overflow at {at}")
    merged = MeterRecords(times, watts)
    return merged, len(grid) - len(merged), len(solar) - len(merged)


def build_frame(meter: MeterRecords,
                weather: Weather) -> tuple[MergedFrame, int]:
    """Pair the meter rows with the daily weather table.

    Meter rows on dates with no weather are dropped; returns the frame
    and that count.  If nothing remains the date ranges are disjoint and
    that is an error.  Weather must already be fully interpolated.
    """
    if not len(meter):
        raise DataError("no meter records")
    covered = np.isin(meter.times // SLOTS_PER_DAY, weather.dates)
    if not covered.any():
        raise DataError("no meter dates fall inside the weather range")
    rows = slice(None) if covered.all() else covered
    frame = MergedFrame(meter.times[rows], meter.watts[rows], weather)
    frame.validate()
    return frame, len(meter) - int(covered.sum())
