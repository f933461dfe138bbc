"""CSV ingestion: meter streams, daily weather, gap filling, merging.

Parsers are forgiving row by row but strict about structure: a missing
column or an empty file is an error, while individual bad rows are
dropped and counted so callers can assert exactly what was discarded.

Meter streams are columnar: a parse returns one MeterRecords, an int64
array of slot indices (see gridcast.types) beside a float64 array of
watts, and merging and frame building work on those arrays whole.

File schemas (UTF-8, LF or CRLF, header row required):

* meter:   ``timestamp,watts`` with timestamps like ``2023-03-01 00:05``
* weather: ``date,max_temp_c,rainfall_mm,temp_9am_c,rh_9am_pct,
  temp_3pm_c,rh_3pm_pct`` with ISO dates; an empty cell means missing

Monthly weather files are named ``YYYYMM.csv``.
"""
from __future__ import annotations

import csv
import datetime as dt
import re
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from gridcast.errors import (
    AllMissingError,
    BoundaryMissingError,
    EmptyFileError,
    EmptyInputError,
    EmptyIntersectionError,
    MalformedTimestampError,
    MissingColumnError,
    NoOverlapError,
)
from gridcast.types import (
    BAD_TIME,
    SLOTS_PER_DAY,
    TIMESTAMP_FORMAT,
    WEATHER_CSV_COLUMNS,
    WEATHER_FIELDS,
    MergedFrame,
    MeterRecords,
    WeatherDay,
    build_merged_frame,
    format_timestamps,
    parse_timestamps,
    weather_value_ok,
)

STREAM_KINDS = ("grid", "solar", "plain")

# File header -> in-memory field name for the canonical weather schema.
DEFAULT_WEATHER_COLUMN_MAP: Mapping[str, str] = dict(
    zip(WEATHER_CSV_COLUMNS, WEATHER_FIELDS))

_MONTH_LABEL = re.compile(r"^(\d{4})(\d{2})$")
_MONTH_FILE = re.compile(r"^\d{6}\.csv$")


@dataclass(frozen=True)
class MeterCsvSpec:
    """Where and how to read one meter stream.

    ``kind`` states what the stream measures: ``grid`` is net draw from
    a solar household (negative = export, allowed), ``solar`` is panel
    generation, ``plain`` is a household without solar.  Negative watts
    are physically impossible for the latter two and are dropped.
    """

    path: str | Path
    timestamp_column: str = "timestamp"
    watts_column: str = "watts"
    timestamp_format: str = TIMESTAMP_FORMAT
    kind: str = "plain"

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise ValueError(f"kind must be one of {STREAM_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class WeatherCsvSpec:
    """One monthly weather file plus the header adaptation map."""

    path: str | Path
    month_label: str
    date_column: str = "date"
    column_map: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_WEATHER_COLUMN_MAP))

    def __post_init__(self):
        match = _MONTH_LABEL.match(self.month_label)
        if not match or not (1 <= int(match.group(2)) <= 12):
            raise ValueError(
                f"month label must look like 202303, got {self.month_label!r}")
        mapped = sorted(self.column_map.values())
        if mapped != sorted(WEATHER_FIELDS):
            raise ValueError(
                f"column map must cover exactly the fields {WEATHER_FIELDS}")

    @property
    def year(self) -> int:
        return int(self.month_label[:4])

    @property
    def month(self) -> int:
        return int(self.month_label[4:])


@dataclass(frozen=True)
class MeterDrops:
    """Row-level discards from one meter file."""

    bad_timestamps: int = 0
    blank_watts: int = 0
    negative_watts: int = 0
    duplicates: int = 0

    @property
    def total(self) -> int:
        return (self.bad_timestamps + self.blank_watts
                + self.negative_watts + self.duplicates)


@dataclass(frozen=True)
class WeatherDrops:
    """Discards and demotions from weather files.

    ``invalid_cells`` counts unparseable or out-of-range values demoted
    to missing (the row itself survives); the other counters are whole
    dropped rows.
    """

    bad_dates: int = 0
    duplicates: int = 0
    misfiled: int = 0
    invalid_cells: int = 0

    @property
    def total_rows(self) -> int:
        return self.bad_dates + self.duplicates + self.misfiled

    def merged_with(self, other: "WeatherDrops") -> "WeatherDrops":
        return WeatherDrops(
            bad_dates=self.bad_dates + other.bad_dates,
            duplicates=self.duplicates + other.duplicates,
            misfiled=self.misfiled + other.misfiled,
            invalid_cells=self.invalid_cells + other.invalid_cells,
        )


@dataclass(frozen=True)
class MeterParseResult:
    records: MeterRecords
    drops: MeterDrops


@dataclass(frozen=True)
class WeatherParseResult:
    days: tuple[WeatherDay, ...]
    drops: WeatherDrops


@dataclass(frozen=True)
class WeatherDirResult:
    days: tuple[WeatherDay, ...]
    drops: WeatherDrops
    files: tuple[str, ...]


@dataclass(frozen=True)
class MergeResult:
    records: MeterRecords
    grid_only: int
    solar_only: int


@dataclass(frozen=True)
class FrameResult:
    frame: MergedFrame
    dropped_no_weather: int


def _read_csv_rows(path, required_columns: Sequence[str]) -> list[dict]:
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyFileError(f"{path}: no header row")
        missing = [c for c in required_columns if c not in reader.fieldnames]
        if missing:
            raise MissingColumnError(f"{path}: missing column(s) {missing}")
        rows = list(reader)
    if not rows:
        raise EmptyFileError(f"{path}: header but no data rows")
    return rows


def _column_index(header: list[str], name: str) -> int:
    """Position of a column; a repeated name means its last copy, as a
    csv.DictReader row would map it."""
    return len(header) - 1 - header[::-1].index(name)


def _meter_columns(spec: MeterCsvSpec) -> tuple[list[str], list[str]]:
    """Stripped timestamp and watts texts of every data row.

    Follows csv.DictReader: blank lines are no rows, and a cell missing
    from a short row reads as empty.
    """
    with open(spec.path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyFileError(f"{spec.path}: no header row")
        required = [spec.timestamp_column, spec.watts_column]
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumnError(f"{spec.path}: missing column(s) {missing}")
        columns = [_column_index(header, c) for c in required]
        rows = list(filter(None, reader))
    if not rows:
        raise EmptyFileError(f"{spec.path}: header but no data rows")
    width = max(columns) + 1
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    ts_texts, watts_texts = (list(map(str.strip, map(itemgetter(c), rows)))
                             for c in columns)
    return ts_texts, watts_texts


def _parse_watts(texts: list[str]) -> np.ndarray:
    """float() of each text; NaN where float() refuses it."""
    watts = np.empty(len(texts), dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            watts[i] = float(text)
        except ValueError:
            watts[i] = np.nan
    return watts


def parse_meter_csv(spec: MeterCsvSpec) -> MeterParseResult:
    """Read one meter stream; returns records sorted by time plus drops.

    Rows with unreadable timestamps or watts are dropped and counted; a
    repeated timestamp keeps its first row.  If over half the rows have
    unreadable timestamps the format string is presumed wrong and the
    whole parse fails instead of silently discarding the file.  Each
    row feeds at most one counter, checked in the order bad timestamp,
    blank or non-finite watts, negative watts, duplicate.
    """
    ts_texts, watts_texts = _meter_columns(spec)
    times = parse_timestamps(ts_texts, spec.timestamp_format)
    watts = _parse_watts(watts_texts)
    readable = times != BAD_TIME
    bad_ts = len(times) - int(readable.sum())
    if bad_ts > len(times) / 2:
        raise MalformedTimestampError(
            f"{spec.path}: {bad_ts} of {len(times)} timestamps unreadable; "
            f"is the format string {spec.timestamp_format!r} right?")
    finite = readable & np.isfinite(watts)
    negative = finite & (watts < 0) & (spec.kind != "grid")
    kept = np.flatnonzero(finite & ~negative)
    # np.unique sorts and, with return_index, points at first occurrences.
    unique_times, first = np.unique(times[kept], return_index=True)
    return MeterParseResult(
        records=MeterRecords(unique_times, watts[kept[first]]),
        drops=MeterDrops(bad_timestamps=bad_ts,
                         blank_watts=int(readable.sum() - finite.sum()),
                         negative_watts=int(negative.sum()),
                         duplicates=len(kept) - len(unique_times)),
    )


def parse_weather_csv(spec: WeatherCsvSpec) -> WeatherParseResult:
    """Read one monthly weather file into per-day records.

    Blank cells become missing markers.  Unparseable or implausible
    values are demoted to missing and counted; rows with unreadable
    dates, repeated dates, or dates outside the file's labelled month
    are dropped and counted.
    """
    required = [spec.date_column] + list(spec.column_map.keys())
    rows = _read_csv_rows(spec.path, required)
    bad_dates = duplicates = misfiled = invalid = 0
    seen: set[dt.date] = set()
    days: list[WeatherDay] = []
    for row in rows:
        date_text = (row.get(spec.date_column) or "").strip()
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            bad_dates += 1
            continue
        if (date.year, date.month) != (spec.year, spec.month):
            misfiled += 1
            continue
        if date in seen:
            duplicates += 1
            continue
        seen.add(date)
        values: dict[str, float] = {}
        for file_column, field_name in spec.column_map.items():
            text = (row.get(file_column) or "").strip()
            if not text:
                continue  # blank cell is the documented missing marker
            try:
                value = float(text)
            except ValueError:
                invalid += 1
                continue
            if not weather_value_ok(field_name, value):
                invalid += 1
                continue
            values[field_name] = value
        days.append(WeatherDay(date, **values))
    days.sort(key=lambda d: d.date)
    return WeatherParseResult(
        days=tuple(days),
        drops=WeatherDrops(bad_dates=bad_dates, duplicates=duplicates,
                           misfiled=misfiled, invalid_cells=invalid),
    )


def load_weather_dir(directory,
                     column_map: Mapping[str, str] | None = None,
                     date_column: str = "date") -> WeatherDirResult:
    """Parse every YYYYMM.csv in a directory into one sorted day list.

    Other filenames are ignored.  Should two files both carry a date
    (only possible via misfiling, which is already dropped per file),
    the earlier-named file wins.
    """
    directory = Path(directory)
    names = sorted(p.name for p in directory.iterdir()
                   if _MONTH_FILE.match(p.name))
    if not names:
        raise EmptyInputError(f"{directory}: no YYYYMM.csv weather files")
    all_days: list[WeatherDay] = []
    drops = WeatherDrops()
    seen: set[dt.date] = set()
    for name in names:
        spec = WeatherCsvSpec(
            path=directory / name, month_label=name[:6],
            date_column=date_column,
            column_map=dict(column_map if column_map is not None
                            else DEFAULT_WEATHER_COLUMN_MAP))
        result = parse_weather_csv(spec)
        drops = drops.merged_with(result.drops)
        for day in result.days:
            if day.date in seen:
                drops = drops.merged_with(WeatherDrops(duplicates=1))
                continue
            seen.add(day.date)
            all_days.append(day)
    all_days.sort(key=lambda d: d.date)
    return WeatherDirResult(days=tuple(all_days), drops=drops,
                            files=tuple(names))


def _require_sorted_dates(days: Sequence[WeatherDay]) -> None:
    for prev, cur in zip(days, days[1:]):
        if not prev.date < cur.date:
            raise ValueError(
                f"weather days must be strictly sorted by date; "
                f"{cur.date} follows {prev.date}")


def interpolate_weather(days: Iterable[WeatherDay]) -> tuple[WeatherDay, ...]:
    """Fill every missing field linearly along the date axis.

    Each filled value is the straight line between the nearest earlier
    and later observed values of that field, weighted by calendar-day
    distance.  A field missing at either end of the range (or missing
    everywhere) cannot be filled and is an error.  Running the fill a
    second time is a no-op.
    """
    days = tuple(days)
    if not days:
        raise EmptyInputError("no weather days to interpolate")
    _require_sorted_dates(days)
    ordinals = np.array([d.date.toordinal() for d in days], dtype=np.float64)
    filled_columns: dict[str, list[float]] = {}
    for name in WEATHER_FIELDS:
        values = [getattr(d, name) for d in days]
        known = [i for i, v in enumerate(values) if v is not None]
        if not known:
            raise AllMissingError(f"field {name} has no observed values")
        if known[0] != 0 or known[-1] != len(days) - 1:
            end = "start" if known[0] != 0 else "end"
            raise BoundaryMissingError(
                f"field {name} is missing at the {end} of the date range; "
                f"linear interpolation has no anchor there")
        if len(known) == len(days):
            filled_columns[name] = values
            continue
        interpolated = np.interp(ordinals, ordinals[known],
                                 [values[i] for i in known])
        filled_columns[name] = [
            values[i] if values[i] is not None else float(interpolated[i])
            for i in range(len(days))
        ]
    return tuple(
        WeatherDay(day.date, **{name: filled_columns[name][i]
                                for name in WEATHER_FIELDS})
        for i, day in enumerate(days)
    )


def _require_sorted_records(records: MeterRecords, label: str) -> None:
    unordered = np.flatnonzero(np.diff(records.times) <= 0)
    if unordered.size:
        i = int(unordered[0])
        cur, prev = format_timestamps(records.times[[i + 1, i]])
        raise ValueError(
            f"{label} records must be strictly sorted by time; "
            f"{cur} follows {prev}")


def merge_solar(grid: MeterRecords, solar: MeterRecords) -> MergeResult:
    """Add generation back onto net grid draw, per matching timestamp.

    Total consumption = grid watts + solar watts.  Timestamps present in
    only one stream are dropped and counted per side; an empty
    intersection is an error.
    """
    _require_sorted_records(grid, "grid")
    _require_sorted_records(solar, "solar")
    times, in_grid, in_solar = np.intersect1d(
        grid.times, solar.times, assume_unique=True, return_indices=True)
    if not len(times):
        raise EmptyIntersectionError(
            "grid and solar streams share no timestamps")
    merged = MeterRecords(times, grid.watts[in_grid] + solar.watts[in_solar])
    return MergeResult(records=merged, grid_only=len(grid) - len(merged),
                       solar_only=len(solar) - len(merged))


def build_frame(meter: MeterRecords,
                weather: Sequence[WeatherDay]) -> FrameResult:
    """Broadcast each day's weather onto its 5-minute meter rows.

    Meter rows on dates with no weather are dropped and counted; if
    nothing remains the date ranges are disjoint and that is an error.
    Weather must already be fully interpolated; should a date repeat,
    its last day wins.
    """
    if not len(meter):
        raise EmptyInputError("no meter records")
    for day in weather:
        if not day.is_complete():
            raise ValueError(
                f"weather for {day.date} still has missing fields "
                f"{day.missing_fields()}; interpolate first")
    by_date = {day.date.toordinal(): day.field_values() for day in weather}
    ordinals = np.array(sorted(by_date), dtype=np.int64)
    meter_days = meter.times // SLOTS_PER_DAY
    covered = np.isin(meter_days, ordinals)
    if not covered.any():
        raise NoOverlapError("no meter dates fall inside the weather range")
    table = np.array([by_date[o] for o in ordinals.tolist()], dtype=np.float64)
    rows = np.searchsorted(ordinals, meter_days[covered])
    frame = build_merged_frame(meter.times[covered], meter.watts[covered],
                               table[rows])
    frame.validate()
    return FrameResult(frame=frame,
                       dropped_no_weather=len(meter) - int(covered.sum()))
