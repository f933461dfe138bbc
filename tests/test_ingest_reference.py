"""The columnar meter and weather parsers against plain row-by-row
references.

The meter reference reads a meter file the straightforward way: a
csv.DictReader, one strptime per row, one (date, hour, minute) time
point per kept row, a set of seen time points for duplicates and a sort
at the end. parse_meter_csv reads columns, parses timestamps as one
array and finds duplicates with np.unique; it must keep exactly the same
rows, with the same watts bits, and count exactly the same drops.

The weather reference reads a directory of monthly files the same way,
one row and one cell at a time, and load_weather_dir must keep the same
days, mark the same cells missing, keep the same value bits and count
the same drops.
"""
import csv
import datetime as dt
import math
import re
import sys

import numpy as np
import pytest

from gridcast.errors import DataError
from gridcast.ingest import MeterCsvSpec, load_weather_dir, parse_meter_csv
from gridcast.types import ROW_CHUNK, TIMESTAMP_FORMAT, WEATHER_CSV_COLUMNS
from helpers import raises_exactly, spy_on_split_blocks


def reference_parse(spec: MeterCsvSpec):
    """(times, watts, drops) of one meter file, one row at a time."""
    with open(spec.path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.DictReader(handle))
    bad_ts = blank = implausible = negative = duplicates = 0
    seen = set()
    kept = []
    for row in rows:
        ts_text = (row.get("timestamp") or "").strip()
        try:
            when = dt.datetime.strptime(ts_text, TIMESTAMP_FORMAT)
        except ValueError:
            bad_ts += 1
            continue
        if when.minute % 5 != 0:
            bad_ts += 1
            continue
        point = (when.date(), when.hour, when.minute)
        watts_text = (row.get("watts") or "").strip()
        try:
            watts = float(watts_text)
        except ValueError:
            blank += 1
            continue
        if not math.isfinite(watts):
            blank += 1
            continue
        if abs(watts) > 1e6:
            implausible += 1
            continue
        if watts < 0 and spec.kind != "grid":
            negative += 1
            continue
        if point in seen:
            duplicates += 1
            continue
        seen.add(point)
        kept.append((point, watts))
    if bad_ts > len(rows) / 2:
        raise DataError(
            f"{spec.path}: {bad_ts} of {len(rows)} timestamps unreadable; "
            f"is the format string {TIMESTAMP_FORMAT!r} right?")
    kept.sort(key=lambda pair: pair[0])
    times = [date.toordinal() * 288 + hour * 12 + minute // 5
             for (date, hour, minute), _ in kept]
    return times, [w for _, w in kept], (bad_ts, blank, implausible, negative,
                                         duplicates)


def _stamp(day: int, slot: int) -> str:
    when = dt.datetime(2023, 2, 26) + dt.timedelta(days=day, minutes=5 * slot)
    return when.strftime(TIMESTAMP_FORMAT)


def _clean_rows(rng, days=4):
    return [f"{_stamp(d, s)},{rng.uniform(0, 3000)!r}"
            for d in range(days) for s in range(288)]


def _shuffled_with_duplicates(rng):
    rows = _clean_rows(rng)
    rows += [f"{rows[int(i)].split(',')[0]},{rng.uniform(0, 3000)!r}"
             for i in rng.integers(0, len(rows), 40)]
    return [rows[int(i)] for i in rng.permutation(len(rows))]


# Every defect the benchmark injects, in a solar file where negative
# watts are defects too.
_DEFECTS = [
    "not-a-time,10.0", "2023-02-30 10:00,10.0", "2023-03-01 25:00,10.0",
    "2023-03-01 07:03,10.0", ",10.0", "2023-03-01 10:00,",
    "2023-03-01 10:05,nan", "2023-03-01 10:10,inf", "2023-03-01 10:15,-42.5",
]

# Texts that only strptime's own rules decide, and edge dates.
_EDGE_TIMESTAMPS = [
    "2023-3-1 0:5", "2023-03-01  10:20", "2023-03-01\t10:25",
    "٢٠٢٣-03-01 10:30", " 2023-03-01 10:35 ",
    "2024-02-29 00:00", "2023-02-29 00:00", "1900-02-29 00:00",
    "2000-02-29 00:00", "2023-03-01 24:00", "2023-03-01 23:60",
    "0000-01-01 00:00", "0001-01-01 00:00", "9999-12-31 23:55",
    "2023-13-01 00:00", "2023-00-10 00:00", "2023-03-00 00:00",
    "2023-03-32 00:00", "2023-03-01T10:40", "2023-03-01 10:45:00",
    "2023-03-01 1045", "20230301 10:50", "2023-03-01 10:5",
    "2023/03/01 10:55", "2023-03-01 10:5x", "2023-03-01 10:00 ",
]
_EDGE_WATTS = ["1_000", "+inf", "-inf", " 12 ", "1e3", "Infinity", "-0.0",
               "abc", "0x10", "١٢", "NaN", "5.", ".5", "1e308", "-1e308",
               "1e6", "-1e6", "1000000.00000000001", "1000000.0000000002"]


def _case(name: str, rng):
    """(file text, spec keywords) for one named case."""
    header = "timestamp,watts"
    kwargs = {"kind": "solar"}
    if name == "shuffled-duplicates":
        rows = _shuffled_with_duplicates(rng)
    elif name == "defects":
        rows = _clean_rows(rng, days=2) + _DEFECTS * 3
        rows = [rows[int(i)] for i in rng.permutation(len(rows))]
    elif name == "defects-grid":
        rows = _clean_rows(rng, days=2) + _DEFECTS
        kwargs = {"kind": "grid"}
    elif name == "edge-timestamps":
        rows = _clean_rows(rng, days=1) + [f"{t},7.0" for t in _EDGE_TIMESTAMPS]
    elif name == "edge-watts":
        rows = _clean_rows(rng, days=1) + [
            f"{_stamp(3, i)},{w}" for i, w in enumerate(_EDGE_WATTS)]
    elif name == "crlf-bom":
        text = "\ufeff" + "\r\n".join(
            [header] + _shuffled_with_duplicates(rng) + _DEFECTS) + "\r\n"
        return text, kwargs
    elif name == "short-rows":
        header = "timestamp,note,watts"
        rows = [f"{_stamp(0, s)},x,{s}.5" for s in range(200)]
        rows += [_stamp(0, 210), f"{_stamp(0, 211)},x", "", ",",
                 f"{_stamp(0, 212)},x,1.0,extra,cells", f"{_stamp(0, 213)}"]
    elif name == "repeated-header":
        header = "timestamp,watts,watts"
        rows = [f"{_stamp(0, s)},{-1.0 - s},{s % 7 - 2 if s % 11 else ''}"
                for s in range(200)]
    else:
        raise KeyError(name)
    return "\n".join([header] + rows) + "\n", kwargs


CASES = ["shuffled-duplicates", "defects", "defects-grid", "edge-timestamps",
         "edge-watts", "crlf-bom", "short-rows", "repeated-header"]


@pytest.mark.parametrize("name", CASES)
def test_parser_equals_row_by_row_reference(tmp_path, name):
    text, kwargs = _case(name, np.random.default_rng(CASES.index(name)))
    path = tmp_path / "meter.csv"
    path.write_bytes(text.encode("utf-8"))
    spec = MeterCsvSpec(path, **kwargs)
    times, watts, drops = reference_parse(spec)
    parsed = parse_meter_csv(spec)
    assert parsed.records.times.dtype == np.int64
    assert parsed.records.times.tolist() == times
    assert (parsed.records.watts.view(np.int64).tolist()
            == np.array(watts, dtype=np.float64).view(np.int64).tolist())
    got = parsed.drops
    assert (got.bad_timestamps, got.blank_watts, got.implausible_watts,
            got.negative_watts, got.duplicates) == drops
    assert times and sum(drops) > 0  # every case keeps and drops rows


def test_majority_bad_raises_like_the_reference(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text("timestamp,watts\n" + "".join(
        f"{t},1.0\n" for t in ["2023-03-01 00:00", "2023-03-01 00:03",
                               "2023-02-30 00:00", "2023-03-01 00:05",
                               "2023-03-01 25:00"]))
    spec = MeterCsvSpec(path)
    message = (f"{path}: 3 of 5 timestamps unreadable; "
               "is the format string '%Y-%m-%d %H:%M' right?")
    with raises_exactly(DataError, message):
        reference_parse(spec)
    with raises_exactly(DataError, message):
        parse_meter_csv(spec)


# Plausible range of each weather column, as the README states them.
_WEATHER_RANGES = {
    "max_temp_c": (-20.0, 55.0), "rainfall_mm": (0.0, math.inf),
    "temp_9am_c": (-20.0, 55.0), "rh_9am_pct": (0.0, 100.0),
    "temp_3pm_c": (-20.0, 55.0), "rh_3pm_pct": (0.0, 100.0),
}


def reference_weather(directory):
    """(date ordinals, rows of values with None for missing, drops) of a
    weather directory, one row at a time."""
    bad_dates = duplicates = misfiled = invalid = 0
    days = {}
    for path in sorted(directory.iterdir()):
        name = path.name
        if not (len(name) == 10 and name.endswith(".csv")
                and name[:6].isdigit() and 1 <= int(name[4:6]) <= 12):
            continue
        month = (int(name[:4]), int(name[4:6]))
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            try:
                date = dt.date.fromisoformat((row.get("date") or "").strip())
            except ValueError:
                bad_dates += 1
                continue
            if (date.year, date.month) != month:
                misfiled += 1
                continue
            if date in days:
                duplicates += 1
                continue
            values = []
            for column, (low, high) in _WEATHER_RANGES.items():
                text = (row.get(column) or "").strip()
                value = None
                if text:
                    try:
                        value = float(text)
                    except ValueError:
                        pass
                    if value is None or not (math.isfinite(value)
                                             and low <= value <= high):
                        invalid += 1
                        value = None
                values.append(value)
            days[date] = values
    dates = sorted(days)
    return ([d.toordinal() for d in dates], [days[d] for d in dates],
            (bad_dates, duplicates, misfiled, invalid))


_WEATHER_HEADER = "date," + ",".join(WEATHER_CSV_COLUMNS)


def _weather_row(rng, date: dt.date) -> list[str]:
    values = rng.uniform([-5, 0, -5, 10, -5, 10], [40, 30, 40, 100, 40, 100])
    values[1] *= rng.random() < 0.5  # a dry day half the time
    return [date.isoformat()] + list(map(repr, values.tolist()))


def _month_rows(rng, year, month, days):
    return [_weather_row(rng, dt.date(year, month, d)) for d in range(1, days + 1)]


_BAD_CELLS = ["", "oops", "nan", "NaN", "inf", "-inf", "+Infinity", "1e400",
              "150", "-0.5", "55.0001", "-20.0001", "0x10", "1;5"]
_ODD_CELLS = [" 12.5 ", "1_0", "-0.0", "55.0", "-20.0", "100", "0", "1e1",
              "\u0661\u0662", "5.", ".5"]
_ODD_DATES = ["2023-02-30", "", "not a date", "2023-3-7", "2023-03-07T00:00",
              "20230305", "2023-W10-1", " 2023-03-08 ", "2023-03-32",
              "2022-03-09", "2023-04-02", "0000-03-01"]


def _weather_case(name: str, rng) -> dict[str, str]:
    """File name -> text of one named weather directory."""
    march, april = _month_rows(rng, 2023, 3, 31), _month_rows(rng, 2023, 4, 20)
    header = _WEATHER_HEADER
    extra = {}
    if name == "cells":
        for i, text in enumerate(_BAD_CELLS + _ODD_CELLS):
            march[i][1 + i % 6] = text
    elif name == "rows":
        march += [list(march[4]), [march[9][0]] + april[3][1:]]     # duplicates
        march += [[date] + march[0][1:] for date in _ODD_DATES]    # dates
        april += [list(march[2]), list(april[0])]                  # misfiled, dup
        april.insert(0, ["2023-04-05"] + april[1][1:])             # first wins
        extra = {"202313.csv": "\n".join([header, ",".join(march[0])]) + "\n",
                 "202300.csv": header + "\n", "notes.csv": "a,b\n1,2\n"}
    elif name == "crlf-bom":
        march[3][2], march[6][4] = "inf", ""
        march.append(list(march[1]))
        files = {label: "\ufeff" + "\r\n".join(
                     [header] + [",".join(r) for r in rows]) + "\r\n"
                 for label, rows in (("202303.csv", march), ("202304.csv", april))}
        return files
    elif name == "short-rows":
        march = [r[:1 + i % 7] for i, r in enumerate(march)]
        march += [[""], [], ["2023-04-01"]]  # [] is a blank line
    elif name == "repeated-header":
        header = _WEATHER_HEADER + ",max_temp_c,date"
        march = [r + [repr(rng.uniform(-30, 60)), r[0] if i % 5 else "bad"]
                 for i, r in enumerate(march)]
        april = [r + ["", r[0]] for r in april]
    elif name == "extra-columns":
        order = [3, 0, 6, 1, 5, 2, 4]
        header = "station," + ",".join(
            _WEATHER_HEADER.split(",")[i] for i in order) + ",sunshine_h"
        march[5][4] = "-1"
        march = [["X1"] + [r[i] for i in order] + ["9.9"] for r in march]
        april = [["X1"] + [r[i] for i in order] + [""] for r in april]
    elif name == "nul-cells":
        for i, text in enumerate(["\x00", "12\x00", "\x0012", "1\x002"]):
            march[2 * i + 1][1 + i] = text
    else:
        raise KeyError(name)
    files = {label: "\n".join([header] + [",".join(r) for r in rows]) + "\n"
             for label, rows in (("202303.csv", march), ("202304.csv", april))}
    files.update(extra)
    return files


WEATHER_CASES = ["cells", "rows", "crlf-bom", "short-rows", "repeated-header",
                 "extra-columns", "nul-cells"]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.skipif(
        name == "nul-cells" and sys.version_info < (3, 11),
        reason="the csv module reads NUL characters from Python 3.11"))
    for name in WEATHER_CASES])
def test_weather_loader_equals_row_by_row_reference(tmp_path, name):
    files = _weather_case(name, np.random.default_rng(100 + WEATHER_CASES.index(name)))
    for file_name, text in files.items():
        (tmp_path / file_name).write_bytes(text.encode("utf-8"))
    dates, rows, drops = reference_weather(tmp_path)
    weather, got, n_files = load_weather_dir(tmp_path)
    assert n_files == 2
    assert weather.dates.dtype == np.int64
    assert weather.dates.tolist() == dates
    missing = [[v is None for v in row] for row in rows]
    assert np.isnan(weather.values).tolist() == missing
    expected = np.array([[0.0 if v is None else v for v in row] for row in rows])
    got_bits = np.where(np.isnan(weather.values), 0.0, weather.values)
    assert got_bits.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert (got.bad_dates, got.duplicates, got.misfiled,
            got.invalid_cells) == drops
    assert dates and sum(drops) + sum(map(sum, missing)) > 0


# Files of several ROW_CHUNK blocks, with each defect placed where one
# block ends and the next begins. Row numbers count data rows: blank
# lines are no rows, so block k holds rows [k * ROW_CHUNK, (k + 1) * ROW_CHUNK).
_BLOCKS = 3


def _chunked_meter_lines(rng) -> list[str]:
    n = _BLOCKS * ROW_CHUNK + 50
    lines = [f"{_stamp(0, i)},{rng.uniform(0, 3000)!r}" for i in range(n)]
    # A duplicate: its first copy ends block 0, its repeat starts block 1.
    lines[ROW_CHUNK] = f"{_stamp(0, ROW_CHUNK - 1)},{rng.uniform(0, 3000)!r}"
    # A run of bad timestamps and blank watts across the edge of blocks 1, 2.
    for i in range(2 * ROW_CHUNK - 6, 2 * ROW_CHUNK + 6):
        stamp, watts = lines[i].split(",")
        lines[i] = f"2023-02-30 00:00,{watts}" if i % 2 else f"{stamp}, "
    # A short row only the last block holds: its watts cell reads empty.
    lines[_BLOCKS * ROW_CHUNK + 7] = _stamp(0, _BLOCKS * ROW_CHUNK + 7)
    # Blank lines at the edge of blocks 2 and 3; blank lines are no rows.
    edge = 3 * ROW_CHUNK
    return lines[:edge] + ["", "", ""] + lines[edge:] + [""]


@pytest.mark.parametrize("bom", [False, True])
def test_parser_equals_reference_across_row_chunks(tmp_path, bom):
    lines = _chunked_meter_lines(np.random.default_rng(7))
    path = tmp_path / "meter.csv"
    text = "\r\n".join(["timestamp,watts"] + lines) + "\r\n"
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    spec = MeterCsvSpec(path)
    times, watts, drops = reference_parse(spec)
    parsed = parse_meter_csv(spec)
    assert parsed.records.times.tolist() == times
    assert (parsed.records.watts.view(np.int64).tolist()
            == np.array(watts, dtype=np.float64).view(np.int64).tolist())
    got = parsed.drops
    assert (got.bad_timestamps, got.blank_watts, got.implausible_watts,
            got.negative_watts, got.duplicates) == drops == (6, 7, 0, 0, 1)
    # The duplicate keeps its first copy, the one at the end of block 0.
    first = lines[ROW_CHUNK - 1].split(",")[1]
    assert float(first) in watts


def test_majority_bad_is_decided_after_the_last_chunk(tmp_path):
    # Block 0 is clean; the bad rows fill block 1 and start block 2.
    clean = [f"{_stamp(0, i)},1.0" for i in range(ROW_CHUNK)]
    bad = ["2023-02-30 00:00,1.0"] * (ROW_CHUNK + 1)
    path = tmp_path / "meter.csv"
    path.write_text("\n".join(["timestamp,watts"] + clean + bad) + "\n")
    spec = MeterCsvSpec(path)
    message = (f"{path}: {ROW_CHUNK + 1} of {2 * ROW_CHUNK + 1} timestamps "
               "unreadable; is the format string '%Y-%m-%d %H:%M' right?")
    with raises_exactly(DataError, message):
        reference_parse(spec)
    with raises_exactly(DataError, message):
        parse_meter_csv(spec)


def _chunked_weather_rows(rng) -> list[list[str]]:
    """One March file of several blocks: its 31 days among rows that add
    no day (misfiled, unreadable and repeated dates), with defects at the
    block edges."""
    def day(d):
        return _weather_row(rng, dt.date(2023, 3, d))

    fillers = ["2023-04-01", "not a date", "2023-03-01"]
    rows = [[fillers[i % 3]] + day(1)[1:] for i in range(_BLOCKS * ROW_CHUNK + 40)]
    rows[0] = day(1)
    for d in range(2, 28):
        rows[400 * d] = day(d)
    # A new day ends block 0 and its repeat starts block 1: the first wins.
    rows[ROW_CHUNK - 1], rows[ROW_CHUNK] = day(28), day(28)
    # Across the edge of blocks 1 and 2, bad dates alternate with new days
    # whose cells are blank, unparseable or implausible.
    for i in (2 * ROW_CHUNK - 3, 2 * ROW_CHUNK - 1, 2 * ROW_CHUNK + 1):
        rows[i][0] = "2023-02-30"
    rows[2 * ROW_CHUNK - 2] = day(29)
    rows[2 * ROW_CHUNK - 2][1:4] = ["", "oops", "500"]
    rows[2 * ROW_CHUNK] = day(30)
    rows[2 * ROW_CHUNK][4:7] = ["", "-1", ""]
    # A short row only the last block holds: its missing cells read empty.
    rows[_BLOCKS * ROW_CHUNK + 3] = ["2023-03-31", "20.5"]
    # Blank lines at the edge of blocks 2 and 3.
    edge = 3 * ROW_CHUNK
    return rows[:edge] + [[], []] + rows[edge:]


@pytest.mark.parametrize("bom", [False, True])
def test_weather_loader_equals_reference_across_row_chunks(tmp_path, bom):
    rng = np.random.default_rng(8)
    march = _chunked_weather_rows(rng)
    april = _month_rows(rng, 2023, 4, 20)
    for name, rows in (("202303.csv", march), ("202304.csv", april)):
        text = "\n".join([_WEATHER_HEADER] + [",".join(r) for r in rows]) + "\n"
        (tmp_path / name).write_bytes(
            (("\ufeff" if bom else "") + text).encode("utf-8"))
    dates, rows, drops = reference_weather(tmp_path)
    weather, got, n_files = load_weather_dir(tmp_path)
    assert n_files == 2
    assert weather.dates.tolist() == dates
    missing = [[v is None for v in row] for row in rows]
    assert np.isnan(weather.values).tolist() == missing
    expected = np.array([[0.0 if v is None else v for v in row] for row in rows])
    got_bits = np.where(np.isnan(weather.values), 0.0, weather.values)
    assert got_bits.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert (got.bad_dates, got.duplicates, got.misfiled,
            got.invalid_cells) == drops
    assert len(dates) == 51 and all(drops)


# The seam between the two reader paths. Blocks of ROW_CHUNK lines are
# split at commas while they hold nothing the csv module must decide;
# from the first block that does, the rest of the file is read by csv.
# Each case below puts one such thing in block 1 of a three-block file,
# so block 0 is split and the rest goes through csv, and both files
# carry non-ASCII cells on either side of the seam.
_SEAM_ROWS = 2 * ROW_CHUNK + 100
_SEAM_AT = ROW_CHUNK + 10
_LIMIT = csv.field_size_limit()
SEAM_CASES = ["quoted", "quoted-newline-at-edge", "lone-cr", "blank-line",
              "short-row", "long-row", "short-and-long-rows", "over-field-limit",
              "long-line-short-cells", "non-ascii-only"]


def _seam_defect(lines: list[str], name: str) -> list[str]:
    """``lines`` (data lines, no line ends) with case ``name`` put in."""
    lines = list(lines)
    at = _SEAM_AT
    first, *rest = lines[at].split(",")
    if name == "quoted":
        lines[at] = ",".join(f'"{cell}"' for cell in lines[at].split(","))
        lines[at + 1] = ",".join(lines[at + 1].split(",")[:-1] + ['"4,25"'])
    elif name == "quoted-newline-at-edge":
        # The quote opens on block 1's last line and closes in block 2.
        edge = 2 * ROW_CHUNK - 1
        lines[edge] = ",".join(lines[edge].split(",")[:-1] + ['"12'])
        lines[edge + 1] = '5"'
    elif name == "lone-cr":
        lines[at:at + 2] = [lines[at] + "\r" + lines[at + 1]]
    elif name == "blank-line":
        lines.insert(at, "")
    elif name == "short-row":
        lines[at] = first
    elif name == "long-row":
        lines[at] += ",extra,cells"
    elif name == "short-and-long-rows":
        # As many commas in all as fields - 1 per line, but not per line.
        lines[at + 1] += ",x" * lines[at].count(",")
        lines[at] = first
    elif name == "over-field-limit":
        lines[at] = ",".join([first, "1" * (_LIMIT + 1)] + rest[1:])
    elif name == "long-line-short-cells":
        half = "1" * (_LIMIT // 2 + 10)
        lines[at] = ",".join([" " * (_LIMIT // 2) + first, half] + rest[1:])
    elif name != "non-ascii-only":
        raise KeyError(name)
    return lines


def _seam_text(lines: list[str], header: str, newline: str, bom: bool) -> bytes:
    text = newline.join([header] + lines) + newline
    return (("\ufeff" if bom else "") + text).encode("utf-8")


def _seam_meter_lines(rng) -> list[str]:
    lines = [f"{_stamp(0, i)},{rng.uniform(0, 3000)!r}" for i in range(_SEAM_ROWS)]
    for i in (5, _SEAM_AT + 20):
        lines[i] = f"{_stamp(0, i)},١٢"  # Arabic-Indic digits: 12.0
        lines[i + 1] = f"été,{i}.5"
        lines[i + 2] = f"{_stamp(0, i + 2)},été"
    return lines


@pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("name", SEAM_CASES)
def test_meter_parser_equals_reference_across_the_reader_seam(
        tmp_path, monkeypatch, name, newline, bom):
    lines = _seam_defect(_seam_meter_lines(np.random.default_rng(9)), name)
    path = tmp_path / "meter.csv"
    path.write_bytes(_seam_text(lines, "timestamp,watts", newline, bom))
    spec = MeterCsvSpec(path)
    split = spy_on_split_blocks(monkeypatch)
    if name == "over-field-limit":
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reference_parse(spec)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                           "unreadable CSV: field larger than field limit"):
            parse_meter_csv(spec)
        assert split == [True, False]
        return
    times, watts, drops = reference_parse(spec)
    parsed = parse_meter_csv(spec)
    assert split == ([True] * 3 if name == "non-ascii-only" else [True, False])
    assert parsed.records.times.tolist() == times
    assert (parsed.records.watts.view(np.int64).tolist()
            == np.array(watts, dtype=np.float64).view(np.int64).tolist())
    got = parsed.drops
    assert (got.bad_timestamps, got.blank_watts, got.implausible_watts,
            got.negative_watts, got.duplicates) == drops
    assert times and min(drops[:2]) >= 2  # the non-ASCII time and watts


def _seam_weather_lines(rng) -> list[str]:
    """One March file of _SEAM_ROWS rows: its 31 days among rows that add
    no day (misfiled, unreadable and repeated dates)."""
    fillers = ["2023-04-01", "not a date", "2023-03-01"]
    rows = [[fillers[i % 3]] + _weather_row(rng, dt.date(2023, 3, 1))[1:]
            for i in range(_SEAM_ROWS)]
    for d in range(1, 32):
        rows[(d - 1) * 260] = _weather_row(rng, dt.date(2023, 3, d))
    for i in (1, _SEAM_AT + 20):
        rows[i][0] = "2023-03-0٥"  # an Arabic-Indic 5
    for day_row in (260, 260 * 17):  # either side of _SEAM_AT
        rows[day_row][1:3] = ["١٢", "été"]
    return [",".join(r) for r in rows]


@pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("name", SEAM_CASES)
def test_weather_loader_equals_reference_across_the_reader_seam(
        tmp_path, monkeypatch, name, newline, bom):
    rng = np.random.default_rng(10)
    march = _seam_defect(_seam_weather_lines(rng), name)
    april = [",".join(r) for r in _month_rows(rng, 2023, 4, 20)]
    for file_name, lines in (("202303.csv", march), ("202304.csv", april)):
        (tmp_path / file_name).write_bytes(
            _seam_text(lines, _WEATHER_HEADER, newline, bom))
    split = spy_on_split_blocks(monkeypatch)
    if name == "over-field-limit":
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reference_weather(tmp_path)
        with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))}"
                           "/202303.csv: unreadable CSV: field larger than"):
            load_weather_dir(tmp_path)
        assert split == [True, False]
        return
    dates, rows, drops = reference_weather(tmp_path)
    weather, got, n_files = load_weather_dir(tmp_path)
    # March, then April's one block.
    assert split == ([True] * 4 if name == "non-ascii-only"
                     else [True, False, True])
    assert n_files == 2
    assert weather.dates.tolist() == dates
    missing = [[v is None for v in row] for row in rows]
    assert np.isnan(weather.values).tolist() == missing
    expected = np.array([[0.0 if v is None else v for v in row] for row in rows])
    got_bits = np.where(np.isnan(weather.values), 0.0, weather.values)
    assert got_bits.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert (got.bad_dates, got.duplicates, got.misfiled,
            got.invalid_cells) == drops
    assert len(dates) == 51 and all(drops)
