"""Tests for the core vocabulary: slot indices, seasons, meter records,
weather, frames, and the one way gridcast writes a file."""
import ast
import datetime as dt
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridcast
from gridcast.errors import ShapeError
from gridcast.types import (
    BAD_TIME,
    ROW_CHUNK,
    SEASONS,
    SLOTS_PER_DAY,
    WEATHER_FIELDS,
    MergedFrame,
    MeterRecords,
    Season,
    Weather,
    atomic_write,
    csv_line,
    format_timestamps,
    parse_timestamps,
    season_codes,
    time_decimal,
    weather_plausible,
    write_csv,
    write_json,
    write_row_files,
)
from helpers import MILD_DAY, frame_of, slot

SRC = Path(gridcast.__file__).parent


def tp(y, m, d, hh, mm):
    return slot(dt.date(y, m, d), hh, mm)


def season_of(t):
    return SEASONS[int(season_codes(np.array([t]))[0])]


class TestTimePoint:
    def test_ordering_is_chronological(self):
        a = tp(2023, 3, 1, 23, 55)
        b = tp(2023, 3, 2, 0, 0)
        c = tp(2023, 3, 2, 0, 5)
        assert a < b < c

    def test_ordering_is_total_and_sort_is_stable(self):
        # Build every slot of one day twice, tag the copies, and check that
        # sorted() keeps ties in insertion order.
        points = []
        for rep in range(2):
            for hour in range(24):
                for minute in range(0, 60, 5):
                    points.append((tp(2023, 6, 1, hour, minute), rep))
        ordered = sorted(points, key=lambda pair: pair[0])
        for i in range(0, len(ordered), 2):
            assert ordered[i][1] == 0 and ordered[i + 1][1] == 1
            assert ordered[i][0] == ordered[i + 1][0]

    def test_parse_round_trip(self):
        t = parse_timestamps(["2023-03-01 19:15"])
        assert t.tolist() == [tp(2023, 3, 1, 19, 15)]
        assert format_timestamps(t) == ["2023-03-01 19:15"]

    def test_slot_index(self):
        assert tp(2023, 1, 1, 0, 0) % SLOTS_PER_DAY == 0
        assert tp(2023, 1, 1, 23, 55) % SLOTS_PER_DAY == 287
        assert tp(2023, 1, 1, 7, 30) % SLOTS_PER_DAY == 90
        assert tp(2023, 1, 1, 7, 30) // SLOTS_PER_DAY == dt.date(2023, 1, 1).toordinal()


class TestTimeDecimal:
    def test_examples(self):
        assert time_decimal(tp(2023, 1, 1, 0, 0)) == 0.0
        assert time_decimal(tp(2023, 1, 1, 19, 15)) == 19.25
        assert abs(time_decimal(tp(2023, 1, 1, 23, 55)) - 23.9167) < 1e-4

    def test_range_over_all_slots(self):
        values = time_decimal(
            [tp(2023, 1, 1, h, m) for h in range(24) for m in range(0, 60, 5)]
        ).tolist()
        assert min(values) == 0.0
        assert max(values) < 24.0
        assert values == sorted(values)


class TestSeason:
    def test_examples(self):
        assert season_of(tp(2024, 1, 15, 0, 0)) is Season.DJF
        assert season_of(tp(2023, 7, 1, 0, 0)) is Season.JJA
        assert season_of(tp(2023, 12, 31, 0, 0)) is Season.DJF

    def test_every_month_maps_to_exactly_one_season(self):
        counts = {season: 0 for season in Season}
        for month in range(1, 13):
            counts[season_of(tp(2023, month, 1, 0, 0))] += 1
        assert all(v == 3 for v in counts.values())

    def test_southern_hemisphere_orientation(self):
        # June/July/August are winter (JJA), not summer.
        for month in (6, 7, 8):
            assert season_of(tp(2023, month, 10, 12, 0)) is Season.JJA
        for month in (3, 4, 5):
            assert season_of(tp(2023, month, 10, 12, 0)) is Season.MAM
        for month in (9, 10, 11):
            assert season_of(tp(2023, month, 10, 12, 0)) is Season.SON


class TestMeterRecord:
    def test_rejects_non_finite_watts(self):
        t = [tp(2023, 3, 1, 0, 0)]
        with pytest.raises(ShapeError):
            MeterRecords(t, [float("nan")])
        with pytest.raises(ShapeError):
            MeterRecords(t, [float("inf")])

    def test_negative_watts_representable(self):
        # Net-grid streams may export; the records themselves allow it.
        r = MeterRecords([tp(2023, 3, 1, 12, 0)], [-200.0])
        assert r.watts.tolist() == [-200.0]


class TestWeather:
    def test_nan_marks_missing(self):
        day = dt.date(2023, 3, 1).toordinal()
        weather = Weather([day], [[21.0] + [np.nan] * 5])
        missing = [WEATHER_FIELDS[j] for j in np.flatnonzero(np.isnan(weather.values[0]))]
        assert missing == ["rainfall", "temp_9am", "rh_9am", "temp_3pm", "rh_3pm"]

    def test_columns_are_int64_and_float64(self):
        weather = Weather([738945, 738946], [[21, 0, 15, 70, 20, 50]] * 2)
        assert len(weather) == 2
        assert weather.dates.dtype == np.int64
        assert weather.values.dtype == np.float64
        assert weather.values[1].tolist() == [21.0, 0.0, 15.0, 70.0, 20.0, 50.0]
        with pytest.raises(ShapeError, match="shape"):
            Weather([738945], [[21.0, 0.0, 15.0]])

    def test_validation(self):
        day = dt.date(2023, 3, 1).toordinal()
        for field, value in (("rh_9am", 150.0), ("rainfall", -1.0),
                             ("max_temp", 90.0), ("rainfall", np.inf)):
            values = np.full((1, len(WEATHER_FIELDS)), np.nan)
            values[0, WEATHER_FIELDS.index(field)] = value
            with pytest.raises(ShapeError, match="plausible"):
                Weather([day], values)

    def test_plausible_ranges(self):
        values = np.array([[-20.0, 0.0, 55.0, 0.0, -20.0, 100.0],
                           [-20.5, -0.1, 55.5, -1.0, np.nan, 100.5],
                           [np.inf, np.inf, -np.inf, np.inf, 1e9, np.nan]])
        assert weather_plausible(values).tolist() == [[True] * 6, [False] * 6,
                                                      [False] * 6]
        assert weather_plausible([[0.0, 1e6, 0.0, 50.0, 0.0, 50.0]]).all()


def _small_frame(n=6):
    times = tp(2023, 3, 1, 0, 0) + np.arange(n)
    return frame_of(times, [400.0 + i for i in range(n)])


class TestMergedFrame:
    def test_validate_accepts_well_formed_frame(self):
        _small_frame().validate()

    def test_validate_rejects_unsorted_times(self):
        frame = _small_frame()
        times = frame.times.copy()
        times[[0, 1]] = times[[1, 0]]
        bad = MergedFrame(times, frame.consumption, frame.weather)
        with pytest.raises(ShapeError, match="strictly increasing"):
            bad.validate()

    def test_validate_rejects_duplicate_times(self):
        frame = _small_frame()
        times = frame.times.copy()
        times[1] = times[0]
        bad = MergedFrame(times, frame.consumption, frame.weather)
        with pytest.raises(ShapeError, match="strictly increasing"):
            bad.validate()

    def test_validate_rejects_a_row_whose_date_has_no_weather_day(self):
        times = tp(2023, 3, 1, 23, 50) + np.arange(4)  # two rows on March 2
        march_first = Weather([dt.date(2023, 3, 1).toordinal()], [MILD_DAY])
        bad = MergedFrame(times, np.full(4, 400.0), march_first)
        with pytest.raises(ShapeError, match="no weather for 2023-03-02"):
            bad.validate()

    def test_validate_rejects_missing_weather(self):
        frame = frame_of(tp(2023, 3, 1, 12, 0) + np.arange(3) * SLOTS_PER_DAY,
                         [400.0] * 3)
        frame.weather.values[1, 3] = np.nan
        with pytest.raises(ShapeError,
                           match="weather for 2023-03-02 still has missing"):
            frame.validate()

    def test_row_weather_is_the_day_of_each_row(self):
        times = np.array([tp(2023, 3, 1, 0, 0), tp(2023, 3, 1, 23, 55),
                          tp(2023, 3, 3, 12, 0)])
        values = [[10.0 + d, 0.0, 5.0, 50.0, 9.0, 40.0] for d in range(3)]
        frame = MergedFrame(times, np.ones(3), Weather(
            [dt.date(2023, 3, d).toordinal() for d in (1, 2, 3)], values))
        assert frame.row_weather().tolist() == [values[0], values[0], values[2]]
        assert frame.row_weather(slice(1, 3)).tolist() == [values[0], values[2]]


class TestWriters:
    def test_atomic_write_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as handle:
            handle.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_bytes() == b"new\n"
        with atomic_write(tmp_path / "b.bin", "wb") as handle:
            handle.write(b"\x00\r\n")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]

    def test_atomic_write_failure_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(OSError, match="disk full"):
            with atomic_write(path) as handle:
                handle.write("half")
                raise OSError("disk full")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_csv_cells_blank_a_missing_value_and_repr_a_float(self):
        # numpy 2's repr of np.float64(0.1) is "np.float64(0.1)".
        assert csv_line([None, np.nan, np.float64(0.1), 0.1 + 0.2, 7,
                         np.int64(-3), "DJF", 1e-17, np.float32(0.5)]) == (
            ",,0.1,0.30000000000000004,7,-3,DJF,1e-17,0.5\n")

    def test_text_formats(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [0.1, None], "a": 1})
        assert (tmp_path / "a.json").read_bytes() == (
            b'{\n  "a": 1,\n  "b": [\n    0.1,\n    null\n  ]\n}\n')
        write_csv(tmp_path / "a.csv", ("", "x"), [("r", np.nan), ("s", 2.0)])
        assert (tmp_path / "a.csv").read_bytes() == b",x\nr,\ns,2.0\n"

    def test_row_files_share_their_prefix_columns(self, tmp_path):
        times = tp(2023, 3, 1, 0, 0) + np.arange(3)
        shared = np.array([1.5, 2.0, 1e-17])
        write_row_files({tmp_path / "a.csv": np.array([0.1, 2.0, -3.0]),
                         tmp_path / "b.csv": np.array([4.0, 5.0, 6.25])},
                        "timestamp,actual,predicted", times, shared=[shared])
        assert (tmp_path / "b.csv").read_text().splitlines() == [
            "timestamp,actual,predicted", "2023-03-01 00:00,1.5,4.0",
            "2023-03-01 00:05,2.0,5.0", "2023-03-01 00:10,1e-17,6.25"]

    def test_row_files_are_written_in_row_chunks(self, tmp_path):
        # A whole file's text at once took 5.7 MiB for 8,640 rows and
        # 45.3 MiB for 69,120; one ROW_CHUNK block at a time, the peak
        # does not grow with the rows.
        def traced_write(n):
            times = tp(2023, 3, 1, 0, 0) + np.arange(n)
            shared = np.linspace(0.1, 5000.3, n)
            own = {tmp_path / f"{name}-{n}.csv": np.linspace(lo, 7.7, n)
                   for name, lo in (("a", -1.3), ("b", 0.9))}
            tracemalloc.start()
            try:
                write_row_files(own, "timestamp,actual,predicted", times,
                                shared=[shared])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return times, shared, own, peak

        times, shared, own, small = traced_write(2 * ROW_CHUNK + 5)
        *_, large = traced_write(16 * ROW_CHUNK)
        assert large <= 1.5 * small
        # Rows at the block edges are written as one whole-array pass would.
        for path, column in own.items():
            expected = [f"{t},{a!r},{p!r}" for t, a, p in zip(
                format_timestamps(times), shared.tolist(), column.tolist())]
            assert (path.read_bytes().decode().split("\n")
                    == ["timestamp,actual,predicted"] + expected + [""])


def _write_calls_outside_atomic_write(tree) -> list[str]:
    """Calls in a module's tree that write a file without atomic_write:
    a write-mode open, write_text, write_bytes, or a numpy save whose
    first argument is not the handle of an enclosing atomic_write."""
    handles, allowed = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "atomic_write":
            allowed |= {id(n) for n in ast.walk(node)}
        if isinstance(node, ast.With):
            for item in node.items:
                call = item.context_expr
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "atomic_write"
                        and isinstance(item.optional_vars, ast.Name)):
                    handles |= {(id(n), item.optional_vars.id)
                                for stmt in node.body for n in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            # A mode that is not a literal may be a write mode.
            writes = any(not isinstance(getattr(m, "value", None), str)
                         or set(m.value) & set("wax+") for m in modes)
        elif name in ("save", "savez", "savez_compressed", "tofile"):
            first = node.args[0] if node.args else None
            writes = not (isinstance(first, ast.Name)
                          and (id(node), first.id) in handles)
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            found.append((node.lineno, name))
    return [f"{name} at line {line}" for line, name in sorted(found)]


def test_every_file_write_in_src_goes_through_atomic_write():
    # A file written in place is half-written when the write fails, and
    # a run directory holding one no longer describes one run. JSON and
    # CSV layout is decided once, by types.write_json and types.write_csv,
    # and nn/serialize.py writes the one binary format: no other module
    # calls atomic_write, and only ingest, the reader, imports csv.
    outside, callers, csv_importers = {}, set(), set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _write_calls_outside_atomic_write(tree)
        if calls:
            outside[name] = calls
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "atomic_write" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.add(name)
            if (isinstance(node, ast.Import)
                    and "csv" in [a.name for a in node.names]
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                csv_importers.add(name)
    assert outside == {}
    assert callers == {"types.py", "nn/serialize.py"}
    assert csv_importers == {"ingest.py"}


def test_the_write_scan_catches_each_kind_of_write():
    source = """
def f(path, arrays):
    open(path, "w").write("x")
    open(path, mode="ab")
    open(path, some_mode)
    path.write_text("x")
    path.write_bytes(b"x")
    np.savez(path, **arrays)
    with atomic_write(path, "wb") as handle:
        np.savez(handle, **arrays)
        np.savez(path, **arrays)
    with open(path) as handle:
        np.savez(handle, **arrays)
    open(path, newline="")
"""
    assert _write_calls_outside_atomic_write(ast.parse(source)) == [
        f"{name} at line {line}" for name, line in (
            ("open", 3), ("open", 4), ("open", 5), ("write_text", 6),
            ("write_bytes", 7), ("savez", 8), ("savez", 11), ("savez", 13))]


def _boundary_slots():
    """Every slot of the days around month, year and leap-day boundaries."""
    days = []
    for year in (1, 999, 1000, 1900, 1999, 2000, 2023, 2024, 2100, 9999):
        for month in range(1, 13):
            first = dt.date(year, month, 1)
            days += [first, first + dt.timedelta(days=27)]
            if first > dt.date.min:
                days.append(first - dt.timedelta(days=1))
        if year < 9999:
            days.append(dt.date(year, 12, 31))
    days += [dt.date(2024, 2, 29), dt.date(2000, 2, 29), dt.date(9999, 12, 31)]
    return np.array(sorted({d.toordinal() * SLOTS_PER_DAY + s
                            for d in days for s in range(SLOTS_PER_DAY)}))


class TestFormatTimestamps:
    def test_equals_strftime_across_boundaries(self):
        times = _boundary_slots()
        expected = [
            (dt.datetime.combine(dt.date.fromordinal(int(t) // SLOTS_PER_DAY),
                                 dt.time())
             + dt.timedelta(minutes=5 * (int(t) % SLOTS_PER_DAY))
             ).strftime("%Y-%m-%d %H:%M")
            for t in times
        ]
        got = format_timestamps(times)
        # strftime leaves years below 1000 unpadded on glibc; the formatter
        # always writes four digits, so compare those years zero-padded.
        assert got == [e if len(e) == 16 else e.zfill(16) for e in expected]
        assert all(len(g) == 16 for g in got)

    def test_parse_inverts_format(self):
        times = _boundary_slots()
        assert np.array_equal(parse_timestamps(format_timestamps(times)), times)

    def test_unreadable_texts_are_marked(self):
        texts = ["2023-02-29 10:00", "2023-03-01 10:03", "", "2023-03-01 10:05"]
        assert parse_timestamps(texts).tolist() == [
            BAD_TIME, BAD_TIME, BAD_TIME, tp(2023, 3, 1, 10, 5)]
