"""Ingestion tests: parsing, gap filling, merging, frame assembly."""
import datetime as dt

import numpy as np
import pytest

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
from gridcast.ingest import (
    MeterCsvSpec,
    WeatherDrops,
    build_frame,
    interpolate_weather,
    load_weather_dir,
    merge_solar,
    parse_meter_csv,
)
from gridcast.types import (
    WEATHER_FIELDS,
    MeterRecords,
    Weather,
    format_timestamps,
    slot_index,
)

WEATHER_HEADER = ("date,max_temp_c,rainfall_mm,temp_9am_c,rh_9am_pct,"
                  "temp_3pm_c,rh_3pm_pct")


def write_meter(path, rows, header="timestamp,watts"):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def write_weather(path, rows, header=WEATHER_HEADER):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def full_weather_row(date, value=20.0):
    return f"{date},{value},0.0,{value - 5.0},60.0,{value - 1.0},50.0"


def load_month(tmp_path, label, rows, header=WEATHER_HEADER):
    """load_weather_dir over a directory holding one file, label.csv."""
    write_weather(tmp_path / f"{label}.csv", rows, header=header)
    weather, drops, n_files = load_weather_dir(tmp_path)
    assert n_files == 1
    return weather, drops


def column(weather, name):
    return weather.values[:, WEATHER_FIELDS.index(name)]


def ordinal(day, month=3, year=2023):
    return dt.date(year, month, day).toordinal()


class TestParseMeterCsv:
    def test_clean_rows(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", [
            "2023-03-01 00:00,400.0",
            "2023-03-01 00:05,410.5",
            "2023-03-01 00:10,395.0",
        ])
        result = parse_meter_csv(MeterCsvSpec(path))
        assert len(result.records) == 3
        assert result.drops.total == 0
        assert result.records.watts[1] == 410.5
        assert result.records.times[0] == slot_index(dt.date(2023, 3, 1), 0, 0)

    def test_blank_watts_dropped_and_counted(self, tmp_path):
        rows = [f"2023-03-01 {h:02d}:{m:02d},500"
                for h in range(9) for m in range(0, 60, 5)][:100]
        rows[17] = rows[17].split(",")[0] + ","  # blank the watts cell
        path = write_meter(tmp_path / "m.csv", rows)
        result = parse_meter_csv(MeterCsvSpec(path))
        assert len(result.records) == 99
        assert result.drops.blank_watts == 1
        assert result.drops.total == 1

    def test_shuffled_timestamps_come_back_sorted(self, tmp_path):
        stamps = [f"2023-03-01 10:{m:02d}" for m in range(0, 60, 5)]
        shuffled = [stamps[i] for i in (7, 2, 11, 0, 5, 9, 1, 3, 10, 4, 8, 6)]
        path = write_meter(tmp_path / "m.csv",
                           [f"{s},100" for s in shuffled])
        result = parse_meter_csv(MeterCsvSpec(path))
        got = format_timestamps(result.records.times)
        assert got == sorted(stamps)

    def test_duplicate_timestamp_keeps_first(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", [
            "2023-03-01 00:00,111",
            "2023-03-01 00:00,222",
            "2023-03-01 00:05,333",
        ])
        result = parse_meter_csv(MeterCsvSpec(path))
        assert result.records.watts.tolist() == [111.0, 333.0]
        assert result.drops.duplicates == 1

    def test_minority_bad_timestamps_dropped(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", [
            "2023-03-01 00:00,100",
            "not a time,100",
            "2023-03-01 00:07,100",  # off the 5-minute grid
            "2023-03-01 00:10,100",
        ])
        result = parse_meter_csv(MeterCsvSpec(path))
        assert len(result.records) == 2
        assert result.drops.bad_timestamps == 2

    def test_majority_bad_timestamps_is_an_error(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", [
            "01/03/2023 00:00,100",
            "01/03/2023 00:05,100",
            "2023-03-01 00:10,100",
        ])
        with pytest.raises(MalformedTimestampError):
            parse_meter_csv(MeterCsvSpec(path))

    def test_exactly_half_bad_is_tolerated(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", [
            "01/03/2023 00:00,100",
            "2023-03-01 00:10,100",
        ])
        result = parse_meter_csv(MeterCsvSpec(path))
        assert len(result.records) == 1
        assert result.drops.bad_timestamps == 1

    def test_missing_column(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", ["2023-03-01 00:00,1"],
                           header="timestamp,power")
        with pytest.raises(MissingColumnError):
            parse_meter_csv(MeterCsvSpec(path))

    def test_empty_files(self, tmp_path):
        header_only = tmp_path / "h.csv"
        header_only.write_text("timestamp,watts\n")
        with pytest.raises(EmptyFileError):
            parse_meter_csv(MeterCsvSpec(header_only))
        zero_bytes = tmp_path / "z.csv"
        zero_bytes.write_text("")
        with pytest.raises(EmptyFileError):
            parse_meter_csv(MeterCsvSpec(zero_bytes))

    def test_negative_watts_policy_by_stream_kind(self, tmp_path):
        rows = ["2023-03-01 12:00,-250", "2023-03-01 12:05,600"]
        path = write_meter(tmp_path / "m.csv", rows)
        grid = parse_meter_csv(MeterCsvSpec(path, kind="grid"))
        assert grid.records.watts.tolist() == [-250.0, 600.0]
        assert grid.drops.negative_watts == 0
        for kind in ("plain", "solar"):
            result = parse_meter_csv(MeterCsvSpec(path, kind=kind))
            assert result.records.watts.tolist() == [600.0]
            assert result.drops.negative_watts == 1

    def test_non_finite_watts_dropped(self, tmp_path):
        path = write_meter(tmp_path / "m.csv", [
            "2023-03-01 00:00,inf",
            "2023-03-01 00:05,nan",
            "2023-03-01 00:10,750",
        ])
        result = parse_meter_csv(MeterCsvSpec(path))
        assert len(result.records) == 1
        assert result.drops.blank_watts == 2

    def test_custom_columns_and_format(self, tmp_path):
        path = write_meter(tmp_path / "m.csv",
                           ["01/03/2023 00:05,820"],
                           header="when,power_w")
        spec = MeterCsvSpec(path, timestamp_column="when",
                            watts_column="power_w",
                            timestamp_format="%d/%m/%Y %H:%M")
        result = parse_meter_csv(spec)
        assert result.records.watts[0] == 820.0
        assert result.records.times[0] == slot_index(dt.date(2023, 3, 1), 0, 5)

    def test_unknown_stream_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            MeterCsvSpec(tmp_path / "m.csv", kind="wind")


class TestParseWeatherCsv:
    def test_full_month(self, tmp_path):
        rows = [full_weather_row(f"2023-03-{d:02d}") for d in range(1, 32)]
        weather, drops = load_month(tmp_path, "202303", rows)
        assert len(weather) == 31
        assert drops.total_rows == 0
        assert not np.isnan(weather.values).any()

    def test_partial_month(self, tmp_path):
        rows = [full_weather_row(f"2024-04-{d:02d}") for d in range(1, 22)]
        weather, _ = load_month(tmp_path, "202404", rows)
        assert len(weather) == 21
        assert weather.dates[0] == ordinal(1, month=4, year=2024)

    def test_blank_cell_becomes_missing(self, tmp_path):
        rows = ["2023-03-01,21.0,0.0,16.0,60.0,20.0,"]
        weather, drops = load_month(tmp_path, "202303", rows)
        assert np.isnan(weather.values[0]).tolist() == [
            name == "rh_3pm" for name in WEATHER_FIELDS]
        assert drops.invalid_cells == 0

    def test_extra_columns_ignored(self, tmp_path):
        header = WEATHER_HEADER + ",sunshine_hours"
        rows = [full_weather_row("2023-03-01") + ",9.9"]
        weather, _ = load_month(tmp_path, "202303", rows, header=header)
        assert len(weather) == 1

    def test_missing_mapped_column(self, tmp_path):
        header = WEATHER_HEADER.replace("rainfall_mm", "rain")
        rows = ["2023-03-01,21.0,0.0,16.0,60.0,20.0,50.0"]
        with pytest.raises(MissingColumnError):
            load_month(tmp_path, "202303", rows, header=header)

    def test_empty_file(self, tmp_path):
        (tmp_path / "202303.csv").write_text(WEATHER_HEADER + "\n")
        with pytest.raises(EmptyFileError):
            load_weather_dir(tmp_path)

    def test_duplicate_date_keeps_first(self, tmp_path):
        rows = [full_weather_row("2023-03-01", 20.0),
                full_weather_row("2023-03-01", 30.0)]
        weather, drops = load_month(tmp_path, "202303", rows)
        assert len(weather) == 1
        assert column(weather, "max_temp").tolist() == [20.0]
        assert drops.duplicates == 1

    def test_bad_date_dropped(self, tmp_path):
        rows = [full_weather_row("2023-03-01"),
                full_weather_row("March 2nd")]
        weather, drops = load_month(tmp_path, "202303", rows)
        assert len(weather) == 1
        assert drops.bad_dates == 1

    def test_out_of_range_cell_demoted_to_missing(self, tmp_path):
        rows = ["2023-03-01,21.0,0.0,16.0,150.0,20.0,50.0"]  # RH 150%
        weather, drops = load_month(tmp_path, "202303", rows)
        assert np.isnan(column(weather, "rh_9am")).tolist() == [True]
        assert drops.invalid_cells == 1

    def test_non_finite_cell_demoted_to_missing(self, tmp_path):
        rows = ["2023-03-01,21.0,inf,16.0,60.0,20.0,50.0",
                "2023-03-02,nan,0.0,-inf,60.0,20.0,50.0"]
        weather, drops = load_month(tmp_path, "202303", rows)
        assert np.isnan(weather.values).sum() == 3
        assert np.isnan(column(weather, "rainfall")).tolist() == [True, False]
        assert drops.invalid_cells == 3

    def test_misfiled_date_dropped(self, tmp_path):
        rows = [full_weather_row("2023-03-01"),
                full_weather_row("2023-04-01")]
        weather, drops = load_month(tmp_path, "202303", rows)
        assert len(weather) == 1
        assert drops.misfiled == 1

    def test_month_label_validation(self, tmp_path):
        # Only YYYYMM.csv for a real month is a weather file.
        write_weather(tmp_path / "202303.csv", [full_weather_row("2023-03-01")])
        for name in ("202313.csv", "202300.csv", "2023-03.csv", "20230.csv"):
            write_weather(tmp_path / name, ["not,a,weather,file"])
        weather, drops, n_files = load_weather_dir(tmp_path)
        assert n_files == 1
        assert weather.dates.tolist() == [ordinal(1)]
        assert drops == WeatherDrops()


class TestLoadWeatherDir:
    def test_multiple_monthly_files(self, tmp_path):
        write_weather(tmp_path / "202303.csv",
                      [full_weather_row(f"2023-03-{d:02d}") for d in (2, 1)])
        write_weather(tmp_path / "202304.csv",
                      [full_weather_row(f"2023-04-{d:02d}") for d in (1, 2, 3)])
        (tmp_path / "readme.txt").write_text("not a weather file\n")
        weather, drops, n_files = load_weather_dir(tmp_path)
        assert n_files == 2
        assert weather.dates.tolist() == [ordinal(1), ordinal(2), ordinal(1, 4),
                                          ordinal(2, 4), ordinal(3, 4)]
        assert drops == WeatherDrops()

    def test_drops_summed_over_files(self, tmp_path):
        write_weather(tmp_path / "202303.csv",
                      [full_weather_row("2023-03-01"), "2023-03-02,oops,0,1,2,3,4",
                       full_weather_row("2023-04-01")])
        write_weather(tmp_path / "202304.csv",
                      [full_weather_row("2023-04-01"), full_weather_row("2023-04-01"),
                       full_weather_row("soon")])
        weather, drops, _ = load_weather_dir(tmp_path)
        assert len(weather) == 3
        assert drops == WeatherDrops(bad_dates=1, duplicates=1, misfiled=1,
                                     invalid_cells=1)

    def test_no_matching_files(self, tmp_path):
        (tmp_path / "notes.csv").write_text("a,b\n1,2\n")
        with pytest.raises(EmptyInputError):
            load_weather_dir(tmp_path)


def weather_table(*days):
    """Weather of (day of March 2023, max_temp) pairs; the other fields
    are fixed and complete, and a max_temp of None is missing."""
    dates = [ordinal(day) for day, _ in days]
    values = [[np.nan if t is None else t, 0.0, 15.0, 60.0, 19.0, 50.0]
              for _, t in days]
    return Weather(dates, np.array(values).reshape(-1, len(WEATHER_FIELDS)))


class TestInterpolateWeather:
    def test_midpoint_fill(self):
        filled = interpolate_weather(weather_table((1, 20.0), (2, None), (3, 30.0)))
        assert column(filled, "max_temp").tolist() == [20.0, 25.0, 30.0]

    def test_three_day_gap_linear_fill(self):
        filled = interpolate_weather(weather_table(
            (1, 10.0), (2, None), (3, None), (4, 16.0)))
        assert column(filled, "max_temp") == pytest.approx([10.0, 12.0, 14.0, 16.0])

    def test_gap_weighted_by_date_distance(self):
        # A missing day flanked by non-consecutive dates interpolates at
        # the calendar position, not the row position.
        filled = interpolate_weather(weather_table((1, 10.0), (2, None), (4, 16.0)))
        assert column(filled, "max_temp")[1] == pytest.approx(12.0)

    def test_no_missing_is_identity(self):
        weather = weather_table(*[(d, 20.0 + d) for d in (1, 2, 3)])
        filled = interpolate_weather(weather)
        assert np.array_equal(filled.dates, weather.dates)
        assert np.array_equal(filled.values, weather.values)

    def test_idempotent(self):
        weather = weather_table((1, 20.0), (2, None), (3, 30.0))
        weather.values[1, WEATHER_FIELDS.index("rh_3pm")] = np.nan
        once = interpolate_weather(weather)
        assert not np.isnan(once.values).any()
        assert np.isnan(weather.values).sum() == 2  # the input is not filled in place
        twice = interpolate_weather(once)
        assert np.array_equal(twice.values, once.values)

    def test_boundary_missing_raises(self):
        with pytest.raises(BoundaryMissingError, match="start"):
            interpolate_weather(weather_table((1, None), (2, 20.0)))
        with pytest.raises(BoundaryMissingError, match="end"):
            interpolate_weather(weather_table((1, 20.0), (2, None)))

    def test_all_missing_raises(self):
        with pytest.raises(AllMissingError):
            interpolate_weather(weather_table((1, None), (2, None)))

    def test_unsorted_days_rejected(self):
        with pytest.raises(ValueError, match="2023-03-01 follows 2023-03-02"):
            weather_table((2, 20.0), (1, 20.0))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            interpolate_weather(weather_table())


def record(day, hour, minute, watts):
    """One reading, as a (slot index, watts) pair."""
    return slot_index(dt.date(2023, 3, day), hour, minute), watts


def records(*readings):
    """MeterRecords of (slot index, watts) pairs, in the order given."""
    return MeterRecords([t for t, _ in readings], [w for _, w in readings])


class TestMergeSolar:
    def test_export_case(self):
        merged, grid_only, solar_only = merge_solar(
            records(record(1, 12, 0, -200.0)), records(record(1, 12, 0, 1500.0)))
        assert merged.watts[0] == 1300.0
        assert grid_only == 0 and solar_only == 0

    def test_zero_solar_is_identity(self):
        grid = records(*[record(1, 2, m, 400.0 + m) for m in range(0, 30, 5)])
        solar = records(*[record(1, 2, m, 0.0) for m in range(0, 30, 5)])
        merged, _, _ = merge_solar(grid, solar)
        assert merged.watts.tolist() == grid.watts.tolist()

    def test_one_sided_timestamps_counted(self):
        grid = records(record(1, 0, 0, 100.0), record(1, 0, 5, 110.0),
                       record(1, 0, 10, 120.0))
        solar = records(record(1, 0, 5, 50.0), record(1, 0, 15, 60.0),
                        record(1, 0, 20, 70.0))
        merged, grid_only, solar_only = merge_solar(grid, solar)
        assert len(merged) == 1
        assert merged.watts[0] == 160.0
        assert grid_only == 2
        assert solar_only == 2

    def test_empty_intersection_raises(self):
        with pytest.raises(EmptyIntersectionError):
            merge_solar(records(record(1, 0, 0, 1.0)),
                        records(record(2, 0, 0, 1.0)))

    def test_watt_contributions_commute(self):
        a = records(record(1, 5, 0, 321.0))
        b = records(record(1, 5, 0, 123.0))
        assert merge_solar(a, b)[0].watts[0] == merge_solar(b, a)[0].watts[0]

    def test_unsorted_input_rejected(self):
        out_of_order = records(record(1, 0, 5, 1.0), record(1, 0, 0, 1.0))
        with pytest.raises(ValueError):
            merge_solar(out_of_order, records(record(1, 0, 0, 1.0)))


class TestBuildFrame:
    def complete_days(self, *days, max_temp=25.0):
        values = [[max_temp, 0.0, 15.0, 60.0, 22.0, 45.0]] * len(days)
        return Weather([ordinal(d) for d in days],
                       np.array(values).reshape(-1, len(WEATHER_FIELDS)))

    def test_weather_broadcast_to_all_day_rows(self):
        meter = records(*[record(1, s // 12, (s % 12) * 5, 500.0)
                          for s in range(288)])
        frame, dropped_no_weather = build_frame(meter, self.complete_days(1))
        assert len(frame.times) == 288
        assert dropped_no_weather == 0
        assert np.all(frame.weather[:, 0] == 25.0)
        assert np.unique(frame.weather, axis=0).shape[0] == 1

    def test_uncovered_dates_dropped_and_counted(self):
        meter = records(record(1, 10, 0, 100.0), record(1, 10, 5, 110.0),
                        record(2, 10, 0, 120.0))
        frame, dropped_no_weather = build_frame(meter, self.complete_days(1))
        assert len(frame.times) == 2
        assert dropped_no_weather == 1

    def test_disjoint_ranges_raise(self):
        meter = records(record(5, 0, 0, 100.0))
        with pytest.raises(NoOverlapError):
            build_frame(meter, self.complete_days(1))
        with pytest.raises(NoOverlapError):
            build_frame(meter, self.complete_days())

    def test_row_count_bounded_by_meter_count(self):
        meter = records(record(1, 0, 0, 1.0), record(2, 0, 0, 2.0))
        both, _ = build_frame(meter, self.complete_days(1, 2))
        assert len(both.times) == len(meter)
        one, _ = build_frame(meter, self.complete_days(1))
        assert len(one.times) < len(meter)

    def test_incomplete_weather_rejected(self):
        incomplete = Weather([ordinal(1)], [[20.0] + [np.nan] * 5])
        with pytest.raises(ValueError, match="2023-03-01 still has missing"):
            build_frame(records(record(1, 0, 0, 1.0)), incomplete)

    def test_empty_meter_rejected(self):
        with pytest.raises(EmptyInputError):
            build_frame(records(), self.complete_days(1))

    def test_frame_passes_validator(self):
        meter = records(*[record(1, h, m, 200.0 + h)
                          for h in range(3) for m in range(0, 60, 5)])
        frame, _ = build_frame(meter, self.complete_days(1))
        frame.validate()  # raises on any invariant breach
        assert frame.time_decimal[13] == pytest.approx(1 + 5 / 60)
