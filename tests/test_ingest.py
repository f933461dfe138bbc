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
    WeatherCsvSpec,
    build_frame,
    interpolate_weather,
    load_weather_dir,
    merge_solar,
    parse_meter_csv,
    parse_weather_csv,
)
from gridcast.types import MeterRecords, WeatherDay, format_timestamps, slot_index

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
        path = write_weather(tmp_path / "202303.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        assert len(result.days) == 31
        assert result.drops.total_rows == 0
        assert all(day.is_complete() for day in result.days)

    def test_partial_month(self, tmp_path):
        rows = [full_weather_row(f"2024-04-{d:02d}") for d in range(1, 22)]
        path = write_weather(tmp_path / "202404.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202404"))
        assert len(result.days) == 21

    def test_blank_cell_becomes_missing(self, tmp_path):
        rows = ["2023-03-01,21.0,0.0,16.0,60.0,20.0,"]
        path = write_weather(tmp_path / "202303.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        day = result.days[0]
        assert day.rh_3pm is None
        assert day.missing_fields() == ("rh_3pm",)
        assert result.drops.invalid_cells == 0

    def test_extra_columns_ignored(self, tmp_path):
        header = WEATHER_HEADER + ",sunshine_hours"
        rows = [full_weather_row("2023-03-01") + ",9.9"]
        path = write_weather(tmp_path / "202303.csv", rows, header=header)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        assert len(result.days) == 1

    def test_column_map_adapts_foreign_headers(self, tmp_path):
        header = "Date,MaxT,Rain,T9,RH9,T3,RH3"
        rows = ["2023-03-01,25.5,1.2,18.0,70.0,24.0,55.0"]
        path = write_weather(tmp_path / "202303.csv", rows, header=header)
        spec = WeatherCsvSpec(path, "202303", date_column="Date",
                              column_map={"MaxT": "max_temp",
                                          "Rain": "rainfall",
                                          "T9": "temp_9am",
                                          "RH9": "rh_9am",
                                          "T3": "temp_3pm",
                                          "RH3": "rh_3pm"})
        result = parse_weather_csv(spec)
        assert result.days[0].max_temp == 25.5
        assert result.days[0].rh_3pm == 55.0

    def test_missing_mapped_column(self, tmp_path):
        header = WEATHER_HEADER.replace("rainfall_mm", "rain")
        rows = ["2023-03-01,21.0,0.0,16.0,60.0,20.0,50.0"]
        path = write_weather(tmp_path / "202303.csv", rows, header=header)
        with pytest.raises(MissingColumnError):
            parse_weather_csv(WeatherCsvSpec(path, "202303"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "202303.csv"
        path.write_text(WEATHER_HEADER + "\n")
        with pytest.raises(EmptyFileError):
            parse_weather_csv(WeatherCsvSpec(path, "202303"))

    def test_duplicate_date_keeps_first(self, tmp_path):
        rows = [full_weather_row("2023-03-01", 20.0),
                full_weather_row("2023-03-01", 30.0)]
        path = write_weather(tmp_path / "202303.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        assert len(result.days) == 1
        assert result.days[0].max_temp == 20.0
        assert result.drops.duplicates == 1

    def test_bad_date_dropped(self, tmp_path):
        rows = [full_weather_row("2023-03-01"),
                full_weather_row("March 2nd")]
        path = write_weather(tmp_path / "202303.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        assert len(result.days) == 1
        assert result.drops.bad_dates == 1

    def test_out_of_range_cell_demoted_to_missing(self, tmp_path):
        rows = ["2023-03-01,21.0,0.0,16.0,150.0,20.0,50.0"]  # RH 150%
        path = write_weather(tmp_path / "202303.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        assert result.days[0].rh_9am is None
        assert result.drops.invalid_cells == 1

    def test_misfiled_date_dropped(self, tmp_path):
        rows = [full_weather_row("2023-03-01"),
                full_weather_row("2023-04-01")]
        path = write_weather(tmp_path / "202303.csv", rows)
        result = parse_weather_csv(WeatherCsvSpec(path, "202303"))
        assert len(result.days) == 1
        assert result.drops.misfiled == 1

    def test_month_label_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WeatherCsvSpec(tmp_path / "x.csv", "2023-03")
        with pytest.raises(ValueError):
            WeatherCsvSpec(tmp_path / "x.csv", "202313")

    def test_column_map_must_cover_all_fields(self, tmp_path):
        with pytest.raises(ValueError):
            WeatherCsvSpec(tmp_path / "x.csv", "202303",
                           column_map={"max_temp_c": "max_temp"})


class TestLoadWeatherDir:
    def test_multiple_monthly_files(self, tmp_path):
        write_weather(tmp_path / "202303.csv",
                      [full_weather_row(f"2023-03-{d:02d}") for d in (1, 2)])
        write_weather(tmp_path / "202304.csv",
                      [full_weather_row(f"2023-04-{d:02d}") for d in (1, 2, 3)])
        (tmp_path / "readme.txt").write_text("not a weather file\n")
        result = load_weather_dir(tmp_path)
        assert result.files == ("202303.csv", "202304.csv")
        assert len(result.days) == 5
        dates = [d.date for d in result.days]
        assert dates == sorted(dates)

    def test_no_matching_files(self, tmp_path):
        (tmp_path / "notes.csv").write_text("a,b\n1,2\n")
        with pytest.raises(EmptyInputError):
            load_weather_dir(tmp_path)


class TestInterpolateWeather:
    def day(self, date, **kwargs):
        defaults = dict(rainfall=0.0, temp_9am=15.0, rh_9am=60.0,
                        temp_3pm=19.0, rh_3pm=50.0)
        defaults.update(kwargs)
        return WeatherDay(date, **defaults)

    def test_midpoint_fill(self):
        days = [
            self.day(dt.date(2023, 3, 1), max_temp=20.0),
            self.day(dt.date(2023, 3, 2), max_temp=None),
            self.day(dt.date(2023, 3, 3), max_temp=30.0),
        ]
        filled = interpolate_weather(days)
        assert [d.max_temp for d in filled] == [20.0, 25.0, 30.0]

    def test_three_day_gap_linear_fill(self):
        days = [
            self.day(dt.date(2023, 3, 1), max_temp=10.0),
            self.day(dt.date(2023, 3, 2), max_temp=None),
            self.day(dt.date(2023, 3, 3), max_temp=None),
            self.day(dt.date(2023, 3, 4), max_temp=16.0),
        ]
        filled = interpolate_weather(days)
        assert [d.max_temp for d in filled] == pytest.approx([10.0, 12.0, 14.0, 16.0])

    def test_gap_weighted_by_date_distance(self):
        # A missing day flanked by non-consecutive dates interpolates at
        # the calendar position, not the list position.
        days = [
            self.day(dt.date(2023, 3, 1), max_temp=10.0),
            self.day(dt.date(2023, 3, 2), max_temp=None),
            self.day(dt.date(2023, 3, 4), max_temp=16.0),
        ]
        filled = interpolate_weather(days)
        assert filled[1].max_temp == pytest.approx(12.0)

    def test_no_missing_is_identity(self):
        days = [self.day(dt.date(2023, 3, d), max_temp=20.0 + d)
                for d in (1, 2, 3)]
        assert interpolate_weather(days) == tuple(days)

    def test_idempotent(self):
        days = [
            self.day(dt.date(2023, 3, 1), max_temp=20.0, rh_3pm=40.0),
            self.day(dt.date(2023, 3, 2), max_temp=None, rh_3pm=None),
            self.day(dt.date(2023, 3, 3), max_temp=30.0, rh_3pm=60.0),
        ]
        once = interpolate_weather(days)
        assert all(d.is_complete() for d in once)
        assert interpolate_weather(once) == once

    def test_boundary_missing_raises(self):
        leading = [
            self.day(dt.date(2023, 3, 1), max_temp=None),
            self.day(dt.date(2023, 3, 2), max_temp=20.0),
        ]
        with pytest.raises(BoundaryMissingError):
            interpolate_weather(leading)
        trailing = [
            self.day(dt.date(2023, 3, 1), max_temp=20.0),
            self.day(dt.date(2023, 3, 2), max_temp=None),
        ]
        with pytest.raises(BoundaryMissingError):
            interpolate_weather(trailing)

    def test_all_missing_raises(self):
        days = [self.day(dt.date(2023, 3, d), max_temp=None) for d in (1, 2)]
        with pytest.raises(AllMissingError):
            interpolate_weather(days)

    def test_unsorted_days_rejected(self):
        days = [self.day(dt.date(2023, 3, 2), max_temp=20.0),
                self.day(dt.date(2023, 3, 1), max_temp=20.0)]
        with pytest.raises(ValueError):
            interpolate_weather(days)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            interpolate_weather([])


def record(day, hour, minute, watts):
    """One reading, as a (slot index, watts) pair."""
    return slot_index(dt.date(2023, 3, day), hour, minute), watts


def records(*readings):
    """MeterRecords of (slot index, watts) pairs, in the order given."""
    return MeterRecords([t for t, _ in readings], [w for _, w in readings])


class TestMergeSolar:
    def test_export_case(self):
        merged = merge_solar(records(record(1, 12, 0, -200.0)),
                             records(record(1, 12, 0, 1500.0)))
        assert merged.records.watts[0] == 1300.0
        assert merged.grid_only == 0 and merged.solar_only == 0

    def test_zero_solar_is_identity(self):
        grid = records(*[record(1, 2, m, 400.0 + m) for m in range(0, 30, 5)])
        solar = records(*[record(1, 2, m, 0.0) for m in range(0, 30, 5)])
        merged = merge_solar(grid, solar)
        assert merged.records.watts.tolist() == grid.watts.tolist()

    def test_one_sided_timestamps_counted(self):
        grid = records(record(1, 0, 0, 100.0), record(1, 0, 5, 110.0),
                       record(1, 0, 10, 120.0))
        solar = records(record(1, 0, 5, 50.0), record(1, 0, 15, 60.0),
                        record(1, 0, 20, 70.0))
        merged = merge_solar(grid, solar)
        assert len(merged.records) == 1
        assert merged.records.watts[0] == 160.0
        assert merged.grid_only == 2
        assert merged.solar_only == 2

    def test_empty_intersection_raises(self):
        with pytest.raises(EmptyIntersectionError):
            merge_solar(records(record(1, 0, 0, 1.0)),
                        records(record(2, 0, 0, 1.0)))

    def test_watt_contributions_commute(self):
        a = records(record(1, 5, 0, 321.0))
        b = records(record(1, 5, 0, 123.0))
        assert (merge_solar(a, b).records.watts[0]
                == merge_solar(b, a).records.watts[0])

    def test_unsorted_input_rejected(self):
        out_of_order = records(record(1, 0, 5, 1.0), record(1, 0, 0, 1.0))
        with pytest.raises(ValueError):
            merge_solar(out_of_order, records(record(1, 0, 0, 1.0)))


class TestBuildFrame:
    def complete_day(self, day, max_temp=25.0):
        return WeatherDay(dt.date(2023, 3, day), max_temp=max_temp,
                          rainfall=0.0, temp_9am=15.0, rh_9am=60.0,
                          temp_3pm=22.0, rh_3pm=45.0)

    def test_weather_broadcast_to_all_day_rows(self):
        meter = records(*[record(1, s // 12, (s % 12) * 5, 500.0)
                          for s in range(288)])
        result = build_frame(meter, [self.complete_day(1)])
        assert len(result.frame.times) == 288
        assert result.dropped_no_weather == 0
        assert np.all(result.frame.weather[:, 0] == 25.0)
        assert np.unique(result.frame.weather, axis=0).shape[0] == 1

    def test_uncovered_dates_dropped_and_counted(self):
        meter = records(record(1, 10, 0, 100.0), record(1, 10, 5, 110.0),
                        record(2, 10, 0, 120.0))
        result = build_frame(meter, [self.complete_day(1)])
        assert len(result.frame.times) == 2
        assert result.dropped_no_weather == 1

    def test_disjoint_ranges_raise(self):
        meter = records(record(5, 0, 0, 100.0))
        with pytest.raises(NoOverlapError):
            build_frame(meter, [self.complete_day(1)])
        with pytest.raises(NoOverlapError):
            build_frame(meter, [])

    def test_row_count_bounded_by_meter_count(self):
        meter = records(record(1, 0, 0, 1.0), record(2, 0, 0, 2.0))
        both = build_frame(meter, [self.complete_day(1), self.complete_day(2)])
        assert len(both.frame.times) == len(meter)
        one = build_frame(meter, [self.complete_day(1)])
        assert len(one.frame.times) < len(meter)

    def test_incomplete_weather_rejected(self):
        incomplete = WeatherDay(dt.date(2023, 3, 1), max_temp=20.0)
        with pytest.raises(ValueError):
            build_frame(records(record(1, 0, 0, 1.0)), [incomplete])

    def test_empty_meter_rejected(self):
        with pytest.raises(EmptyInputError):
            build_frame(records(), [self.complete_day(1)])

    def test_frame_passes_validator(self):
        meter = records(*[record(1, h, m, 200.0 + h)
                          for h in range(3) for m in range(0, 60, 5)])
        result = build_frame(meter, [self.complete_day(1)])
        result.frame.validate()  # raises on any invariant breach
        assert result.frame.time_decimal[13] == pytest.approx(1 + 5 / 60)
