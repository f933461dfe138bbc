"""Tests for the core vocabulary: slot indices, seasons, meter records,
weather, frames."""
import datetime as dt

import numpy as np
import pytest

from gridcast.types import (
    BAD_TIME,
    MERGED_CSV_COLUMNS,
    SEASONS,
    SLOTS_PER_DAY,
    WEATHER_FIELDS,
    MergedFrame,
    MeterRecords,
    Season,
    Weather,
    build_merged_frame,
    format_timestamps,
    parse_timestamps,
    season_codes,
    slot_index,
    time_decimal,
    weather_plausible,
)


def tp(y, m, d, hh, mm):
    return slot_index(dt.date(y, m, d), hh, mm)


def season_of(t):
    return SEASONS[int(season_codes(np.array([t]))[0])]


class TestTimePoint:
    def test_rejects_off_grid_minute(self):
        with pytest.raises(ValueError):
            tp(2023, 3, 1, 10, 3)

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            tp(2023, 3, 1, 24, 0)
        with pytest.raises(ValueError):
            tp(2023, 3, 1, -1, 0)
        with pytest.raises(ValueError):
            tp(2023, 3, 1, 0, 60)

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
        with pytest.raises(ValueError):
            MeterRecords(t, [float("nan")])
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError, match="shape"):
            Weather([738945], [[21.0, 0.0, 15.0]])

    def test_validation(self):
        day = dt.date(2023, 3, 1).toordinal()
        for field, value in (("rh_9am", 150.0), ("rainfall", -1.0),
                             ("max_temp", 90.0), ("rainfall", np.inf)):
            values = np.full((1, len(WEATHER_FIELDS)), np.nan)
            values[0, WEATHER_FIELDS.index(field)] = value
            with pytest.raises(ValueError, match="plausible"):
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
    weather = [[21.0, 0.0, 15.0, 70.0, 20.0, 50.0]] * n
    return build_merged_frame(times, [400.0 + i for i in range(n)], weather)


class TestMergedFrame:
    def test_validate_accepts_well_formed_frame(self):
        _small_frame().validate()

    def test_validate_rejects_unsorted_times(self):
        frame = _small_frame()
        times = frame.times.copy()
        times[[0, 1]] = times[[1, 0]]
        bad = MergedFrame(times, frame.consumption, frame.weather, frame.time_decimal)
        with pytest.raises(ValueError, match="strictly increasing"):
            bad.validate()

    def test_validate_rejects_duplicate_times(self):
        frame = _small_frame()
        times = frame.times.copy()
        times[1] = times[0]
        bad = MergedFrame(times, frame.consumption, frame.weather, frame.time_decimal)
        with pytest.raises(ValueError, match="strictly increasing"):
            bad.validate()

    def test_validate_rejects_missing_weather(self):
        frame = _small_frame()
        weather = frame.weather.copy()
        weather[2, 3] = np.nan
        bad = MergedFrame(frame.times, frame.consumption, weather, frame.time_decimal)
        with pytest.raises(ValueError, match="weather"):
            bad.validate()

    def test_validate_rejects_wrong_time_decimal(self):
        frame = _small_frame()
        decimals = frame.time_decimal.copy()
        decimals[0] += 0.5
        bad = MergedFrame(frame.times, frame.consumption, frame.weather, decimals)
        with pytest.raises(ValueError, match="time_decimal"):
            bad.validate()

    def test_csv_round_trip_is_exact(self, tmp_path):
        frame = _small_frame(8)
        # Non-trivial floats to exercise repr round-tripping.
        frame.consumption[:] = np.linspace(400.123456789, 5000.987654321, 8)
        path = tmp_path / "merged.csv"
        frame.to_csv(path)
        loaded = MergedFrame.from_csv(path)
        assert loaded.times.dtype == np.int64
        assert np.array_equal(loaded.times, frame.times)
        assert np.array_equal(loaded.consumption, frame.consumption)
        assert np.array_equal(loaded.weather, frame.weather)
        assert np.array_equal(loaded.time_decimal, frame.time_decimal)

    def test_csv_header(self, tmp_path):
        frame = _small_frame()
        path = tmp_path / "merged.csv"
        frame.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(MERGED_CSV_COLUMNS)
        assert header.split(",")[:2] == ["timestamp", "consumption_w"]


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
