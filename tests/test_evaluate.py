"""Metric, stratification, and report tests."""
import datetime as dt
import json
import math

import numpy as np
import pytest

from gridcast.errors import (
    CorruptArtifactError,
    SeriesTooShortError,
    ShapeError,
    ZeroVarianceError,
)
from gridcast.evaluate import (
    CORRELATION_COLUMNS,
    MetricSet,
    ReportCell,
    compute_metrics,
    correlation_matrix,
    diurnal_profile,
    mae,
    pearson,
    r2,
    read_report_json,
    rmse,
    stratify_by_season,
    write_correlation_csv,
    write_diurnal_csv,
    write_report_csv,
    write_report_json,
)
from gridcast.types import ROW_CHUNK, SLOTS_PER_DAY, Season
from helpers import (
    frame_of,
    raises_exactly,
    random_frame,
    slot,
    stacked_correlation,
    traced_peak,
)


def day_of_times(date, n=288):
    return [slot(date) + k for k in range(n)]


class TestRmse:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_worked(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-9)

    def test_single_pair(self):
        assert rmse([2.0], [5.0]) == pytest.approx(3.0, abs=1e-12)

    def test_length_mismatch(self):
        with raises_exactly(ShapeError, "prediction length 1 != actual length 2"):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with raises_exactly(ShapeError, "no prediction/actual pairs"):
            rmse([], [])


class TestMae:
    def test_perfect_prediction(self):
        assert mae([7.0, 7.0], [7.0, 7.0]) == 0.0

    def test_hand_worked(self):
        assert mae([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5, abs=1e-9)

    def test_sign_symmetric_errors(self):
        assert mae([2.0, -2.0], [0.0, 0.0]) == pytest.approx(2.0, abs=1e-12)


class TestR2:
    def test_perfect_prediction(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_predictor_scores_zero(self):
        rng = np.random.default_rng(0)
        actual = rng.normal(size=100)
        pred = np.full(100, actual.mean())
        assert abs(r2(pred, actual)) < 1e-12

    def test_worse_than_mean_is_negative(self):
        assert r2([10.0, 10.0], [0.0, 2.0]) == pytest.approx(-81.0, abs=1e-9)

    def test_constant_actuals_raise(self):
        with pytest.raises(ZeroVarianceError):
            r2([1.0, 2.0], [5.0, 5.0])

    def test_single_pair_raises(self):
        with pytest.raises(ZeroVarianceError):
            r2([1.0], [2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        actual = rng.normal(size=200)
        pred = actual + rng.normal(0, 0.5, size=200)
        base = r2(pred, actual)
        for a, b in ((3.7, -12.0), (0.001, 5.0), (-2.0, 0.0)):
            assert r2(a * pred + b, a * actual + b) == pytest.approx(base, abs=1e-9)


class TestPearson:
    def test_identity(self):
        x = np.arange(10.0)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negation(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_orthogonal_sample(self):
        assert pearson([1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 2.0], [3.0, 3.0])

    def test_bounded_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert -1.0 <= pearson(x, y) <= 1.0

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        y = 0.3 * x + rng.normal(size=64)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


class TestMetricOrdering:
    def test_rmse_at_least_mae_on_random_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = rng.integers(2, 40)
            pred = rng.normal(size=n)
            actual = rng.normal(size=n)
            assert rmse(pred, actual) >= mae(pred, actual) - 1e-15


class TestComputeMetrics:
    def test_fields(self):
        m = compute_metrics([0.0, 0.0], [3.0, 4.0])
        assert m.rmse == pytest.approx(math.sqrt(12.5))
        assert m.mae == pytest.approx(3.5)
        assert m.n == 2

    def test_r2_none_on_constant_actuals(self):
        m = compute_metrics([1.0, 2.0], [5.0, 5.0])
        assert m.r2 is None
        assert m.rmse > 0


class TestStratifyBySeason:
    def test_single_month_yields_single_stratum(self):
        times = [slot(dt.date(2024, 1, d), 10, 0) for d in range(1, 11)]
        rng = np.random.default_rng(5)
        actual = rng.uniform(100, 500, size=10)
        pred = actual + rng.normal(size=10)
        strata = stratify_by_season(pred, actual, times)
        assert set(strata) == {Season.DJF}
        assert strata[Season.DJF].n == 10

    def test_counts_partition_total(self):
        times = []
        for month in (1, 4, 7, 10, 12):
            times += [slot(dt.date(2023, month, d), 0, 0) for d in range(1, 8)]
        rng = np.random.default_rng(6)
        actual = rng.uniform(size=len(times))
        pred = rng.uniform(size=len(times))
        strata = stratify_by_season(pred, actual, times)
        assert sum(m.n for m in strata.values()) == len(times)
        assert set(strata) == set(Season)

    def test_per_stratum_rmse_matches_filter_oracle(self):
        times = [slot(dt.date(2023, 3, 1), 0, 0)] * 4 + \
                [slot(dt.date(2023, 7, 1), 0, 0)] * 3
        actual = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0])
        pred = actual + np.array([1.0, -1.0, 1.0, -1.0, 2.0, 2.0, -2.0])
        strata = stratify_by_season(pred, actual, times)
        assert strata[Season.MAM].rmse == pytest.approx(rmse(pred[:4], actual[:4]))
        assert strata[Season.JJA].rmse == pytest.approx(rmse(pred[4:], actual[4:]))

    def test_times_must_match_pairs(self):
        with raises_exactly(ShapeError, "1 pairs but 0 timestamps"):
            stratify_by_season([1.0], [1.0], [])


class TestDiurnalProfile:
    def frame_for(self, dates, consumption_fn):
        times = [t for date in dates for t in day_of_times(date)]
        return frame_of(times, [consumption_fn(t) for t in times])

    def test_constant_consumption_gives_flat_profile(self):
        frame = self.frame_for([dt.date(2023, 6, 1)], lambda t: 350.0)
        profiles = diurnal_profile(frame)
        assert set(profiles) == {Season.JJA}
        assert profiles[Season.JJA].shape == (288,)
        assert np.allclose(profiles[Season.JJA], 350.0)

    def test_injected_peak_slot_is_argmax(self):
        peak_slot = 100
        frame = self.frame_for(
            [dt.date(2023, 6, d) for d in (1, 2, 3)],
            lambda t: 2000.0 if t % SLOTS_PER_DAY == peak_slot else 200.0)
        profiles = diurnal_profile(frame)
        assert int(np.argmax(profiles[Season.JJA])) == peak_slot

    def test_median_resists_one_outlier_day(self):
        # 3 calm days and 1 day with a spike at slot 10: median stays calm.
        def load(t):
            day = dt.date.fromordinal(t // SLOTS_PER_DAY).day
            return 5000.0 if (day == 4 and t % SLOTS_PER_DAY == 10) else 100.0
        frame = self.frame_for([dt.date(2023, 6, d) for d in (1, 2, 3, 4)], load)
        profiles = diurnal_profile(frame)
        assert profiles[Season.JJA][10] == pytest.approx(100.0)

    def test_partial_day_leaves_nan_slots(self):
        times = day_of_times(dt.date(2023, 6, 1), n=12)  # first hour only
        frame = frame_of(times, [100.0] * 12)
        profile = diurnal_profile(frame)[Season.JJA]
        assert profile.shape == (288,)
        assert np.isfinite(profile[:12]).all()
        assert np.isnan(profile[12:]).all()


class TestSeasonalReference:
    """stratify_by_season and diurnal_profile against per-row loops."""

    MONTH_SEASON = {12: Season.DJF, 1: Season.DJF, 2: Season.DJF,
                    3: Season.MAM, 4: Season.MAM, 5: Season.MAM,
                    6: Season.JJA, 7: Season.JJA, 8: Season.JJA,
                    9: Season.SON, 10: Season.SON, 11: Season.SON}

    def season(self, t):
        return self.MONTH_SEASON[dt.date.fromordinal(int(t) // SLOTS_PER_DAY).month]

    def frame(self):
        # 15 months from late November, with a random tenth of the rows
        # missing, so some slots of some seasons hold fewer values.
        rng = np.random.default_rng(21)
        start = slot(dt.date(2023, 11, 20))
        times = start + np.arange(460 * SLOTS_PER_DAY)
        times = times[rng.random(times.size) > 0.1]
        return frame_of(times, rng.gamma(2.0, 300.0, size=times.size))

    def test_diurnal_profile(self):
        frame = self.frame()
        groups = {}
        for t, value in zip(frame.times.tolist(), frame.consumption.tolist()):
            key = (self.season(t), t % SLOTS_PER_DAY)
            groups.setdefault(key, []).append(value)
        expected = {}
        for (season, slot), values in groups.items():
            profile = expected.setdefault(season, np.full(SLOTS_PER_DAY, np.nan))
            profile[slot] = np.median(np.array(values))
        got = diurnal_profile(frame)
        assert list(got) == [s for s in Season if s in expected]
        for season, profile in expected.items():
            assert np.array_equal(got[season], profile, equal_nan=True)

    def test_stratify_by_season(self):
        frame = self.frame()
        rng = np.random.default_rng(22)
        actual = frame.consumption
        pred = actual + rng.normal(0.0, 50.0, size=actual.size)
        seasons = [self.season(t) for t in frame.times.tolist()]
        expected = {}
        for season in Season:
            rows = [i for i, s in enumerate(seasons) if s is season]
            expected[season] = compute_metrics(pred[rows], actual[rows])
        assert stratify_by_season(pred, actual, frame.times) == expected


def weather_frame(seed: int, days: int = 30, per_day: int = 4, edit=None):
    """A frame of ``per_day`` readings on each of ``days`` days, each day
    with its own random weather (passed through ``edit`` if given), and
    its (n, 7) stack of weather and consumption columns."""
    rng = np.random.default_rng(seed)
    start = dt.date(2023, 9, 1)
    times = [t for d in range(days)
             for t in day_of_times(start + dt.timedelta(days=d), n=per_day)]
    cons = rng.uniform(100, 900, size=len(times))
    daily = rng.uniform(1, 50, size=(days, 6))
    if edit is not None:
        edit(daily)
    return (frame_of(times, cons, daily),
            np.column_stack([np.repeat(daily, per_day, axis=0), cons]))


class TestCorrelationMatrix:
    def test_duplicated_column_pair(self):
        def duplicate(daily):
            daily[:, 1] = daily[:, 0]
        frame, _ = weather_frame(7, edit=duplicate)
        assert correlation_matrix(frame)[0, 1] == pytest.approx(1.0)

    def test_diagonal_is_one(self):
        matrix = correlation_matrix(weather_frame(8)[0])
        assert np.array_equal(np.diag(matrix), np.ones(7))

    def test_matches_brute_force_pairwise(self):
        frame, stacked = weather_frame(9)
        matrix = correlation_matrix(frame)
        assert np.array_equal(matrix, stacked_correlation(stacked))
        for i in range(7):
            for j in range(7):
                expected = 1.0 if i == j else pearson(stacked[:, i], stacked[:, j])
                assert matrix[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        matrix = correlation_matrix(weather_frame(10)[0])
        assert np.array_equal(matrix, matrix.T)

    def test_constant_column_reported_missing_not_fatal(self):
        def constant(daily):
            daily[:, 2] = 3.0
        matrix = correlation_matrix(weather_frame(11, edit=constant)[0])
        others = [k for k in range(7) if k != 2]
        assert np.isnan(matrix[2, others]).all() and np.isnan(matrix[others, 2]).all()
        assert matrix[2, 2] == 1.0
        assert np.isfinite(matrix[np.ix_(others, others)]).all()

    def test_too_few_rows(self):
        frame = frame_of([slot(dt.date(2023, 9, 1))], [500.0])
        with raises_exactly(SeriesTooShortError, "need at least 2 rows, got 1"):
            correlation_matrix(frame)

    def test_a_long_frame_gives_the_stacked_bits_in_two_columns_of_memory(self):
        # Over sixteen ROW_CHUNK blocks of rows: 229 days.
        frame = random_frame(16 * ROW_CHUNK + 7, seed=14)
        stacked = np.column_stack([frame.row_weather(), frame.consumption])
        expected = stacked_correlation(stacked)
        del stacked
        matrix, peak = traced_peak(correlation_matrix, frame)
        assert np.array_equal(matrix, expected)
        # At most two float64 columns are alive, never the (n, 7) stack.
        assert peak < 2.5 * len(frame) * 8

    def test_frame_correlation_shape_and_labels(self):
        # 12 days of 4 readings, each day with its own weather.
        rng = np.random.default_rng(12)
        start = dt.date(2023, 9, 1)
        times = [t for d in range(12)
                 for t in day_of_times(start + dt.timedelta(days=d), n=4)]
        cons = rng.uniform(100, 900, size=48)
        daily = rng.uniform(1, 50, size=(12, 6))
        frame = frame_of(times, cons, daily)
        matrix = correlation_matrix(frame)
        assert matrix.shape == (7, 7)
        assert len(CORRELATION_COLUMNS) == 7
        assert CORRELATION_COLUMNS[-1] == "consumption_w"
        # consumption row matches direct pearson against each weather column
        weather = np.repeat(daily, 4, axis=0)
        for i in range(6):
            assert matrix[6, i] == pytest.approx(
                pearson(cons, weather[:, i]), abs=1e-12)


def small_report():
    """(metadata, cells) of a small report."""
    metadata = {"seed": 7, "config_hash": "abc123", "created": "2026-01-01 00:00"}
    return metadata, [
        ReportCell("naive", "test",
                   MetricSet(rmse=10.5, mae=8.25, r2=0.875, n=100)),
        ReportCell("lstm", "test",
                   MetricSet(rmse=9.0, mae=7.0, r2=0.9125, n=100)),
        ReportCell("lstm", "test/DJF",
                   MetricSet(rmse=11.0, mae=8.0, r2=None, n=25)),
    ]


class TestEvalReport:
    def test_json_round_trip_is_exact(self, tmp_path):
        metadata, cells = small_report()
        path = tmp_path / "report.json"
        write_report_json(metadata, cells, path)
        assert json.loads(path.read_text())["metadata"] == metadata
        assert read_report_json(path) == cells

    def test_json_preserves_float_bits(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as a decimal literal
        cells = [ReportCell("m", "s",
                            MetricSet(rmse=value, mae=value, r2=value, n=2))]
        path = tmp_path / "report.json"
        write_report_json({}, cells, path)
        assert read_report_json(path)[0].metrics.rmse == value

    def test_missing_r2_serializes_as_null(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(*small_report(), path)
        data = json.loads(path.read_text())
        djf = [c for c in data["cells"] if c["slice"] == "test/DJF"][0]
        assert djf["metrics"]["r2"] is None

    def test_csv_has_one_row_per_model_slice_metric(self, tmp_path):
        _, cells = small_report()
        path = tmp_path / "report.csv"
        write_report_csv(cells, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "model,slice,metric,value,n,units"
        assert len(lines) == 1 + 3 * len(cells)
        assert lines[1].startswith("naive,test,rmse,10.5")
        r2_row = [l for l in lines if l.startswith("lstm,test/DJF,r2")][0]
        assert r2_row == "lstm,test/DJF,r2,,25,watts"

    @pytest.mark.parametrize("units", ["joules", "scaled"])
    def test_reader_rejects_units_other_than_watts(self, tmp_path, units):
        path = tmp_path / "report.json"
        write_report_json(*small_report(), path)
        data = json.loads(path.read_text())
        data["cells"][1]["metrics"]["units"] = units
        path.write_text(json.dumps(data))
        with raises_exactly(CorruptArtifactError,
                            f"cannot read report {path}: "
                            f"units must be 'watts', got {units!r}"):
            read_report_json(path)

    def test_a_stored_integer_score_is_tabled_as_a_float(self, tmp_path):
        # JSON has one number type: a hand-written 5 is the score 5.0.
        path = tmp_path / "report.json"
        write_report_json(*small_report(), path)
        data = json.loads(path.read_text())
        data["cells"][0]["metrics"].update(rmse=5, mae=4, r2=1)
        path.write_text(json.dumps(data))
        write_report_csv(read_report_json(path), tmp_path / "report.csv")
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:4]
        assert [r.split(",")[3] for r in rows] == ["5.0", "4.0", "1.0"]


class TestAuxWriters:
    def test_correlation_csv_round_readable(self, tmp_path):
        matrix = correlation_matrix(weather_frame(13)[0])
        path = tmp_path / "correlation.csv"
        write_correlation_csv(matrix, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "," + ",".join(CORRELATION_COLUMNS)
        assert len(lines) == 8
        first_value = float(lines[1].split(",")[1])
        assert first_value == 1.0

    def test_diurnal_csv_rows(self, tmp_path):
        profiles = {Season.DJF: np.full(288, 5.0)}
        path = tmp_path / "diurnal.csv"
        write_diurnal_csv(profiles, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "season,slot,value"
        assert len(lines) == 1 + 288
        assert lines[1] == "DJF,0,5.0"
