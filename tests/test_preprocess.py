"""Tests for scaling, chronological splitting, and window construction.

Expected values are computed by hand or by independent brute-force
enumeration inside the tests, never by the code under test.
"""
import datetime as dt

import numpy as np
import pytest

from gridcast.errors import (
    DimensionMismatchError,
    EmptyInputError,
    SeriesTooShortError,
    TooFewRowsError,
)
from gridcast.preprocess import (
    FEATURE_COLUMNS,
    chronological_split,
    feature_matrix,
    fit_scaler,
    inverse_transform,
    load_scalers,
    make_windows,
    save_scalers,
    transform,
)
from gridcast.types import build_merged_frame, slot_index


class TestScaler:
    def test_hand_worked_example(self):
        params = fit_scaler(np.array([0.0, 10.0, 5.0]))
        assert transform(np.array([12.0]), params)[0] == pytest.approx(1.2)
        assert transform(np.array([0.0]), params)[0] == 0.0
        assert transform(np.array([10.0]), params)[0] == 1.0

    def test_train_rows_map_into_unit_interval(self):
        rng = np.random.default_rng(7)
        train = rng.normal(size=(200, 3)) * 50 + 10
        params = fit_scaler(train)
        scaled = transform(train, params)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert scaled.min() == 0.0 and scaled.max() == 1.0

    def test_no_clamping_outside_fitted_range(self):
        params = fit_scaler(np.array([0.0, 10.0]))
        assert transform(np.array([-5.0]), params)[0] == pytest.approx(-0.5)
        assert transform(np.array([20.0]), params)[0] == pytest.approx(2.0)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        train = rng.uniform(-100, 100, size=(50, 4))
        params = fit_scaler(train)
        other = rng.uniform(-200, 200, size=(30, 4))
        back = inverse_transform(transform(other, params), params)
        assert np.allclose(back, other, rtol=0, atol=1e-9)

    def test_constant_column_maps_to_zero_and_back(self):
        train = np.column_stack([np.full(10, 7.5), np.arange(10.0)])
        params = fit_scaler(train)
        scaled = transform(train, params)
        assert np.all(scaled[:, 0] == 0.0)
        back = inverse_transform(scaled, params)
        assert np.all(back[:, 0] == 7.5)

    def test_transform_is_monotone_per_column(self):
        params = fit_scaler(np.array([[0.0, -3.0], [4.0, 9.0]]))
        lo = transform(np.array([[1.0, 0.0]]), params)
        hi = transform(np.array([[2.0, 1.0]]), params)
        assert np.all(hi > lo)

    def test_fitting_ignores_rows_outside_train(self):
        # Leakage guard: a scaler fitted on train only must differ from one
        # fitted on train+test when the test rows extend the range.
        train = np.arange(10.0)
        test = np.array([50.0])
        p_train = fit_scaler(train)
        p_all = fit_scaler(np.concatenate([train, test]))
        assert p_train.x_max[0] == 9.0
        assert p_all.x_max[0] == 50.0
        assert transform(test, p_train)[0] > 1.0

    def test_dimension_mismatch(self):
        params = fit_scaler(np.zeros((5, 3)) + np.arange(3.0))
        with pytest.raises(DimensionMismatchError):
            transform(np.zeros((4, 2)), params)
        with pytest.raises(DimensionMismatchError):
            transform(np.zeros(4), params)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fit_scaler(np.zeros((0, 3)))

    def test_broadcasts_over_leading_axes(self):
        params = fit_scaler(np.array([0.0, 2.0]))
        cube = np.array([[[0.0], [1.0]], [[2.0], [4.0]]])
        out = transform(cube, params)
        assert out.shape == cube.shape
        assert out[1, 1, 0] == pytest.approx(2.0)

    def test_json_round_trip(self, tmp_path):
        params = fit_scaler(np.array([[1.1, -2.2], [3.3, 4.4]]), columns=("a", "b"))
        target = fit_scaler(np.array([0.1, 0.7, 1e-17]))
        path = tmp_path / "scalers.json"
        save_scalers({"features": params, "target": target}, path)
        loaded = load_scalers(path)
        assert np.array_equal(loaded["features"].x_min, params.x_min)
        assert np.array_equal(loaded["features"].x_max, params.x_max)
        assert loaded["features"].columns == ("a", "b")
        assert np.array_equal(loaded["target"].x_min, target.x_min)
        assert np.array_equal(loaded["target"].x_max, target.x_max)
        assert loaded["target"].columns is None


class TestChronologicalSplit:
    def test_published_row_counts(self):
        # 117,513 rows at 0.8 -> 94,010 train / 23,503 test.
        split = chronological_split(117_513, 0.8)
        assert split.boundary == 94_010
        assert 117_513 - split.boundary == 23_503
        # 119,100 rows -> 95,280 / 23,820.
        split = chronological_split(119_100, 0.8)
        assert split.boundary == 95_280
        assert 119_100 - split.boundary == 23_820

    def test_small_example(self):
        split = chronological_split(10, 0.8)
        assert split.boundary == 8

    def test_boundary_is_floor(self):
        # floor semantics, checked against an integer-arithmetic oracle
        for n in (2, 3, 7, 99, 100, 101, 117_513):
            split = chronological_split(n, 0.8)
            assert split.boundary == int(np.floor(0.8 * n))

    def test_accepts_sized_containers(self):
        assert chronological_split([0] * 10, 0.8).boundary == 8

    def test_every_train_row_precedes_every_test_row(self):
        values = np.arange(100)
        split = chronological_split(values, 0.8)
        assert (values[:split.boundary].max()
                < values[split.boundary:].min())

    def test_too_few_rows(self):
        with pytest.raises(TooFewRowsError):
            chronological_split(1, 0.8)

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                chronological_split(10, ratio)


def brute_force_windows(series, length):
    """Independent enumeration oracle for make_windows."""
    wins, targets = [], []
    i = 0
    while i + length < len(series):
        wins.append([series[j] for j in range(i, i + length)])
        targets.append(series[i + length])
        i += 1
    return np.array(wins), np.array(targets)


class TestMakeWindows:
    def test_six_windows_from_thirty_rows(self):
        series = np.arange(30.0)
        batch = make_windows(series, 24)
        oracle_inputs, oracle_targets = brute_force_windows(series, 24)
        assert len(batch) == 6
        assert batch.inputs.shape == (6, 24, 1)
        assert np.array_equal(batch.inputs[:, :, 0], oracle_inputs)
        assert np.array_equal(batch.targets, oracle_targets)

    def test_window_count_formula(self):
        for n in (25, 26, 40, 288):
            batch = make_windows(np.arange(float(n)), 24)
            assert len(batch) == n - 24

    def test_single_window(self):
        batch = make_windows(np.arange(25.0), 24)
        assert len(batch) == 1
        assert np.array_equal(batch.inputs[0, :, 0], np.arange(24.0))
        assert batch.targets[0] == 24.0

    def test_consecutive_windows_overlap(self):
        # window[i][1:] + [target[i]] must equal window[i+1]
        rng = np.random.default_rng(3)
        series = rng.normal(size=60)
        batch = make_windows(series, 24)
        for i in range(len(batch) - 1):
            stitched = np.concatenate([batch.inputs[i, 1:, 0], [batch.targets[i]]])
            assert np.array_equal(stitched, batch.inputs[i + 1, :, 0])

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShortError):
            make_windows(np.arange(24.0), 24)
        with pytest.raises(SeriesTooShortError):
            make_windows(np.arange(5.0), 24)

    def test_windows_do_not_alias_the_series(self):
        series = np.arange(30.0)
        batch = make_windows(series, 24)
        series[0] = 999.0
        assert batch.inputs[0, 0, 0] == 0.0


class TestFeatureMatrix:
    def test_column_order(self):
        assert FEATURE_COLUMNS == (
            "max_temp", "rainfall", "temp_9am", "rh_9am", "temp_3pm", "rh_3pm",
            "time_decimal",
        )

    def test_features_pair_weather_with_decimal_hour(self):
        times = [slot_index(dt.date(2023, 3, 1), 19, 15), slot_index(dt.date(2023, 3, 1), 19, 20)]
        weather = [[21.0, 0.0, 15.0, 70.0, 20.0, 50.0]] * 2
        frame = build_merged_frame(times, [400.0, 410.0], weather)
        fm = feature_matrix(frame)
        assert fm.features.shape == (2, 7)
        assert fm.features[0, 6] == 19.25
        assert np.array_equal(fm.features[:, :6], frame.weather)
        assert np.array_equal(fm.targets, frame.consumption)
