"""Tests for scaling, chronological splitting, and window construction.

Expected values are computed by hand or by independent brute-force
enumeration inside the tests, never by the code under test.
"""
import datetime as dt
import json
import re

import numpy as np
import pytest

from gridcast.errors import CorruptArtifactError, SeriesTooShortError, ShapeError
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
from helpers import MILD_DAY, frame_of, raises_exactly, slot


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
        with raises_exactly(ShapeError,
                            "input has 2 columns, scaler was fitted on 3"):
            transform(np.zeros((4, 2)), params)
        with raises_exactly(ShapeError, "1-D input is single-column but "
                            "scaler has 3 columns"):
            transform(np.zeros(4), params)

    def test_empty_input(self):
        with raises_exactly(ShapeError, "cannot fit a scaler on zero rows"):
            fit_scaler(np.zeros((0, 3)))

    def test_broadcasts_over_leading_axes(self):
        params = fit_scaler(np.array([0.0, 2.0]))
        cube = np.array([[[0.0], [1.0]], [[2.0], [4.0]]])
        out = transform(cube, params)
        assert out.shape == cube.shape
        assert out[1, 1, 0] == pytest.approx(2.0)

    def test_json_round_trip(self, tmp_path):
        params = fit_scaler(np.array([[1.1, -2.2, 0.1, 1e-17, 50.0, 0.0, 0.5],
                                      [3.3, 4.4, 0.7, 3e-9, 60.5, 0.0, 23.9]]))
        target = fit_scaler(np.array([0.1, 0.7, 1e-17]))
        path = tmp_path / "scalers.json"
        save_scalers({"features": params, "target": target}, path)
        loaded = load_scalers(path)
        assert np.array_equal(loaded["features"].x_min, params.x_min)
        assert np.array_equal(loaded["features"].x_max, params.x_max)
        assert np.array_equal(loaded["target"].x_min, target.x_min)
        assert np.array_equal(loaded["target"].x_max, target.x_max)
        # A file from before the "columns" key went still loads.
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(payload["target"]) == ["x_max", "x_min"]
        for entry in payload.values():
            entry["columns"] = None
        path.write_text(json.dumps(payload), encoding="utf-8")
        old = load_scalers(path)
        assert np.array_equal(old["features"].x_max, params.x_max)
        assert np.array_equal(old["target"].x_min, target.x_min)

    @pytest.mark.parametrize("scaler, bound, value", [
        ("features", "x_min", [0.0] * 6),
        ("features", "x_max", [0.0] * 8),
        ("features", "x_min", [[0.0] * 7]),
        ("features", "x_max", [0.0] * 6 + [float("nan")]),
        ("target", "x_min", [0.0, 1.0]),
        ("target", "x_max", 1.0),
        ("target", "x_max", [float("inf")]),
    ], ids=["features-6", "features-8", "features-2d", "features-nan",
            "target-2", "target-scalar", "target-inf"])
    def test_load_rejects_a_bound_of_another_width_or_not_finite(
            self, tmp_path, scaler, bound, value):
        # scalers.json comes from outside the program: a bound the
        # networks cannot use is a corrupt file, not a shape bug.
        path = tmp_path / "scalers.json"
        save_scalers({"features": fit_scaler(np.zeros((2, len(FEATURE_COLUMNS)))),
                      "target": fit_scaler(np.zeros(2))}, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[scaler][bound] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        prefix = re.escape(f"cannot read scalers file {path}: ")
        with pytest.raises(CorruptArtifactError, match=rf"\A{prefix}"):
            load_scalers(path)
        # Both bounds of the same wrong width are refused by their width.
        payload[scaler]["x_min"] = payload[scaler]["x_max"] = [0.0] * 2
        path.write_text(json.dumps(payload), encoding="utf-8")
        with raises_exactly(CorruptArtifactError,
                            f"cannot read scalers file {path}: "
                            f"scaler widths must be 7 and 1"):
            load_scalers(path)


class TestChronologicalSplit:
    def test_published_row_counts(self):
        # 117,513 rows at 0.8 -> 94,010 train / 23,503 test.
        boundary = chronological_split(117_513, 0.8)
        assert boundary == 94_010
        assert 117_513 - boundary == 23_503
        # 119,100 rows -> 95,280 / 23,820.
        boundary = chronological_split(119_100, 0.8)
        assert boundary == 95_280
        assert 119_100 - boundary == 23_820

    def test_small_example(self):
        assert chronological_split(10, 0.8) == 8

    def test_boundary_is_floor(self):
        # floor semantics, checked against an integer-arithmetic oracle
        for n in (2, 3, 7, 99, 100, 101, 117_513):
            boundary = chronological_split(n, 0.8)
            assert type(boundary) is int
            assert boundary == int(np.floor(0.8 * n))

    def test_every_train_row_precedes_every_test_row(self):
        values = np.arange(100)
        boundary = chronological_split(len(values), 0.8)
        assert values[:boundary].max() < values[boundary:].min()

    def test_too_few_rows(self):
        with raises_exactly(SeriesTooShortError,
                            "need at least 2 rows to split, got 1"):
            chronological_split(1, 0.8)

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ShapeError):
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windows_are_read_only_views_in_the_series_dtype(self, dtype):
        batch = make_windows(np.arange(30.0, dtype=dtype), 24)
        assert batch.inputs.dtype == batch.targets.dtype == dtype
        assert np.shares_memory(batch.inputs, batch.targets)
        assert not batch.inputs.flags.writeable
        assert not batch.targets.flags.writeable


class TestFeatureMatrix:
    def test_column_order(self):
        assert FEATURE_COLUMNS == (
            "max_temp", "rainfall", "temp_9am", "rh_9am", "temp_3pm", "rh_3pm",
            "time_decimal",
        )

    def test_features_pair_weather_with_decimal_hour(self):
        times = [slot(dt.date(2023, 3, 1), 19, 15), slot(dt.date(2023, 3, 1), 19, 20)]
        frame = frame_of(times, [400.0, 410.0])
        features = feature_matrix(frame)
        assert features.shape == (2, 7)
        assert features[0, 6] == 19.25
        assert features[:, :6].tolist() == [list(MILD_DAY)] * 2

    @pytest.mark.parametrize("rows", [
        slice(None), slice(3, 9), slice(0, 1), slice(11, None),
        np.array([0, 4, 5, 11]), np.arange(2, 12), np.array([7])],
        ids=["all", "slice", "first", "tail", "scattered", "range", "one"])
    def test_selected_rows_equal_rows_of_the_whole_matrix(self, rows):
        # Three days of four rows each, each day with its own weather, so a
        # row that picked another row's day or hour would differ.
        days = [dt.date(2023, 3, 1), dt.date(2023, 3, 2), dt.date(2023, 3, 5)]
        times = [slot(day, hour, minute) for day in days
                 for hour, minute in ((0, 0), (6, 35), (13, 5), (23, 55))]
        weather = np.random.default_rng(8).uniform(0.0, 40.0, size=(3, 6))
        frame = frame_of(times, np.arange(12.0), weather)
        whole = feature_matrix(frame)
        assert np.array_equal(feature_matrix(frame, rows), whole[rows])
        assert feature_matrix(frame, rows).tobytes() == whole[rows].tobytes()
