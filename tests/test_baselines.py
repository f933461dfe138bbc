"""Persistence baseline tests."""
import datetime as dt

import numpy as np
import pytest

from gridcast.baselines import BASELINE_LAGS, persistence_forecast
from gridcast.errors import SeriesTooShortError
from gridcast.pipeline import Alignment, predict
from helpers import frame_of, slot


def brute_force_pairs(series, k):
    preds, actuals, idx = [], [], []
    for j in range(len(series)):
        if j - k >= 0:
            preds.append(series[j - k])
            actuals.append(series[j])
            idx.append(j)
    return preds, actuals, idx


def every_target(series, k):
    """All rows with a reading k rows before them."""
    return np.arange(k, len(series))


def lag_forecast(series, name, targets):
    """Baseline ``name``'s forecast at each target row, as the pipeline
    makes it: Alignment maps each target to its lag row, which the
    forecast reads. Lag rows depend on the targets alone, not the split."""
    align = Alignment(boundary=0, targets=np.asarray(targets))
    return persistence_forecast(series, align.lag_rows(name))


class TestLagSpec:
    def test_named_rules(self):
        assert BASELINE_LAGS == {"naive": 1, "seasonal-naive": 288}

    def test_lag_must_be_positive(self):
        # A lag of 0 would forecast each target with its own reading.
        for name, lag in BASELINE_LAGS.items():
            assert type(lag) is int and lag >= 1
            align = Alignment(boundary=0, targets=np.arange(lag, lag + 5))
            assert align.lag_rows(name).tolist() == [0, 1, 2, 3, 4]


class TestPersistenceForecast:
    def test_small_series_by_hand(self):
        preds = lag_forecast([1.0, 2.0, 3.0, 4.0], "naive", [1, 2, 3])
        assert preds.tolist() == [1.0, 2.0, 3.0]

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        series = rng.uniform(0.0, 100.0, size=600)
        for name, k in BASELINE_LAGS.items():
            preds, _, idx = brute_force_pairs(series, k)
            assert lag_forecast(series, name, idx).tolist() == preds

    def test_pair_count_is_length_minus_lag(self):
        series = np.arange(400.0)
        for name, k in BASELINE_LAGS.items():
            targets = every_target(series, k)
            assert len(lag_forecast(series, name, targets)) == 400 - k

    def test_constant_series_has_zero_error(self):
        series = np.full(600, 42.0)
        for name, k in BASELINE_LAGS.items():
            targets = every_target(series, k)
            assert np.array_equal(lag_forecast(series, name, targets),
                                  series[targets])

    def test_daily_periodic_series_gives_zero_seasonal_error(self):
        day = np.sin(np.linspace(0.0, 2.0 * np.pi, 288, endpoint=False))
        series = np.tile(day, 4)
        targets = every_target(series, 288)
        assert np.array_equal(lag_forecast(series, "seasonal-naive", targets),
                              series[targets])

    def test_naive_error_is_first_difference(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=200)
        preds = lag_forecast(series, "naive", every_target(series, 1))
        assert np.allclose(series[1:] - preds, np.diff(series))

    def test_actuals_match_indexed_series(self):
        rng = np.random.default_rng(2)
        series = rng.uniform(size=350)
        targets = np.array([288, 300, 349])
        assert lag_forecast(series, "seasonal-naive", targets).tolist() == [
            series[0], series[12], series[61]]

    def test_series_no_longer_than_lag_rejected(self):
        # The roster's prediction path refuses a lag reaching before row 0.
        n = 288
        frame = frame_of(slot(dt.date(2023, 3, 1)) + np.arange(n),
                         np.arange(n))
        align = Alignment(boundary=200, targets=np.arange(224, n))
        with pytest.raises(SeriesTooShortError) as exc_info:
            predict("seasonal-naive", None, frame, align, None)
        assert str(exc_info.value) == ("seasonal-naive needs 288 rows of "
                                       "history before the first test "
                                       "target (have 224)")
        naive = predict("naive", None, frame, align, None)
        assert np.array_equal(naive, np.arange(223.0, n - 1))

    def test_no_aliasing_into_input(self):
        series = np.arange(10.0)
        preds = lag_forecast(series, "naive", every_target(series, 1))
        preds[0] = 99.0
        assert series[0] == 0.0


class TestTailFrom:
    def test_restricts_to_late_targets(self):
        series = np.arange(20.0)
        preds = lag_forecast(series, "naive", np.arange(15, 20))
        assert np.array_equal(preds, series[14:19])

    def test_empty_tail_allowed(self):
        preds = persistence_forecast(np.arange(5.0), np.arange(4, 4))
        assert preds.shape == (0,)
