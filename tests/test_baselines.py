"""Persistence baseline tests."""
import datetime as dt

import numpy as np
import pytest

from gridcast.baselines import BASELINE_LAGS, persistence_forecast
from gridcast.errors import SeriesTooShortError
from gridcast.pipeline import Alignment, predict
from gridcast.types import slot_index
from helpers import frame_of


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


class TestLagSpec:
    def test_named_rules(self):
        assert BASELINE_LAGS == {"naive": 1, "seasonal-naive": 288}

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            persistence_forecast(np.arange(5.0), 0, [1, 2])
        with pytest.raises(ValueError):
            persistence_forecast(np.arange(5.0), -3, [1, 2])


class TestPersistenceForecast:
    def test_small_series_by_hand(self):
        preds = persistence_forecast([1.0, 2.0, 3.0, 4.0], 1, [1, 2, 3])
        assert preds.tolist() == [1.0, 2.0, 3.0]

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        series = rng.uniform(0.0, 100.0, size=57)
        for k in (1, 2, 5, 30):
            preds, _, idx = brute_force_pairs(series, k)
            assert persistence_forecast(series, k, idx).tolist() == preds

    def test_pair_count_is_length_minus_lag(self):
        series = np.arange(400.0)
        for k in (1, 7, 288):
            targets = every_target(series, k)
            assert len(persistence_forecast(series, k, targets)) == 400 - k

    def test_constant_series_has_zero_error(self):
        series = np.full(600, 42.0)
        for k in BASELINE_LAGS.values():
            targets = every_target(series, k)
            assert np.array_equal(persistence_forecast(series, k, targets),
                                  series[targets])

    def test_daily_periodic_series_gives_zero_seasonal_error(self):
        day = np.sin(np.linspace(0.0, 2.0 * np.pi, 288, endpoint=False))
        series = np.tile(day, 4)
        targets = every_target(series, 288)
        assert np.array_equal(persistence_forecast(series, 288, targets),
                              series[targets])

    def test_naive_error_is_first_difference(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=200)
        preds = persistence_forecast(series, 1, every_target(series, 1))
        assert np.allclose(series[1:] - preds, np.diff(series))

    def test_actuals_match_indexed_series(self):
        rng = np.random.default_rng(2)
        series = rng.uniform(size=350)
        targets = np.array([288, 300, 349])
        assert persistence_forecast(series, 288, targets).tolist() == [
            series[0], series[12], series[61]]

    def test_series_no_longer_than_lag_rejected(self):
        # The roster's prediction path refuses a lag reaching before row 0.
        n = 288
        frame = frame_of(slot_index(dt.date(2023, 3, 1)) + np.arange(n),
                         np.arange(n))
        align = Alignment(boundary=200, window=24, targets=np.arange(224, n))
        with pytest.raises(SeriesTooShortError) as exc_info:
            predict("seasonal-naive", None, frame, align, None)
        assert str(exc_info.value) == ("seasonal-naive needs 288 rows of "
                                       "history before the first test "
                                       "target (have 224)")
        naive = predict("naive", None, frame, align, None)
        assert np.array_equal(naive, np.arange(223.0, n - 1))

    def test_no_aliasing_into_input(self):
        series = np.arange(10.0)
        preds = persistence_forecast(series, 1, every_target(series, 1))
        preds[0] = 99.0
        assert series[0] == 0.0


class TestTailFrom:
    def test_restricts_to_late_targets(self):
        series = np.arange(20.0)
        preds = persistence_forecast(series, 3, np.arange(15, 20))
        assert np.array_equal(preds, series[12:17])

    def test_empty_tail_allowed(self):
        preds = persistence_forecast(np.arange(5.0), 1, np.arange(5, 5))
        assert preds.shape == (0,)
