"""Persistence reference forecasters.

A lag-k persistence forecast repeats the value observed k steps earlier:
k=1 is the naive "next value equals the last value" rule, and k=288
repeats yesterday's value from the same 5-minute slot.  These cost
nothing to fit and anchor the comparison for the learned models.
"""
from __future__ import annotations

import numpy as np

from gridcast.types import SLOTS_PER_DAY

# The roster's baselines and the lag, in rows, each one repeats.
BASELINE_LAGS = {"naive": 1, "seasonal-naive": SLOTS_PER_DAY}


def persistence_forecast(series, lag: int, targets) -> np.ndarray:
    """The lag forecast at each target row: ``series[targets - lag]``.

    Every target must lie at least ``lag`` rows into the series; the
    caller checks that, since a negative row would wrap to the end.
    """
    if lag < 1:
        raise ValueError(f"lag must be at least 1, got {lag}")
    return np.asarray(series, dtype=np.float64)[np.asarray(targets) - lag]
