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


def persistence_forecast(series, lag_rows) -> np.ndarray:
    """The persistence forecast of each target: the reading at its lag
    row (``pipeline.Alignment.lag_rows``), as float64."""
    return np.asarray(series, dtype=np.float64)[lag_rows]
