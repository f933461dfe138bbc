"""Forecasting models assembled from the neural-network building blocks.

The paper fixes one architecture for each network, and the two read
deliberately disjoint inputs:

* the MLP, 7 -> 64 (relu, dropout 0.2) -> 32 (relu, dropout 0.1) -> 1,
  sees only daily weather context plus time of day (no consumption
  history), so it measures how much of the load is explainable from
  exogenous conditions alone;
* the LSTM, 50 units with relu, dropout 0.2 and a linear head on the
  last state, sees only the last WINDOW_LENGTH = 24 readings of
  consumption (2 hours, one feature per step), so it measures how much
  the load's own history explains.

Both predict watts one 5-minute step ahead.  Inference always runs with
dropout disabled, and every prediction path scales inputs with fitted
min-max parameters and inverse-scales the output back to watts.  Input
widths are checked where they are read: by ``transform`` against the
scaler and by each layer's ``forward``.
"""
from __future__ import annotations

import numpy as np

from gridcast.nn import LSTM, Dense, Dropout, Network, predict_batches
from gridcast.preprocess import (
    ScalerParams,
    WindowBatch,
    inverse_transform,
    transform,
)

# Both networks train and predict in float32, and their model files hold
# float32: at these shapes its GEMMs and tanh run 2-5x faster than
# float64's, and every acceptance threshold holds. The pipeline builds
# the lstm's windows in this dtype; data, scalers and inverse-scaled
# watts stay float64.
COMPUTE_DTYPE = np.float32


def build_mlp(rng: np.random.Generator | None = None) -> Network:
    """The weather-to-load regressor; without ``rng`` every weight is 0."""
    return Network([
        Dense(7, 64, "relu", rng=rng, dtype=COMPUTE_DTYPE),
        Dropout(0.2),
        Dense(64, 32, "relu", rng=rng, dtype=COMPUTE_DTYPE),
        Dropout(0.1),
        Dense(32, 1, rng=rng, dtype=COMPUTE_DTYPE),
    ])


WINDOW_LENGTH = 24


def build_lstm(rng: np.random.Generator | None = None) -> Network:
    """The window-to-next-step regressor; without ``rng`` every weight is 0."""
    return Network([
        LSTM(1, 50, rng=rng, dtype=COMPUTE_DTYPE),
        Dropout(0.2),
        Dense(50, 1, rng=rng, dtype=COMPUTE_DTYPE),
    ])


def mlp_predict(model: Network, features: np.ndarray,
                feature_scaler: ScalerParams,
                target_scaler: ScalerParams) -> np.ndarray:
    """Predict watts from raw (unscaled) feature rows.

    ``features`` is (M, 7) in natural units; rows are scaled with
    ``feature_scaler``, pushed through the model with dropout off, and
    the outputs are inverse-scaled with ``target_scaler``.
    """
    out = predict_batches(model, transform(features, feature_scaler))
    return inverse_transform(out, target_scaler).ravel()


def lstm_predict(model: Network, windows: WindowBatch,
                 target_scaler: ScalerParams) -> np.ndarray:
    """One-step-ahead watts for each already-scaled window.

    Windows hold the scaled series (scaling happens before windowing),
    so only the output needs inverse-scaling.  Each window uses the true
    recorded history; predictions are never fed back in.
    """
    out = predict_batches(model, windows.inputs)
    return inverse_transform(out, target_scaler).ravel()
