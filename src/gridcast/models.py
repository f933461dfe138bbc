"""Forecasting models assembled from the neural-network building blocks.

Two regressors with deliberately disjoint inputs:

* the MLP sees only daily weather context plus time of day (7 features,
  no consumption history), so it measures how much of the load is
  explainable from exogenous conditions alone;
* the LSTM sees only a window of recent consumption (feature dim 1 by
  default), so it measures how much the load's own history explains.

Both predict watts one 5-minute step ahead.  Inference always runs with
dropout disabled, and every prediction path scales inputs with fitted
min-max parameters and inverse-scales the output back to watts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridcast.errors import ShapeError
from gridcast.nn import LSTM, Dense, Dropout, Network, predict_batches
from gridcast.nn.training import EVAL_CHUNK
from gridcast.preprocess import (
    ScalerParams,
    WindowBatch,
    inverse_transform,
    transform,
)

# Both networks train and predict in float32: at these shapes its GEMMs
# and tanh run 2-5x faster than float64's, and every acceptance
# threshold holds. Data, scalers and inverse-scaled watts stay float64.
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class MlpSpec:
    """Static weather-to-load regressor layout."""

    n_features: int = 7
    hidden_1: int = 64
    dropout_1: float = 0.2
    hidden_2: int = 32
    dropout_2: float = 0.1

    def __post_init__(self):
        if self.n_features < 1 or self.hidden_1 < 1 or self.hidden_2 < 1:
            raise ValueError("layer widths must be positive")


@dataclass(frozen=True)
class LstmSpec:
    """Sequence regressor layout: window of past load in, next step out."""

    window_length: int = 24
    n_features: int = 1
    hidden: int = 50
    dropout: float = 0.2
    activation: str = "relu"

    def __post_init__(self):
        if self.window_length < 1 or self.n_features < 1 or self.hidden < 1:
            raise ValueError("window, feature, and hidden sizes must be positive")


def build_mlp(spec: MlpSpec = MlpSpec(),
              rng: np.random.Generator | None = None) -> Network:
    """Dense(h1, relu) -> drop -> Dense(h2, relu) -> drop -> Dense(1)."""
    return Network([
        Dense(spec.n_features, spec.hidden_1, "relu", rng=rng, dtype=COMPUTE_DTYPE),
        Dropout(spec.dropout_1),
        Dense(spec.hidden_1, spec.hidden_2, "relu", rng=rng, dtype=COMPUTE_DTYPE),
        Dropout(spec.dropout_2),
        Dense(spec.hidden_2, 1, rng=rng, dtype=COMPUTE_DTYPE),
    ])


def build_lstm(spec: LstmSpec = LstmSpec(),
               rng: np.random.Generator | None = None) -> Network:
    """LSTM(hidden) over the window -> drop -> Dense(1) on the last state."""
    return Network([
        LSTM(spec.n_features, spec.hidden, spec.activation, rng=rng,
             dtype=COMPUTE_DTYPE),
        Dropout(spec.dropout),
        Dense(spec.hidden, 1, rng=rng, dtype=COMPUTE_DTYPE),
    ])


def _require_fitted(scaler: ScalerParams | None, name: str) -> ScalerParams:
    if scaler is None:
        raise ShapeError(f"{name} scaler has not been fitted")
    return scaler


def mlp_predict(model: Network, features: np.ndarray,
                feature_scaler: ScalerParams | None,
                target_scaler: ScalerParams | None,
                batch_size: int = EVAL_CHUNK) -> np.ndarray:
    """Predict watts from raw (unscaled) feature rows.

    ``features`` is (M, F) in natural units; rows are scaled with
    ``feature_scaler``, pushed through the model with dropout off, and
    the outputs are inverse-scaled with ``target_scaler``.
    """
    feature_scaler = _require_fitted(feature_scaler, "feature")
    target_scaler = _require_fitted(target_scaler, "target")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(
            f"expected a 2-D feature matrix, got ndim={features.ndim}")
    n_in = model.layers[0].n_in
    if features.shape[1] != n_in:
        raise ShapeError(
            f"model expects {n_in} feature columns, got {features.shape[1]}")
    if feature_scaler.n_columns != n_in:
        raise ShapeError(
            f"feature scaler covers {feature_scaler.n_columns} columns, "
            f"model expects {n_in}")
    scaled = transform(features, feature_scaler)
    out = predict_batches(model, scaled, batch_size=batch_size)
    return inverse_transform(out, target_scaler).ravel()


def lstm_predict(model: Network, windows: WindowBatch,
                 target_scaler: ScalerParams | None,
                 spec: LstmSpec = LstmSpec(),
                 batch_size: int = EVAL_CHUNK) -> np.ndarray:
    """One-step-ahead watts for each already-scaled window.

    Windows hold the scaled series (scaling happens before windowing),
    so only the output needs inverse-scaling.  Each window uses the true
    recorded history; predictions are never fed back in.
    """
    target_scaler = _require_fitted(target_scaler, "target")
    if windows.window_length != spec.window_length:
        raise ShapeError(
            f"expected windows of length {spec.window_length}, "
            f"got {windows.window_length}")
    if windows.n_features != spec.n_features:
        raise ShapeError(
            f"expected {spec.n_features} feature(s) per step, "
            f"got {windows.n_features}")
    out = predict_batches(model, windows.inputs, batch_size=batch_size)
    return inverse_transform(out, target_scaler).ravel()
