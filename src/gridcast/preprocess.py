"""Preprocessing: min-max scaling, chronological splitting, and sliding
windows for the sequence model.

Scalers are always fitted on training rows only and then applied to the
whole series; out-of-range test values are deliberately not clamped, so
transformed values may fall outside [0, 1].
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sized

import numpy as np

from gridcast.errors import (
    CorruptArtifactError,
    DimensionMismatchError,
    EmptyInputError,
    SeriesTooShortError,
    TooFewRowsError,
)
from gridcast.types import WEATHER_FIELDS, MergedFrame

# Model feature columns, in order: six weather fields then decimal hour.
FEATURE_COLUMNS = WEATHER_FIELDS + ("time_decimal",)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column minima and maxima captured from training data."""

    x_min: np.ndarray
    x_max: np.ndarray
    columns: tuple[str, ...] | None = None

    @property
    def n_columns(self) -> int:
        return self.x_min.shape[0]


def _as_columns(x: np.ndarray, n_columns: int | None = None) -> np.ndarray:
    """Normalise input to an array whose last axis is the column axis.

    1-D input is treated as a single-column series; anything else must
    already have the column count on its last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if n_columns is not None and n_columns != 1:
            raise DimensionMismatchError(
                f"1-D input is single-column but scaler has {n_columns} columns"
            )
        return x[:, None]
    if n_columns is not None and x.shape[-1] != n_columns:
        raise DimensionMismatchError(
            f"input has {x.shape[-1]} columns, scaler was fitted on {n_columns}"
        )
    return x


def fit_scaler(train: np.ndarray, columns: tuple[str, ...] | None = None) -> ScalerParams:
    """Capture per-column min and max from training rows only."""
    data = _as_columns(train)
    if data.size == 0:
        raise EmptyInputError("cannot fit a scaler on zero rows")
    return ScalerParams(
        x_min=data.min(axis=0),
        x_max=data.max(axis=0),
        columns=columns,
    )


def transform(x: np.ndarray, params: ScalerParams) -> np.ndarray:
    """(x - min) / (max - min) per column; constant columns map to 0.0.

    The output shape matches the input shape (a 1-D series stays 1-D).
    No clamping: values outside the fitted range land outside [0, 1].
    """
    was_1d = np.asarray(x).ndim == 1
    data = _as_columns(x, params.n_columns)
    span = params.x_max - params.x_min
    safe = np.where(span == 0.0, 1.0, span)
    out = (data - params.x_min) / safe
    out = np.where(span == 0.0, 0.0, out)
    return out[:, 0] if was_1d else out


def inverse_transform(y: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Undo transform(); constant columns map back to their fitted value."""
    was_1d = np.asarray(y).ndim == 1
    data = _as_columns(y, params.n_columns)
    out = data * (params.x_max - params.x_min) + params.x_min
    return out[:, 0] if was_1d else out


def scaler_to_dict(params: ScalerParams) -> dict:
    return {
        "columns": list(params.columns) if params.columns else None,
        "x_min": [float(v) for v in params.x_min],
        "x_max": [float(v) for v in params.x_max],
    }


def scaler_from_dict(payload: dict) -> ScalerParams:
    return ScalerParams(
        x_min=np.asarray(payload["x_min"], dtype=np.float64),
        x_max=np.asarray(payload["x_max"], dtype=np.float64),
        columns=tuple(payload["columns"]) if payload.get("columns") else None,
    )


def save_scalers(scalers: dict[str, ScalerParams], path: str | Path) -> None:
    """Write the "features" and "target" scalers as one JSON file.

    Floats are written by repr, so they load back bit for bit.
    """
    payload = {name: scaler_to_dict(params) for name, params in scalers.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_scalers(path: str | Path) -> dict[str, ScalerParams]:
    """The "features" and "target" scalers written by save_scalers."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return {name: scaler_from_dict(payload[name])
                for name in ("features", "target")}
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptArtifactError(
            f"cannot read scalers file {path}: {exc}") from exc


@dataclass(frozen=True)
class SplitIndex:
    """Boundary of a chronological train/test split over N rows."""

    boundary: int
    total: int


def chronological_split(data: int | Sized, ratio: float = 0.8) -> SplitIndex:
    """Split the first floor(ratio * N) rows into train, the rest test.

    Accepts either a row count or any sized container. Rows are never
    shuffled: everything before the boundary precedes everything after.
    """
    n = data if isinstance(data, int) else len(data)
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must lie strictly between 0 and 1, got {ratio}")
    if n < 2:
        raise TooFewRowsError(f"need at least 2 rows to split, got {n}")
    return SplitIndex(boundary=int(math.floor(ratio * n)), total=n)


@dataclass(frozen=True)
class WindowBatch:
    """Sliding windows for the sequence model.

    inputs has shape (M, L, F); targets has shape (M,). Window i holds
    series positions i..i+L-1 and its target is position i+L.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def window_length(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[2]


def make_windows(series: np.ndarray, window_length: int) -> WindowBatch:
    """Build all N - L one-step-ahead windows over a univariate series."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D series, got shape {series.shape}")
    if window_length < 1:
        raise ValueError(f"window_length must be >= 1, got {window_length}")
    n = series.shape[0]
    if n <= window_length:
        raise SeriesTooShortError(
            f"series of length {n} yields no windows of length {window_length}"
        )
    m = n - window_length
    windows = np.lib.stride_tricks.sliding_window_view(series, window_length)[:m]
    return WindowBatch(inputs=windows.copy()[:, :, None], targets=series[window_length:].copy())


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-row weather + time features paired with consumption targets."""

    features: np.ndarray  # (N, 7) ordered as FEATURE_COLUMNS
    targets: np.ndarray   # (N,) watts

    def __len__(self) -> int:
        return self.targets.shape[0]


def feature_matrix(frame: MergedFrame) -> FeatureMatrix:
    features = np.column_stack([frame.weather, frame.time_decimal])
    return FeatureMatrix(features=features, targets=frame.consumption.copy())
