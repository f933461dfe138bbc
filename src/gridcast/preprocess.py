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

import numpy as np

from gridcast.errors import CorruptArtifactError, SeriesTooShortError, ShapeError
from gridcast.types import WEATHER_FIELDS, MergedFrame, time_decimal, write_json

# Model feature columns, in order: six weather fields then decimal hour.
FEATURE_COLUMNS = WEATHER_FIELDS + ("time_decimal",)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column minima and maxima captured from training data."""

    x_min: np.ndarray
    x_max: np.ndarray

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
            raise ShapeError(
                f"1-D input is single-column but scaler has {n_columns} columns"
            )
        return x[:, None]
    if n_columns is not None and x.shape[-1] != n_columns:
        raise ShapeError(
            f"input has {x.shape[-1]} columns, scaler was fitted on {n_columns}"
        )
    return x


def fit_scaler(train: np.ndarray) -> ScalerParams:
    """Capture per-column min and max from training rows only."""
    data = _as_columns(train)
    if data.size == 0:
        raise ShapeError("cannot fit a scaler on zero rows")
    return ScalerParams(x_min=data.min(axis=0), x_max=data.max(axis=0))


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
        "x_min": [float(v) for v in params.x_min],
        "x_max": [float(v) for v in params.x_max],
    }


def scaler_from_dict(payload: dict) -> ScalerParams:
    bounds = np.array([payload["x_min"], payload["x_max"]], dtype=np.float64)
    if bounds.ndim != 2 or not np.isfinite(bounds).all():
        raise CorruptArtifactError("x_min and x_max must be finite, equal-length lists")
    return ScalerParams(*bounds)


def save_scalers(scalers: dict[str, ScalerParams], path: str | Path) -> None:
    """Write the "features" and "target" scalers as one JSON file."""
    write_json(path, {name: scaler_to_dict(p) for name, p in scalers.items()})


def load_scalers(path: str | Path) -> dict[str, ScalerParams]:
    """The scalers written by save_scalers; CorruptArtifactError, naming
    the file, if a bound is not finite or not of its scaler's width."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        scalers = {k: scaler_from_dict(payload[k]) for k in ("features", "target")}
        if [s.n_columns for s in scalers.values()] != [len(FEATURE_COLUMNS), 1]:
            raise CorruptArtifactError(f"scaler widths must be {len(FEATURE_COLUMNS)} and 1")
        return scalers
    except (ValueError, KeyError, TypeError, CorruptArtifactError) as exc:
        raise CorruptArtifactError(
            f"cannot read scalers file {path}: {exc}") from exc


def chronological_split(n: int, ratio: float) -> int:
    """The train/test boundary over n rows: the first floor(ratio * n)
    rows train, the rest test. Rows are never shuffled, so everything
    before the boundary precedes everything after.
    """
    if not (0.0 < ratio < 1.0):
        raise ShapeError(f"ratio must lie strictly between 0 and 1, got {ratio}")
    if n < 2:
        raise SeriesTooShortError(f"need at least 2 rows to split, got {n}")
    return int(math.floor(ratio * n))


@dataclass(frozen=True)
class WindowBatch:
    """Sliding windows for the sequence model.

    inputs has shape (M, L, F); targets has shape (M,). Window i holds
    series positions i..i+L-1 and its target is position i+L. Both are
    read-only views of one private copy of the series.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.targets.shape[0]


def make_windows(series: np.ndarray, window_length: int) -> WindowBatch:
    """Build all N - L one-step-ahead windows over a univariate series, as
    read-only views of one copy of it (a float dtype is kept, else float64)."""
    series = np.array(series, dtype=np.result_type(np.asarray(series), 0.0))
    series.flags.writeable = False
    if series.ndim != 1:
        raise ShapeError(f"expected a 1-D series, got shape {series.shape}")
    if window_length < 1:
        raise ShapeError(f"window_length must be >= 1, got {window_length}")
    n = series.shape[0]
    if n <= window_length:
        raise SeriesTooShortError(
            f"series of length {n} yields no windows of length {window_length}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series, window_length)
    return WindowBatch(inputs=windows[:n - window_length, :, None],
                       targets=series[window_length:])


def feature_matrix(frame: MergedFrame, rows=slice(None)) -> np.ndarray:
    """(n, 7) model inputs of the selected frame rows (a slice or an index
    array), ordered as FEATURE_COLUMNS: the weather of each row's day, then
    its decimal hour."""
    return np.column_stack([frame.row_weather(rows),
                            time_decimal(frame.times[rows])])
