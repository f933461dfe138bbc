"""Loss functions."""
from __future__ import annotations

import numpy as np

from gridcast.errors import ShapeError


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to pred.

    Shapes must match exactly; the gradient is 2 * (pred - target) / n
    where n is the total element count. Both are computed in pred's
    floating dtype (float64 for non-float input), with target cast to it,
    so a float32 network backpropagates in float32.
    """
    pred = np.asarray(pred)
    if pred.dtype.kind != "f":
        pred = pred.astype(np.float64)
    target = np.asarray(target, dtype=pred.dtype)
    if pred.shape != target.shape:
        raise ShapeError(
            f"pred shape {pred.shape} != target shape {target.shape}"
        )
    if pred.size == 0:
        raise ShapeError("mse_loss needs at least one element")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad
