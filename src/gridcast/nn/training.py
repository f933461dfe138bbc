"""Minibatch training loop with early stopping.

Determinism contract: given the same model weights, data, config, and
generator state, train() reproduces the same shuffles, the same dropout
masks, and therefore bit-identical final parameters on one platform.
predict_batches() scores fixed EVAL_CHUNK-row blocks, at most two in
flight on up to two threads; its bits depend neither on the number of
threads that ran nor on the BLAS thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gridcast.errors import DivergedLossError, EmptyInputError, LengthMismatchError
from gridcast.nn.layers import EVAL_CHUNK
from gridcast.nn.losses import mse_loss
from gridcast.nn.optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    min_delta: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch losses plus where early stopping landed.

    Epochs are 1-based; best_epoch indexes the restored parameters.
    """

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0


class EarlyStopper:
    """Tracks the best validation loss and a snapshot of the parameters
    that produced it; signals a stop after `patience` epochs without
    improvement of more than `min_delta`."""

    def __init__(self, patience: int, min_delta: float = 0.0):
        self.patience = patience
        self.min_delta = min_delta
        self.best_loss = math.inf
        self.best_epoch = 0
        self.epochs_since_improvement = 0
        self._snapshot = None

    def update(self, val_loss: float, params, epoch: int) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best_loss - self.min_delta:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.epochs_since_improvement = 0
            self._snapshot = [p.copy() for p in params]
            return False
        self.epochs_since_improvement += 1
        return self.epochs_since_improvement >= self.patience

    def restore(self, params) -> None:
        """Copy the best-epoch snapshot back into the live parameters."""
        if self._snapshot is None:
            return
        for p, s in zip(params, self._snapshot):
            np.copyto(p, s)


def _param_dtype(model) -> np.dtype:
    """The dtype a model computes in: that of its parameters."""
    return model.params()[0].dtype


def predict_batches(model, x: np.ndarray, batch_size: int = EVAL_CHUNK) -> np.ndarray:
    """Eval-mode forward pass in memory-bounded chunks, in the model's
    parameter dtype.

    Each network call takes two chunks of ``batch_size`` rows, which an
    LSTM scores on up to two threads (see ``LSTM.forward``). With the
    default chunk every LSTM block then has the rows and matrix shapes
    of one chunk, and a prediction has the bits that scoring each chunk
    by its own call would give. The one exception is kept out: a last
    chunk of one row gets its own call, because OpenBLAS computes a
    one-row product with another kernel than a wider one. Raises
    EmptyInputError on zero rows.
    """
    x = np.asarray(x, dtype=_param_dtype(model))
    n = x.shape[0]
    if n == 0:
        raise EmptyInputError("prediction input is empty")
    outputs = []
    start = 0
    while start < n:
        stop = min(start + 2 * batch_size, n)
        if stop - start == batch_size + 1:
            stop -= 1
        outputs.append(model.forward(x[start:stop], train=False))
        start = stop
    return np.concatenate(outputs, axis=0)


def _check_pair(name, x, y):
    if x.shape[0] == 0:
        raise EmptyInputError(f"{name} data is empty")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatchError(
            f"{name} inputs ({x.shape[0]}) and targets ({y.shape[0]}) differ"
        )


def train(model, train_data, val_data, config: TrainConfig,
          rng: np.random.Generator) -> TrainingHistory:
    """Fit the model with shuffled minibatches, Adam, and early stopping.

    train_data and val_data are (inputs, targets) pairs; targets are
    one-dimensional. Both are cast once to the model's parameter dtype.
    Validation loss is computed in eval mode after each epoch, and the
    parameters that achieved the best validation loss are restored
    before returning. Raises DivergedLossError the moment any loss stops
    being finite.
    """
    dtype = _param_dtype(model)
    x_train = np.asarray(train_data[0], dtype=dtype)
    y_train = np.asarray(train_data[1], dtype=dtype).reshape(-1, 1)
    x_val = np.asarray(val_data[0], dtype=dtype)
    y_val = np.asarray(val_data[1], dtype=dtype).reshape(-1, 1)
    _check_pair("training", x_train, y_train)
    _check_pair("validation", x_val, y_val)

    optimizer = Adam(model.params(), learning_rate=config.learning_rate,
                     beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    stopper = EarlyStopper(config.patience, config.min_delta)
    history = TrainingHistory()
    n = x_train.shape[0]

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            pred = model.forward(x_train[idx], train=True, rng=rng)
            loss, grad = mse_loss(pred, y_train[idx])
            if not math.isfinite(loss):
                raise DivergedLossError(
                    f"training loss became {loss} at epoch {epoch}"
                )
            model.backward(grad)
            optimizer.step(model.grads())
            total += loss * idx.shape[0]
            seen += idx.shape[0]
        history.train_loss.append(total / seen)

        val_pred = predict_batches(model, x_val)
        val_loss, _ = mse_loss(val_pred, y_val)
        if not math.isfinite(val_loss):
            raise DivergedLossError(f"validation loss became {val_loss} at epoch {epoch}")
        history.val_loss.append(val_loss)

        if stopper.update(val_loss, model.params(), epoch):
            break

    stopper.restore(model.params())
    history.best_epoch = stopper.best_epoch
    return history
