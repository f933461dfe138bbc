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

from gridcast.errors import DivergedLossError, InvalidConfigError, ShapeError
from gridcast.nn.layers import EVAL_CHUNK
from gridcast.nn.losses import mse_loss
from gridcast.nn.optim import Adam


# At most ~384 rows: above that, OpenBLAS's gradient sums depend on its thread count.
BATCH_SIZE = 256


@dataclass(frozen=True)
class TrainConfig:
    """The ``train.*`` config keys."""

    max_epochs: int = 200
    patience: int = 10
    learning_rate: float = 1e-3

    def __post_init__(self):
        for name in ("max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"train.{name} must be at least 1")
        if not math.isfinite(self.learning_rate):
            raise InvalidConfigError("train.learning_rate must be finite")
        if self.learning_rate <= 0:
            raise InvalidConfigError("train.learning_rate must be positive")


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
    that produced it; signals a stop after `patience` epochs without a
    lower one."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = math.inf
        self.best_epoch = 0
        self.epochs_since_improvement = 0
        self._snapshot = None

    def update(self, val_loss: float, params, epoch: int) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.epochs_since_improvement = 0
            self._snapshot = [p.copy() for p in params]
            return False
        self.epochs_since_improvement += 1
        return self.epochs_since_improvement >= self.patience

    def restore(self, params) -> None:
        """Copy the best-epoch snapshot back into the live parameters;
        train() always has one, as epoch 1's finite loss beats inf."""
        for p, s in zip(params, self._snapshot):
            np.copyto(p, s)


def _param_dtype(model) -> np.dtype:
    """The dtype a model computes in: that of its parameters."""
    return model.params()[0].dtype


def predict_batches(model, x: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass in memory-bounded chunks, in the model's
    parameter dtype.

    Each network call takes two chunks of ``EVAL_CHUNK`` rows, which an
    LSTM scores on up to two threads (see ``LSTM.forward``), so every
    LSTM block has the rows and matrix shapes of one chunk, and a
    prediction has the bits that scoring each chunk by its own call
    would give. The one exception is kept out: a last chunk of one row
    gets its own call, because OpenBLAS computes a one-row product with
    another kernel than a wider one. Input in another dtype is cast a
    call at a time. Raises ShapeError on zero rows.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if n == 0:
        raise ShapeError("prediction input is empty")
    outputs = []
    start = 0
    while start < n:
        stop = min(start + 2 * EVAL_CHUNK, n)
        if stop - start == EVAL_CHUNK + 1:
            stop -= 1
        chunk = x[start:stop].astype(_param_dtype(model), copy=False)
        outputs.append(model.forward(chunk, train=False))
        start = stop
    return np.concatenate(outputs, axis=0)


def _check_pair(name, x, y):
    if x.shape[0] == 0:
        raise ShapeError(f"{name} data is empty")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(
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

    optimizer = Adam(model.params(), config.learning_rate)
    stopper = EarlyStopper(config.patience)
    history = TrainingHistory()
    n = x_train.shape[0]

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
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
