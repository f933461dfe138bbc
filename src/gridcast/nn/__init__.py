"""From-scratch neural network engine: dense and LSTM layers with
analytic gradients, MSE loss, Adam, inverted dropout, early stopping,
and a deterministic minibatch training loop.

Everything is plain numpy, computed in the dtype of each network's
parameters: float64 unless a layer is built with another ``dtype`` (the
production models in gridcast.models use float32). There is no autograd:
each layer implements its own backward pass, and the test suite checks
every parameter gradient, in float64, against central finite differences.
"""

from gridcast.nn.layers import LSTM, Dense, Dropout, Network  # noqa: F401
from gridcast.nn.losses import mse_loss  # noqa: F401
from gridcast.nn.optim import Adam  # noqa: F401
from gridcast.nn.serialize import load_model, save_model  # noqa: F401
from gridcast.nn.training import (  # noqa: F401
    EarlyStopper,
    TrainConfig,
    TrainingHistory,
    predict_batches,
    train,
)
