"""Training loop behaviour: convergence, early stopping, determinism,
divergence detection, and batch-partition invariance."""
import math

import numpy as np
import pytest

from gridcast.errors import DivergedLossError, InvalidConfigError, ShapeError
from gridcast.nn import layers
from gridcast.nn.layers import LSTM, Dense, Dropout, Network
from gridcast.nn.losses import mse_loss
from gridcast.nn.training import (
    EVAL_CHUNK,
    EarlyStopper,
    TrainConfig,
    TrainingHistory,
    predict_batches,
    train,
)
from helpers import raises_exactly


def toy_line_data(n=256, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = 2.0 * x[:, 0] + 1.0
    return x, y


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return Network([Dense(1, 8, "relu", rng=rng), Dense(8, 1, rng=rng)])


class TestEarlyStopper:
    def test_stops_after_exactly_patience_bad_epochs(self):
        stopper = EarlyStopper(patience=10)
        params = [np.array([1.0])]
        # Epoch 1 improves; epochs 2..11 are strictly worse.
        assert stopper.update(1.0, params, epoch=1) is False
        stopped_at = None
        for epoch in range(2, 30):
            params[0][0] = float(epoch)  # drift the live parameters
            if stopper.update(1.0 + epoch * 0.1, params, epoch):
                stopped_at = epoch
                break
        assert stopped_at == 11
        stopper.restore(params)
        assert params[0][0] == 1.0  # epoch-1 snapshot came back
        assert stopper.best_epoch == 1

    def test_improvement_resets_the_counter(self):
        stopper = EarlyStopper(patience=3)
        params = [np.zeros(1)]
        losses = [5.0, 6.0, 7.0, 4.0, 8.0, 9.0, 10.0]
        outcomes = [stopper.update(l, params, e) for e, l in enumerate(losses, 1)]
        # Two bad epochs, an improvement at epoch 4, then three bad ones.
        assert outcomes == [False, False, False, False, False, False, True]

    def test_never_returns_worse_than_best(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            stopper = EarlyStopper(patience=4)
            params = [rng.normal(size=3)]
            best = math.inf
            best_params = None
            for epoch in range(1, 30):
                params[0][:] = rng.normal(size=3)
                loss = float(rng.uniform(0, 10))
                if loss < best:
                    best = loss
                    best_params = params[0].copy()
                if stopper.update(loss, params, epoch):
                    break
            stopper.restore(params)
            assert stopper.best_loss == best
            assert np.array_equal(params[0], best_params)


class TestTrain:
    def test_loss_drops_a_hundredfold_on_a_line(self):
        x, y = toy_line_data()
        model = small_net()
        config = TrainConfig(max_epochs=200, patience=200, learning_rate=0.01)
        history = train(model, (x, y), (x, y), config, np.random.default_rng(1))
        assert history.train_loss[-1] < history.train_loss[0] / 100.0

    def test_restored_parameters_reproduce_best_val_loss(self):
        x, y = toy_line_data()
        xv, yv = toy_line_data(64, seed=5)
        model = small_net()
        config = TrainConfig(max_epochs=30, patience=5, learning_rate=0.01)
        history = train(model, (x, y), (xv, yv), config, np.random.default_rng(2))
        # Recomputing the validation loss with the restored parameters
        # must equal the recorded minimum exactly.
        pred = predict_batches(model, xv)
        loss, _ = mse_loss(pred, yv.reshape(-1, 1))
        assert loss == min(history.val_loss)
        assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)

    def test_history_lengths_match_epochs_run(self):
        x, y = toy_line_data(64)
        model = small_net()
        config = TrainConfig(max_epochs=7, patience=100, learning_rate=0.01)
        history = train(model, (x, y), (x, y), config, np.random.default_rng(3))
        assert len(history.val_loss) == 7
        assert len(history.train_loss) == 7

    def test_same_seed_is_bit_identical(self):
        x, y = toy_line_data()
        runs = []
        for _ in range(2):
            model = small_net(seed=4)
            config = TrainConfig(max_epochs=5, patience=100, learning_rate=0.01)
            train(model, (x, y), (x, y), config, np.random.default_rng(7))
            runs.append([p.copy() for p in model.params()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        x, y = toy_line_data()
        weights = []
        for seed in (1, 2):
            model = Network([
                Dense(1, 8, "relu", rng=np.random.default_rng(4)),
                Dropout(0.3),
                Dense(8, 1, rng=np.random.default_rng(5)),
            ])
            config = TrainConfig(max_epochs=3, patience=100, learning_rate=0.01)
            train(model, (x, y), (x, y), config, np.random.default_rng(seed))
            weights.append([p.copy() for p in model.params()])
        assert any(not np.array_equal(a, b) for a, b in zip(*weights))

    def test_diverged_loss_raises(self):
        # Adam's normalised steps move parameters by about lr each time,
        # so the rate must be absurd enough that squaring the resulting
        # predictions overflows float64. The point of the test: the loop
        # raises instead of returning NaN/inf losses.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, 1)) * 100
        y = rng.normal(size=64) * 1e6
        model = small_net()
        config = TrainConfig(max_epochs=500, patience=500, learning_rate=1e80)
        with pytest.raises(DivergedLossError):
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, (x, y), (x, y), config, np.random.default_rng(8))

    def test_empty_training_data(self):
        model = small_net()
        config = TrainConfig()
        with raises_exactly(ShapeError, "training data is empty"):
            train(model, (np.zeros((0, 1)), np.zeros(0)),
                  (np.zeros((1, 1)), np.zeros(1)), config, np.random.default_rng(0))

    def test_invalid_config(self):
        with raises_exactly(InvalidConfigError,
                            "train.max_epochs must be at least 1"):
            TrainConfig(max_epochs=0)
        with raises_exactly(InvalidConfigError,
                            "train.learning_rate must be positive"):
            TrainConfig(learning_rate=-1.0)
        for value in (float("nan"), float("inf")):
            with raises_exactly(InvalidConfigError,
                                "train.learning_rate must be finite"):
                TrainConfig(learning_rate=value)
        with raises_exactly(InvalidConfigError,
                            "train.patience must be at least 1"):
            TrainConfig(patience=0)


class TestPredictBatches:
    def test_partitioning_does_not_change_predictions(self):
        # Three network calls (2, 2 and 1 EVAL_CHUNK blocks, then 100
        # rows) against one call per 15 rows. BLAS may pick different
        # kernels for different operand shapes, so bit-for-bit equality
        # across partitionings is not a float64 guarantee; agreement to
        # ~1 ulp of the output scale is.
        rng = np.random.default_rng(30)
        model = Network([Dense(3, 16, "relu", rng=rng), Dense(16, 1, rng=rng)])
        x = rng.normal(size=(5 * EVAL_CHUNK + 100, 3))
        whole = predict_batches(model, x)
        parts = np.concatenate([predict_batches(model, x[i:i + 15])
                                for i in range(0, x.shape[0], 15)])
        assert np.abs(whole - parts).max() < 1e-12

    def test_covers_every_row(self):
        # Two full calls and an uneven third: 2 * 2 * EVAL_CHUNK + 37 rows.
        rng = np.random.default_rng(31)
        model = Network([Dense(2, 4, "relu", rng=rng), Dense(4, 1, rng=rng)])
        x = rng.normal(size=(4 * EVAL_CHUNK + 37, 2))
        assert predict_batches(model, x).shape == (4 * EVAL_CHUNK + 37, 1)


def production_layout(kind, dtype):
    """The layer stacks of gridcast.models in any dtype: kind is "mlp" or
    "relu", the LSTM."""
    rng = np.random.default_rng(32)
    if kind == "mlp":
        return Network([
            Dense(7, 64, "relu", rng=rng, dtype=dtype), Dropout(0.2),
            Dense(64, 32, "relu", rng=rng, dtype=dtype), Dropout(0.1),
            Dense(32, 1, rng=rng, dtype=dtype)])
    return Network([LSTM(1, 50, rng=rng, dtype=dtype), Dropout(0.2),
                    Dense(50, 1, rng=rng, dtype=dtype)])


def serial_reference(model, x):
    """One eval forward per EVAL_CHUNK slice, in order, on the calling
    thread alone."""
    x = x.astype(model.params()[0].dtype)
    return np.concatenate([model.forward(x[i:i + EVAL_CHUNK], train=False)
                           for i in range(0, x.shape[0], EVAL_CHUNK)])


class TestPredictBatchesBlocks:
    """predict_batches pairs EVAL_CHUNK chunks per network call, and the
    LSTM scores a call's blocks on up to two threads: no prediction may
    change a bit. 1025 and 3073 leave a one-row last chunk; 12936, the
    test windows of a 90-day household split in half, is 13 blocks with a
    short last one."""

    ROWS = (1, 2, 1023, 1024, 1025, 2047, 2048, 2049, 3073, 12936)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["helper-off", "helper-on"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("kind", ["relu", "mlp"])
    def test_equals_serial_reference_bitwise(self, monkeypatch, kind, dtype,
                                             cpus):
        monkeypatch.setattr(layers, "_usable_cpus", lambda: cpus)
        model = production_layout(kind, dtype)
        shape = (7,) if kind == "mlp" else (24, 1)
        x = np.random.default_rng(33).normal(size=(max(self.ROWS), *shape))
        for n in self.ROWS:
            got = predict_batches(model, x[:n])
            want = serial_reference(model, x[:n])
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), n

    @pytest.mark.parametrize("kind", ["relu", "mlp"])
    def test_zero_rows_raise_empty_input(self, kind):
        model = production_layout(kind, np.float32)
        x = np.empty((0, 7) if kind == "mlp" else (0, 24, 1))
        with raises_exactly(ShapeError, "prediction input is empty"):
            predict_batches(model, x)
