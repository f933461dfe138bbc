"""Compute-dtype tests: the production networks train, predict, save and
load in float32 without a silent float64 upcast anywhere, while layers
built directly (the gradient oracles among them) stay float64."""
import numpy as np
import pytest

from gridcast.models import build_lstm, build_mlp, lstm_predict
from gridcast.nn import (
    LSTM,
    Adam,
    Dense,
    Dropout,
    Network,
    TrainConfig,
    load_model,
    mse_loss,
    save_model,
    train,
)
from gridcast.preprocess import fit_scaler, make_windows, transform


class _Float64Alarm(np.ndarray):
    """An array view that fails any ufunc given a float64 operand.

    Parameters viewed as this type see every operation the forward and
    backward passes and the Adam step apply to them, so a float64
    buffer (an ``np.zeros`` without a dtype, an ``astype(np.float64)``
    mask, a float64 scalar) fails the test at the operation that mixes
    it in, even when an in-place update would later cast the result back.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        for operand in inputs + (out or ()):
            if getattr(operand, "dtype", None) == np.float64:
                raise AssertionError(f"{ufunc.__name__} got a float64 operand")
        inputs = tuple(np.asarray(a) if isinstance(a, _Float64Alarm) else a
                       for a in inputs)
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Float64Alarm) if isinstance(result, np.ndarray) else result


def _arm(model):
    for layer in model.layers:
        if layer.params():
            layer.W = layer.W.view(_Float64Alarm)
            layer.b = layer.b.view(_Float64Alarm)


def _one_step(model, x, y, rng):
    """One training step done layer by layer; returns every array it made."""
    arrays = []
    out = x
    for layer in model.layers:
        out = layer.forward(out, train=True, rng=rng)
        arrays.append(out)
    _, grad = mse_loss(out, y)
    arrays.append(grad)
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
        arrays.append(grad)
    optimizer = Adam(model.params(), learning_rate=0.01)
    optimizer.step(model.grads())
    return arrays + model.params() + model.grads() + optimizer.m + optimizer.v


class TestNoSilentUpcast:
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_train_step_stays_float32(self, kind):
        rng = np.random.default_rng(0)
        if kind == "mlp":
            model = build_mlp(rng=rng)
            x = rng.uniform(0.0, 1.0, size=(64, 7)).astype(np.float32)
        else:
            model = build_lstm(rng=rng)
            x = rng.uniform(0.0, 1.0, size=(64, 24, 1)).astype(np.float32)
        y = rng.uniform(0.0, 1.0, size=(64, 1)).astype(np.float32)
        dropouts = [layer for layer in model.layers if isinstance(layer, Dropout)]
        assert dropouts and all(layer.rate > 0.0 for layer in dropouts)
        _arm(model)
        arrays = _one_step(model, x, y, rng)
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)
        masks = [layer._mask for layer in dropouts]
        assert [m.dtype for m in masks] == [np.float32] * len(masks)

    def test_train_casts_float64_data_once(self):
        # Data reaches train() as float64; the model stays float32 and the
        # losses it records are plain Python floats.
        rng = np.random.default_rng(1)
        model = build_lstm(rng=rng)
        x = rng.uniform(0.0, 1.0, size=(96, 24, 1))
        y = rng.uniform(0.0, 1.0, size=96)
        history = train(model, (x, y), (x, y),
                        TrainConfig(max_epochs=2, patience=2), rng)
        assert all(p.dtype == np.float32 for p in model.params())
        assert all(type(v) is float for v in history.train_loss + history.val_loss)

    def test_mse_loss_keeps_float32(self):
        pred = np.array([[0.5], [1.5]], dtype=np.float32)
        loss, grad = mse_loss(pred, np.array([[1.0], [1.0]]))
        assert type(loss) is float and loss == 0.25
        assert grad.dtype == np.float32

    def test_directly_built_layers_stay_float64(self):
        rng = np.random.default_rng(2)
        net = Network([LSTM(1, 4, rng=rng), Dropout(0.2),
                       Dense(4, 1, rng=rng)])
        x = rng.uniform(0.0, 1.0, size=(8, 5, 1))
        out = net.forward(x, train=True, rng=rng)
        _, grad = mse_loss(out, np.zeros((8, 1)))
        dx = net.backward(grad)
        for a in [out, dx] + net.params() + net.grads():
            assert a.dtype == np.float64

    def test_float32_draws_are_the_float64_draws_rounded(self):
        a = build_mlp(rng=np.random.default_rng(3))
        b = Dense(7, 64, "relu", rng=np.random.default_rng(3))
        assert np.array_equal(a.layers[0].W, b.W.astype(np.float32))


class TestSavedRunsKeepTheirDtype:
    def windows(self):
        rng = np.random.default_rng(4)
        series = rng.uniform(50.0, 2000.0, size=200)
        scaler = fit_scaler(series)
        return make_windows(transform(series, scaler), 24), scaler

    def test_trained_float32_lstm_round_trips_bitwise(self, tmp_path):
        windows, scaler = self.windows()
        rng = np.random.default_rng(5)
        model = build_lstm(rng=rng)
        train(model, (windows.inputs, windows.targets),
              (windows.inputs, windows.targets),
              TrainConfig(max_epochs=2, patience=2), rng)
        path = tmp_path / "lstm.npz"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert [p.dtype for p in loaded.params()] == [np.float32] * 4
        assert np.array_equal(lstm_predict(loaded, windows, scaler),
                              lstm_predict(model, windows, scaler))

    def test_float64_file_loads_and_scores_in_float64(self, tmp_path):
        # The nn format rebuilds a network in the dtype its file holds.
        windows, scaler = self.windows()
        rng = np.random.default_rng(6)
        model = Network([LSTM(1, 50, rng=rng), Dropout(0.2),
                         Dense(50, 1, rng=rng)])
        path = tmp_path / "lstm64.npz"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert [p.dtype for p in loaded.params()] == [np.float64] * 4
        assert np.array_equal(lstm_predict(loaded, windows, scaler),
                              lstm_predict(model, windows, scaler))
