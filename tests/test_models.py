"""Model assembly and prediction-path tests."""
import json
import re

import numpy as np
import pytest

from gridcast.errors import CorruptArtifactError, ShapeError
from gridcast.models import build_lstm, build_mlp, lstm_predict, mlp_predict
from gridcast.nn import load_model, save_model, train, TrainConfig
from gridcast.nn.layers import EVAL_CHUNK
from gridcast.preprocess import WindowBatch, fit_scaler, make_windows, transform
from helpers import raises_exactly


def fitted_scalers(features, targets):
    return fit_scaler(features), fit_scaler(targets)


class TestSpecs:
    def test_mlp_parameter_count(self):
        # 7*64+64 dense, 64*32+32 dense, 32*1+1 head = 512+2080+33
        assert sum(p.size for p in build_mlp().params()) == 2625

    def test_lstm_parameter_count(self):
        # 4 gate blocks of 50*(50+1)+50, plus a 50->1 head = 10400+51
        assert sum(p.size for p in build_lstm().params()) == 10451

    def test_mlp_layer_layout(self):
        kinds = [layer["kind"] for layer in build_mlp().spec()]
        assert kinds == ["dense", "dropout", "dense", "dropout", "dense"]
        widths = [l["n_out"] for l in build_mlp().spec() if l["kind"] == "dense"]
        assert widths == [64, 32, 1]
        rates = [l["rate"] for l in build_mlp().spec() if l["kind"] == "dropout"]
        assert rates == pytest.approx([0.2, 0.1])

    def test_lstm_layer_layout(self):
        spec = build_lstm().spec()
        assert [layer["kind"] for layer in spec] == ["lstm", "dropout", "dense"]
        assert spec[0]["hidden"] == 50
        assert spec[0]["activation"] == "relu"
        assert spec[1]["rate"] == pytest.approx(0.2)


class TestMlpPredict:
    def make_data(self, rng, n=40):
        features = rng.uniform(0.0, 30.0, size=(n, 7))
        targets = rng.uniform(100.0, 900.0, size=n)
        return features, targets

    def test_zero_weight_model_predicts_target_minimum(self):
        # All-zero weights force the scaled output to 0, and the inverse
        # scale of 0 is the fitted minimum.
        rng = np.random.default_rng(0)
        features, targets = self.make_data(rng)
        f_scaler, t_scaler = fitted_scalers(features, targets)
        model = build_mlp()  # no rng: weights and biases start at zero
        pred = mlp_predict(model, features, f_scaler, t_scaler)
        assert pred.shape == (40,)
        assert np.allclose(pred, targets.min())

    def test_inference_is_deterministic(self):
        rng = np.random.default_rng(1)
        features, targets = self.make_data(rng)
        f_scaler, t_scaler = fitted_scalers(features, targets)
        model = build_mlp(rng=np.random.default_rng(7))
        a = mlp_predict(model, features, f_scaler, t_scaler)
        b = mlp_predict(model, features, f_scaler, t_scaler)
        assert np.array_equal(a, b)

    def test_r2_identical_in_watts_and_scaled_units(self):
        # Min-max scaling is affine, so R^2 computed on watt outputs must
        # match R^2 computed in scaled space after a short training run.
        # Dropout stays on in training, as in production.
        rng = np.random.default_rng(2)
        features, _ = self.make_data(rng, n=200)
        targets = 40.0 * features[:, 0] + 300.0 + rng.normal(0, 25, size=200)
        f_scaler, t_scaler = fitted_scalers(features, targets)
        x = transform(features, f_scaler)
        y = transform(targets, t_scaler)
        model = build_mlp(rng=np.random.default_rng(3))
        config = TrainConfig(max_epochs=30, patience=30, learning_rate=3e-3)
        train(model, (x, y), (x, y), config, np.random.default_rng(4))

        pred_w = mlp_predict(model, features, f_scaler, t_scaler)
        scaled_pred = transform(pred_w, t_scaler)

        def r2(p, a):
            return 1.0 - np.sum((p - a) ** 2) / np.sum((a - a.mean()) ** 2)

        assert r2(pred_w, targets) == pytest.approx(r2(scaled_pred, y), abs=1e-9)
        assert r2(pred_w, targets) > 0.5  # the linear signal is learnable

    def test_consumption_history_column_rejected(self):
        # The model input is weather plus time of day only; widening the
        # matrix with a history column must fail, not silently retrain.
        rng = np.random.default_rng(5)
        features, targets = self.make_data(rng)
        f_scaler, t_scaler = fitted_scalers(features, targets)
        model = build_mlp()
        widened = np.column_stack([features, targets])
        with raises_exactly(ShapeError,
                            "input has 8 columns, scaler was fitted on 7"):
            mlp_predict(model, widened, f_scaler, t_scaler)

    def test_one_dimensional_input_rejected(self):
        rng = np.random.default_rng(6)
        features, targets = self.make_data(rng)
        f_scaler, t_scaler = fitted_scalers(features, targets)
        with raises_exactly(ShapeError,
                            "1-D input is single-column but scaler has 7 columns"):
            mlp_predict(build_mlp(), features[0], f_scaler, t_scaler)

    def test_scaler_width_must_match_model(self):
        rng = np.random.default_rng(8)
        features, targets = self.make_data(rng)
        narrow_scaler = fit_scaler(features[:, :3])
        t_scaler = fit_scaler(targets)
        with raises_exactly(ShapeError,
                            "input has 7 columns, scaler was fitted on 3"):
            mlp_predict(build_mlp(), features, narrow_scaler, t_scaler)


class TestLstmPredict:
    def make_windows(self, rng, n=120):
        series = rng.uniform(50.0, 2000.0, size=n)
        t_scaler = fit_scaler(series)
        windows = make_windows(transform(series, t_scaler), 24)
        return windows, t_scaler

    def test_constant_series_through_zero_model(self):
        series = np.full(60, 700.0)
        scaler = fit_scaler(np.array([0.0, 1400.0]))
        windows = make_windows(transform(series, scaler), 24)
        pred = lstm_predict(build_lstm(), windows, scaler)
        # Zero weights keep every hidden state at zero, so the head emits
        # scaled 0 for every window: the scaler minimum in watts.
        assert np.allclose(pred, 0.0)

    def test_one_prediction_per_window(self):
        rng = np.random.default_rng(10)
        windows, scaler = self.make_windows(rng)
        model = build_lstm(rng=np.random.default_rng(11))
        pred = lstm_predict(model, windows, scaler)
        assert pred.shape == (len(windows.targets),)
        assert np.all(np.isfinite(pred))

    def test_batch_partitioning_leaves_predictions_unchanged(self):
        # Enough windows for two network calls of 2 * EVAL_CHUNK rows and
        # a short third one; scoring slices of them one call each must
        # agree to rounding.
        rng = np.random.default_rng(12)
        windows, scaler = self.make_windows(rng, n=4 * EVAL_CHUNK + 130)
        model = build_lstm(rng=np.random.default_rng(13))
        whole = lstm_predict(model, windows, scaler)
        parts = np.concatenate([
            lstm_predict(model, WindowBatch(windows.inputs[i:i + 16],
                                            windows.targets[i:i + 16]), scaler)
            for i in range(0, len(windows), 16)])
        assert np.allclose(whole, parts, rtol=0.0, atol=1e-9)

    def test_wrong_feature_dim_rejected(self):
        # The network reads one value per step; wider windows fail in the
        # LSTM layer rather than being truncated.
        rng = np.random.default_rng(15)
        windows, scaler = self.make_windows(rng)
        wide = WindowBatch(np.repeat(windows.inputs, 2, axis=2), windows.targets)
        with raises_exactly(ShapeError,
                            "lstm layer expects (B, L, 1), got (96, 24, 2)"):
            lstm_predict(build_lstm(), wide, scaler)


class TestSerializationRoundTrip:
    def test_mlp_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(20)
        features = rng.uniform(0.0, 30.0, size=(25, 7))
        targets = rng.uniform(100.0, 900.0, size=25)
        f_scaler, t_scaler = fitted_scalers(features, targets)
        model = build_mlp(rng=np.random.default_rng(21))
        path = tmp_path / "mlp.npz"
        save_model(model, path, metadata={"kind": "mlp"})
        loaded, metadata = load_model(path)
        assert metadata == {"kind": "mlp"}
        assert sum(p.size for p in loaded.params()) == 2625
        original = mlp_predict(model, features, f_scaler, t_scaler)
        restored = mlp_predict(loaded, features, f_scaler, t_scaler)
        assert np.array_equal(original, restored)

    def test_lstm_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(22)
        series = rng.uniform(50.0, 2000.0, size=90)
        scaler = fit_scaler(series)
        windows = make_windows(transform(series, scaler), 24)
        model = build_lstm(rng=np.random.default_rng(23))
        path = tmp_path / "lstm.npz"
        save_model(model, path, metadata={})
        loaded, _ = load_model(path)
        assert sum(p.size for p in loaded.params()) == 10451
        original = lstm_predict(model, windows, scaler)
        restored = lstm_predict(loaded, windows, scaler)
        assert np.array_equal(original, restored)

    @pytest.mark.parametrize("layer, change", [
        (0, {"activation": "tanh"}),
        (1, {"rate": 0.0}),
        (2, {"activation": "sigmoid"}),
        (0, {"kind": "gru"}),
    ], ids=["tanh-lstm", "rate-0-dropout", "sigmoid-dense", "unknown-kind"])
    def test_load_refuses_a_layer_gridcast_does_not_build(self, tmp_path,
                                                          layer, change):
        model = build_lstm(rng=np.random.default_rng(24))
        spec = model.spec()
        spec[layer].update(change)
        path = tmp_path / "lstm.npz"
        np.savez(path, spec=np.array(json.dumps({"layers": spec})),
                 **{f"param_{i}": p for i, p in enumerate(model.params())})
        with pytest.raises(CorruptArtifactError, match=rf"\Acannot read "
                           rf"model file {re.escape(str(path))}: "):
            load_model(path)
