"""The row contract of gridcast.pipeline against a plain row-by-row
reference.

A run is captured where its arrays meet the models: what pipeline.train
receives for each network, what pipeline.lstm_predict and
pipeline.mlp_predict score, and each baseline's stored predictions. The
reference rebuilds every one of those arrays with a plain Python loop
over target rows, straight from the contract: the train rows are the
first floor(0.8 n), a test target t reads its window rows t - 24 ... t - 1
of the series scaled by the train rows' min and max, its feature row t
(the weather of its date, found through a date -> weather dict, then its
decimal hour) or its lag row t - k. Every array must be bitwise equal.
The household has distinct readings, so reading a neighbouring row
anywhere would show.
"""
import numpy as np

from gridcast import pipeline
from gridcast.config import from_flat_dict
from gridcast.nn.layers import LSTM
from gridcast.synth import SynthConfig, generate
from gridcast.types import SLOTS_PER_DAY
from helpers import read_predictions

DAYS = 8
WINDOW = 24


def run_config(models=("naive", "seasonal-naive", "mlp", "lstm")):
    return from_flat_dict({"synth.days": DAYS, "synth.seed": 3,
                           "train.max_epochs": 1, "models": list(models)})


def capture(monkeypatch):
    """Record the arrays each network trains on and is scored on."""
    seen = {}

    def train(model, train_data, val_data, config, rng):
        name = "lstm" if isinstance(model.layers[0], LSTM) else "mlp"
        seen[f"{name} train"] = tuple(
            np.concatenate([t, v]) for t, v in zip(train_data, val_data))
        return real_train(model, train_data, val_data, config, rng)

    def lstm_predict(model, windows, scaler):
        seen["lstm test"] = (np.array(windows.inputs), np.array(windows.targets))
        return real_lstm(model, windows, scaler)

    def mlp_predict(model, features, feature_scaler, target_scaler):
        seen["mlp test"] = np.array(features)
        return real_mlp(model, features, feature_scaler, target_scaler)

    real_train, real_lstm, real_mlp = (
        pipeline.train, pipeline.lstm_predict, pipeline.mlp_predict)
    monkeypatch.setattr(pipeline, "train", train)
    monkeypatch.setattr(pipeline, "lstm_predict", lstm_predict)
    monkeypatch.setattr(pipeline, "mlp_predict", mlp_predict)
    return seen


def assert_same_bits(got, want, what):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def scaled(value, low, high):
    """Min-max scaling; a column constant over the train rows maps to 0."""
    return (value - low) / (high - low) if high > low else 0.0


def feature_row(frame, weather_of, t):
    """The seven features of row t: its date's weather, then its hour."""
    slot = int(frame.times[t]) % SLOTS_PER_DAY
    hour = slot // 12 + (slot % 12 * 5) / 60.0
    return list(weather_of[int(frame.times[t]) // SLOTS_PER_DAY]) + [hour]


def test_every_model_reads_the_rows_of_the_contract(tmp_path, monkeypatch):
    frame, _ = generate(SynthConfig(days=DAYS, seed=3))
    y = frame.consumption.tolist()
    n = len(y)
    assert len(set(y)) == n
    seen = capture(monkeypatch)
    pipeline.run_experiment(run_config(), tmp_path)

    boundary = int(0.8 * n)
    train_rows = range(boundary)
    test_targets = range(boundary + WINDOW, n)

    # Baselines: the reading k rows before each test target, stored
    # beside that target's time and reading.
    for name, k in (("naive", 1), ("seasonal-naive", SLOTS_PER_DAY)):
        times, actual, predicted = read_predictions(tmp_path, name)
        assert times.tolist() == [int(frame.times[t]) for t in test_targets]
        assert_same_bits(actual, np.array([y[t] for t in test_targets]), name)
        want = np.array([y[t - k] for t in test_targets])
        assert_same_bits(predicted, want, name)

    # lstm: windows of the series scaled by the train rows' range.
    low = min(y[t] for t in train_rows)
    high = max(y[t] for t in train_rows)

    def windows(targets):
        inputs = [[[scaled(y[s], low, high)] for s in range(t - WINDOW, t)]
                  for t in targets]
        outputs = [scaled(y[t], low, high) for t in targets]
        return (np.array(inputs, dtype=np.float32),
                np.array(outputs, dtype=np.float32))

    for key, targets in (("lstm train", range(WINDOW, boundary)),
                         ("lstm test", test_targets)):
        for got, want in zip(seen[key], windows(targets)):
            assert_same_bits(got, want, key)

    # mlp: feature rows through a date -> weather dict, scaled by the
    # train rows' range of each column and cast to float32 to train, as
    # the lstm's windows are, raw to score.
    weather_of = dict(zip(frame.weather.dates.tolist(),
                          map(tuple, frame.weather.values.tolist())))
    train_features = [feature_row(frame, weather_of, t) for t in train_rows]
    lows = [min(column) for column in zip(*train_features)]
    highs = [max(column) for column in zip(*train_features)]
    want_inputs = np.array([[scaled(v, lo, hi)
                             for v, lo, hi in zip(row, lows, highs)]
                            for row in train_features], dtype=np.float32)
    want_targets = np.array([scaled(y[t], low, high) for t in train_rows])
    got_inputs, got_targets = seen["mlp train"]
    assert_same_bits(got_inputs, want_inputs, "mlp train inputs")
    assert_same_bits(got_targets, want_targets, "mlp train targets")
    want_test = np.array([feature_row(frame, weather_of, t)
                          for t in test_targets])
    assert_same_bits(seen["mlp test"], want_test, "mlp test")


def test_features_are_built_only_at_the_rows_read(tmp_path, monkeypatch):
    # The scalers and the mlp read the train rows, and the mlp scores
    # the test targets; no call needs the feature rows of the whole frame.
    rows = []
    real = pipeline.feature_matrix

    def feature_matrix(frame, *selection):
        features = real(frame, *selection)
        rows.append((len(frame), len(features)))
        return features

    monkeypatch.setattr(pipeline, "feature_matrix", feature_matrix)
    pipeline.run_experiment(run_config(models=("naive", "mlp")), tmp_path)
    n = DAYS * SLOTS_PER_DAY
    boundary = int(0.8 * n)
    assert rows == [(n, boundary), (n, boundary), (n, n - boundary - WINDOW)]
