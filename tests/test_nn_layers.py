"""Layer-level tests: forward passes against brute-force oracles,
dropout statistics, parameter counting, the rule that an eval-mode
forward retains nothing, and how the eval-mode LSTM shares its blocks
with a helper thread."""
import threading
import tracemalloc

import numpy as np
import pytest

from gridcast.errors import ShapeError
from gridcast.models import build_lstm
from gridcast.nn import layers
from gridcast.nn.layers import (
    EVAL_CHUNK,
    LSTM,
    Dense,
    Dropout,
    Network,
    sigmoid,
)
from gridcast.nn.training import predict_batches
from helpers import raises_exactly


class TestDense:
    def test_zero_weights_give_zero_output(self):
        layer = Dense(3, 2)
        out = layer.forward(np.ones((4, 3)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_identity_weights_pass_input_through(self):
        layer = Dense(3, 3)
        layer.W[:] = np.eye(3)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(layer.forward(x), x)

    def test_matches_brute_force_matmul(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, activation="relu", rng=rng)
        layer.b[:] = rng.normal(size=2)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x)
        # Independent oracle: explicit loops, no matrix products.
        for r in range(4):
            for o in range(2):
                z = layer.b[o]
                for c in range(3):
                    z += x[r, c] * layer.W[o, c]
                assert out[r, o] == pytest.approx(max(z, 0.0), abs=1e-12)

    def test_bias_is_added(self):
        layer = Dense(2, 2)
        layer.b[:] = [5.0, -3.0]
        out = layer.forward(np.zeros((1, 2)))
        assert np.array_equal(out[0], [5.0, -3.0])

    def test_shape_mismatch(self):
        layer = Dense(3, 2)
        with raises_exactly(ShapeError, "dense layer expects (B, 3), got (4, 5)"):
            layer.forward(np.zeros((4, 5)))

    def test_backward_before_forward(self):
        with raises_exactly(ShapeError, "dense backward called before a "
                            "train-mode forward"):
            Dense(3, 2).backward(np.zeros((4, 2)))

    def test_glorot_limit(self):
        rng = np.random.default_rng(1)
        layer = Dense(7, 64, rng=rng)
        limit = np.sqrt(6.0 / (7 + 64))
        assert np.all(np.abs(layer.W) <= limit)
        assert np.any(np.abs(layer.W) > limit * 0.5)
        assert np.array_equal(layer.b, np.zeros(64))


def _manual_unroll(cell, seq):
    """Final hidden state of an (L, F) sequence, one step at a time from
    the zero state, with each gate written out, an exp sigmoid and relu."""
    W_f, W_i, W_c, W_o = np.split(cell.W, 4)
    b_f, b_i, b_c, b_o = np.split(cell.b, 4)
    h = c = np.zeros(cell.hidden)
    for x_t in seq:
        hx = np.concatenate([h, x_t])
        f = 1.0 / (1.0 + np.exp(-(W_f @ hx + b_f)))
        i = 1.0 / (1.0 + np.exp(-(W_i @ hx + b_i)))
        o = 1.0 / (1.0 + np.exp(-(W_o @ hx + b_o)))
        c = f * c + i * np.maximum(W_c @ hx + b_c, 0.0)
        h = o * np.maximum(c, 0.0)
    return h


class TestLstmForward:
    def test_length_one_equals_single_step_from_zero_state(self):
        rng = np.random.default_rng(9)
        cell = LSTM(1, 5, rng=rng)
        seq = rng.normal(size=(1, 1))
        h_forward = cell.forward(seq[None])[0]
        assert np.allclose(h_forward, _manual_unroll(cell, seq), atol=1e-15)

    def test_matches_manual_unroll(self):
        rng = np.random.default_rng(10)
        cell = LSTM(1, 4, rng=rng)
        seq = rng.normal(size=(6, 1))
        assert np.allclose(cell.forward(seq[None])[0], _manual_unroll(cell, seq),
                           atol=1e-15)

    def test_zero_weights_give_zero_hidden(self):
        cell = LSTM(1, 4)
        out = cell.forward(np.ones((3, 8, 1)))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(11)
        cell = LSTM(1, 4, rng=rng)
        batch = rng.normal(size=(5, 7, 1))
        together = cell.forward(batch)
        for r in range(5):
            assert np.allclose(together[r], cell.forward(batch[r:r + 1])[0],
                               atol=1e-15)

    def test_rejects_wrong_feature_count(self):
        cell = LSTM(1, 4)
        with raises_exactly(ShapeError,
                            "lstm layer expects (B, L, 1), got (2, 8, 3)"):
            cell.forward(np.zeros((2, 8, 3)))

    def test_train_forward_holds_one_batch_of_bptt_state(self):
        # At the production shape one batch's BPTT state is about 6.55 MB.
        # Building the next while the last is still alive peaks at twice
        # that. A batch one row short, as an epoch's last batch can be,
        # needs new arrays. The fixed bound keeps the limit from growing
        # with the cache: 6.55 MB is 25 rows of c (256 x 50), 24 rows of
        # the four gates (256 x 50), and the cell's one-step input hx
        # (256 x 51) and scratch z (256 x 200), ig and act(c) (256 x 50)
        # in float32. A slab of hx for every step would add 1.25 MB, and
        # one of act(c) 1.23 MB.
        rng = np.random.default_rng(12)
        cell = LSTM(1, 50, rng=rng, dtype=np.float32)
        x = rng.uniform(size=(256, 24, 1)).astype(np.float32)
        tracemalloc.start()
        try:
            cell.backward(np.ones_like(cell.forward(x, train=True)))
            tracemalloc.reset_peak()
            cell.forward(x[1:], train=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * sum(a.nbytes for a in cell._cache)
        assert peak < 1.05 * 6.55e6

    def test_train_forward_reuses_the_state_of_a_same_shape_batch(self):
        # Fresh arrays of this size come from newly mapped pages, which
        # made the train-mode forward a quarter slower. The batch's x is
        # held beside the state, not in it.
        rng = np.random.default_rng(13)
        cell = LSTM(1, 50, rng=rng, dtype=np.float32)
        x = rng.uniform(size=(256, 24, 1)).astype(np.float32)
        cell.backward(np.ones_like(cell.forward(x, train=True)))
        state = cell._cache
        y = rng.uniform(size=x.shape).astype(np.float32)
        h = cell.forward(y, train=True)
        assert all(new is old for new, old in zip(cell._cache, state))
        assert cell._x is y and not any(a is y for a in state)
        assert np.array_equal(h, cell.forward(y))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out = Dropout(0.5).forward(x, train=False)
        assert np.array_equal(out, x)
        # No mask is drawn or applied: the input comes back untouched.
        assert out is x

    def test_survivors_scaled_to_preserve_expectation(self):
        rng = np.random.default_rng(12)
        x = np.ones((100_000,))
        out = Dropout(0.5).forward(x, train=True, rng=rng)
        kept = (out != 0.0).mean()
        assert abs(kept - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.02
        # Survivors carry exactly 1/(1-rate).
        assert np.all(np.isin(out, [0.0, 2.0]))

    def test_invalid_rate(self):
        for rate in (0.0, 1.0, -0.1):
            with raises_exactly(ShapeError,
                                f"dropout rate must be in (0, 1), got {rate}"):
                Dropout(rate)

    def test_train_mode_requires_rng(self):
        with raises_exactly(ShapeError,
                            "dropout in train mode requires a random generator"):
            Dropout(0.5).forward(np.ones(3), train=True, rng=None)

    def test_layer_backward_masks_gradient(self):
        layer = Dropout(0.5)
        rng = np.random.default_rng(13)
        x = np.ones((4, 6))
        out = layer.forward(x, train=True, rng=rng)
        dout = np.ones_like(out)
        din = layer.backward(dout)
        # Gradient flows only through survivors, with the same scaling.
        assert np.array_equal(din != 0.0, out != 0.0)
        assert np.all(np.isin(din, [0.0, 2.0]))


class TestNetwork:
    def test_count_params_examples(self):
        assert sum(p.size for p in Network([Dense(1, 1)]).params()) == 2
        mlp = Network([
            Dense(7, 64, "relu"), Dropout(0.2),
            Dense(64, 32, "relu"), Dropout(0.1),
            Dense(32, 1),
        ])
        assert sum(p.size for p in mlp.params()) == 2625
        lstm = Network([LSTM(1, 50), Dropout(0.2), Dense(50, 1)])
        assert sum(p.size for p in lstm.params()) == 10451

    def test_forward_chains_layers(self):
        net = Network([Dense(2, 2), Dense(2, 1)])
        net.layers[0].W[:] = np.eye(2)
        net.layers[1].W[:] = [[1.0, 1.0]]
        out = net.forward(np.array([[3.0, 4.0]]))
        assert out[0, 0] == 7.0

    def test_get_set_weights_round_trip(self):
        rng = np.random.default_rng(14)
        net = Network([Dense(3, 4, "relu", rng=rng), Dense(4, 1, rng=rng)])
        saved = [p.copy() for p in net.params()]
        for p in net.params():
            p += 1.0
        net.set_weights(saved)
        for p, s in zip(net.params(), saved):
            assert np.array_equal(p, s)

    def test_set_weights_shape_check(self):
        net = Network([Dense(3, 4)])
        with raises_exactly(ShapeError, "expected 2 parameter arrays, got 1"):
            net.set_weights([np.zeros((4, 3))])  # missing bias
        with raises_exactly(ShapeError, "shape (3, 4) != parameter (4, 3)"):
            net.set_weights([np.zeros((3, 4)), np.zeros(4)])


class TestEvalRetainsNothing:
    """Only a train-mode forward keeps what backward() needs."""

    @pytest.mark.parametrize("layer, x, first", [
        (LSTM(1, 4, rng=np.random.default_rng(15)), np.ones((2, 5, 1)), "lstm"),
        (Dense(3, 2, "relu", rng=np.random.default_rng(16)), np.ones((4, 3)),
         "dense"),
        (Dropout(0.5), np.ones((4, 3)), "dropout"),
        (Network([LSTM(1, 4), Dropout(0.2), Dense(4, 1)]), np.ones((2, 5, 1)),
         "dense"),
    ], ids=["lstm", "dense", "dropout", "network"])
    def test_backward_after_eval_forward_raises(self, layer, x, first):
        # ``first`` is the layer whose backward runs first and finds no cache.
        rng = np.random.default_rng(17)
        out = layer.forward(x, train=True, rng=rng)
        layer.backward(np.ones_like(out))
        # The eval forward drops the cache the train forward left behind.
        out = layer.forward(x, train=False)
        with raises_exactly(ShapeError, f"{first} backward called before a "
                            "train-mode forward"):
            layer.backward(np.ones_like(out))

    def test_eval_output_equals_train_output_without_dropout(self):
        rng = np.random.default_rng(18)
        net = Network([LSTM(1, 6, rng=rng), Dense(6, 3, "relu", rng=rng),
                       Dense(3, 1, rng=rng)])
        x = rng.normal(size=(7, 9, 1))
        evaluated = net.forward(x, train=False)
        trained = net.forward(x, train=True, rng=np.random.default_rng(19))
        assert np.array_equal(evaluated, trained)

    def test_production_lstm_inference_memory(self):
        # One eval call of 4,096 windows on the production model, 24 steps
        # each. Caching all 24 steps in float32 would hold about 150 MiB.
        # The network is called directly: predict_batches passes it at
        # most 2 * EVAL_CHUNK rows, whose cache could pass the peak bound.
        model = build_lstm(rng=np.random.default_rng(20))
        x = np.random.default_rng(21).normal(
            size=(4096, 24, 1)).astype(np.float32)
        mib = 2 ** 20
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = model.forward(x, train=False)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (4096, 1)
        assert (peak - before) / mib < 64.0
        assert (after - before) / mib < 8.0


class TestEvalBlocks:
    """An eval-mode LSTM forward scores EVAL_CHUNK-row blocks, the odd
    ones on one helper thread when two CPUs are usable."""

    def record_threads(self, monkeypatch, methods):
        """Patch each (class, name) to log the thread of every call."""
        calls = []
        for cls, name in methods:
            def logged(*args, _inner=getattr(cls, name),
                       _label=f"{cls.__name__}.{name}", **kwargs):
                calls.append((_label, threading.get_ident()))
                return _inner(*args, **kwargs)
            monkeypatch.setattr(cls, name, logged)
        return calls

    def test_helper_runs_only_the_cell_loop(self, monkeypatch):
        # A tracer wraps forward() and is not thread-safe: the helper may
        # enter nothing but _score_blocks.
        monkeypatch.setattr(layers, "_usable_cpus", lambda: 2)
        calls = self.record_threads(monkeypatch, [
            (LSTM, "forward"), (Dense, "forward"), (Dropout, "forward"),
            (LSTM, "_score_blocks")])
        model = build_lstm(rng=np.random.default_rng(22))
        x = np.random.default_rng(23).normal(size=(3 * EVAL_CHUNK, 24, 1))
        predict_batches(model, x)
        main = threading.get_ident()
        assert {t for label, t in calls if label != "LSTM._score_blocks"} == {main}
        cell_threads = [t for label, t in calls if label == "LSTM._score_blocks"]
        # Calls of 2 and 1 blocks: the helper takes one block of the first.
        assert len(set(cell_threads)) == 2 and cell_threads.count(main) == 2

    @pytest.mark.parametrize("cpus, rows", [(1, 3 * EVAL_CHUNK), (2, EVAL_CHUNK)],
                             ids=["one-cpu", "one-block"])
    def test_no_helper_without_two_cpus_and_two_blocks(self, monkeypatch,
                                                       cpus, rows):
        monkeypatch.setattr(layers, "_usable_cpus", lambda: cpus)
        calls = self.record_threads(monkeypatch, [(LSTM, "_score_blocks")])
        LSTM(1, 4, rng=np.random.default_rng(24)).forward(np.ones((rows, 3, 1)))
        assert calls == [("LSTM._score_blocks", threading.get_ident())]

    def test_helper_failure_is_raised_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(layers, "_usable_cpus", lambda: 2)
        main = threading.get_ident()
        score = LSTM._score_blocks

        def failing_off_main(self, *args):
            if threading.get_ident() != main:
                raise RuntimeError("helper failed")
            return score(self, *args)

        monkeypatch.setattr(LSTM, "_score_blocks", failing_off_main)
        lstm = LSTM(1, 4, rng=np.random.default_rng(25))
        with pytest.raises(RuntimeError, match="helper failed"):
            lstm.forward(np.ones((EVAL_CHUNK + 1, 3, 1)))

    @pytest.mark.parametrize("activation", ["relu"])
    def test_cell_loop_allocates_no_array(self, activation):
        # One (1,024, 50) float32 gate is 200 KiB. With the workspace given
        # the loop allocates no such array; what remains is the 32 KiB
        # buffer numpy's iterator takes for an operation on strided views.
        lstm = LSTM(1, 50, rng=np.random.default_rng(26),
                    dtype=np.float32)
        x = np.random.default_rng(27).normal(
            size=(EVAL_CHUNK, 24, 1)).astype(np.float32)
        out = np.zeros((EVAL_CHUNK, 50), dtype=np.float32)
        workspace = lstm._workspace(EVAL_CHUNK)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            lstm._score_blocks(x, out, range(0, EVAL_CHUNK, EVAL_CHUNK),
                               workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024
        assert np.array_equal(out, lstm.forward(x))


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        assert sigmoid(np.array([30.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(np.array([-30.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_no_overflow_at_extremes(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_symmetry(self):
        z = np.linspace(-10, 10, 101)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_matches_reference_formula(self):
        z = np.linspace(-40, 40, 10001)
        reference = 1.0 / (1.0 + np.exp(-z))
        assert np.max(np.abs(sigmoid(z) - reference)) <= 1e-15
