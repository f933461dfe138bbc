"""Analytic gradients versus central finite differences.

The numeric oracle perturbs every parameter scalar by +/- h and
re-evaluates the loss; it shares no code with the backward passes. The
backward pass is declared correct only when every parameter's relative
error stays below 1e-4.
"""
import numpy as np
import pytest

from gridcast.nn.layers import LSTM, Dense, Dropout, Network
from gridcast.nn.losses import mse_loss

H_STEP = 1e-5
TOLERANCE = 1e-4
# Gradients below this magnitude (both analytic and numeric) are treated
# as zero: central differences bottom out near 1e-11 in float64.
ZERO_FLOOR = 1e-7


def randomize_biases(model, rng, scale=0.1):
    """Move biases off zero before checking gradients.

    With zero biases, a batch row that silences every unit of a relu
    layer lands the next layer's pre-activation exactly on the relu
    kink, where the loss is not differentiable and central differences
    straddle the corner. Random biases make the evaluation point
    generic; the analytic backward pass is unchanged.
    """
    for layer in model.layers:
        if isinstance(layer, Dense):
            layer.b[:] = rng.normal(size=layer.b.shape) * scale


# How far every relu input of an LSTM check stays from the kink at 0:
# a hundred times the finite-difference step, so that no perturbation of
# one parameter or input carries a pre-activation across it.
KINK_MARGIN = 100 * H_STEP


def distance_from_relu_kinks(lstm, x):
    """The smallest |z| over the relu inputs z of a train-mode forward of
    ``x``: each step's candidate pre-activation and each nonzero cell
    state. A cell state of exactly 0 is no kink: it stays 0 while every
    candidate that fed it stays negative."""
    lstm.forward(x, train=True)
    c, o = lstm._cache[0], lstm._cache[4]
    hsz = lstm.hidden
    # Row t is [h_(t-1), x_t], with h_(t-1) = o_(t-1) * relu(c_t).
    h = np.concatenate([np.zeros_like(c[:1]), o[:-1] * np.maximum(c[1:-1], 0.0)])
    hx = np.concatenate([h, x.transpose(1, 0, 2)], axis=2)
    candidate = hx @ lstm.W[2 * hsz:3 * hsz].T + lstm.b[2 * hsz:3 * hsz]
    state = np.abs(c[1:])
    return min(np.abs(candidate).min(), state[state > 0.0].min())


def numeric_gradients(loss_fn, params, h=H_STEP):
    """Central finite differences, one scalar at a time."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for k in range(flat_p.size):
            saved = flat_p[k]
            flat_p[k] = saved + h
            up = loss_fn()
            flat_p[k] = saved - h
            down = loss_fn()
            flat_p[k] = saved
            flat_g[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for av, nv in zip(a.ravel(), n.ravel()):
            scale = max(abs(av), abs(nv))
            if scale < ZERO_FLOOR:
                continue
            worst = max(worst, abs(av - nv) / scale)
    return worst


def check_model_gradients(model, x, y, rng_for_dropout=None, dropout_seed=None):
    """Compare model.backward() against the numeric oracle for one batch."""
    def loss_fn():
        if dropout_seed is not None:
            pred = model.forward(x, train=True, rng=np.random.default_rng(dropout_seed))
        else:
            pred = model.forward(x, train=False)
        return mse_loss(pred, y)[0]

    if dropout_seed is not None:
        pred = model.forward(x, train=True, rng=np.random.default_rng(dropout_seed))
    else:
        # Only a train-mode forward caches what backward() needs; without
        # dropout it computes the same function as eval mode.
        pred = model.forward(x, train=True)
    _, grad = mse_loss(pred, y)
    model.backward(grad)
    analytic = [g.copy() for g in model.grads()]
    numeric = numeric_gradients(loss_fn, model.params())
    return max_relative_error(analytic, numeric)


class TestMlpGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_small_mlp_every_parameter(self, seed):
        rng = np.random.default_rng(seed)
        model = Network([
            Dense(7, 4, "relu", rng=rng),
            Dense(4, 3, "relu", rng=rng),
            Dense(3, 1, rng=rng),
        ])
        randomize_biases(model, rng)
        x = rng.normal(size=(8, 7))
        y = rng.normal(size=(8, 1))
        assert check_model_gradients(model, x, y) < TOLERANCE

    def test_identity_activation_only(self):
        rng = np.random.default_rng(100)
        model = Network([Dense(3, 2, rng=rng), Dense(2, 1, rng=rng)])
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 1))
        assert check_model_gradients(model, x, y) < TOLERANCE

    def test_zero_residual_means_zero_gradients(self):
        rng = np.random.default_rng(101)
        model = Network([Dense(2, 3, "relu", rng=rng), Dense(3, 1, rng=rng)])
        x = rng.normal(size=(6, 2))
        y = model.forward(x)  # targets equal predictions exactly
        _, grad = mse_loss(model.forward(x, train=True), y)
        model.backward(grad)
        for g in model.grads():
            assert np.array_equal(g, np.zeros_like(g))


class TestLstmGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_relu_cell_every_parameter(self, seed):
        rng = np.random.default_rng(seed)
        model = Network([LSTM(1, 4, rng=rng), Dense(4, 1, rng=rng)])
        x = rng.normal(size=(3, 5, 1))
        y = rng.normal(size=(3, 1))
        assert check_model_gradients(model, x, y) < TOLERANCE

    def test_longer_window(self):
        rng = np.random.default_rng(42)
        model = Network([LSTM(1, 3, rng=rng), Dense(3, 1, rng=rng)])
        x = rng.normal(size=(2, 12, 1))
        y = rng.normal(size=(2, 1))
        assert distance_from_relu_kinks(model.layers[0], x) > KINK_MARGIN
        assert check_model_gradients(model, x, y) < TOLERANCE

    def test_input_gradient_matches_finite_differences(self):
        # Perturb the inputs rather than the parameters: backward() must
        # also report d loss / d x correctly for BPTT to be trusted.
        rng = np.random.default_rng(43)
        model = Network([LSTM(1, 3, rng=rng), Dense(3, 1, rng=rng)])
        x = rng.normal(size=(2, 4, 1))
        y = rng.normal(size=(2, 1))
        assert distance_from_relu_kinks(model.layers[0], x) > KINK_MARGIN

        pred = model.forward(x, train=True)
        _, grad = mse_loss(pred, y)
        dx = model.backward(grad)

        numeric = np.zeros_like(x)
        flat_x, flat_n = x.ravel(), numeric.ravel()
        for k in range(flat_x.size):
            saved = flat_x[k]
            flat_x[k] = saved + H_STEP
            up = mse_loss(model.forward(x, train=False), y)[0]
            flat_x[k] = saved - H_STEP
            down = mse_loss(model.forward(x, train=False), y)[0]
            flat_x[k] = saved
            flat_n[k] = (up - down) / (2.0 * H_STEP)
        assert max_relative_error([dx], [numeric]) < TOLERANCE


class TestDropoutGradients:
    def test_frozen_mask_gradient(self):
        # Re-seeding the generator on every loss evaluation freezes the
        # dropout mask, making the loss differentiable and checkable.
        rng = np.random.default_rng(7)
        model = Network([
            Dense(3, 6, "relu", rng=rng),
            Dropout(0.5),
            Dense(6, 1, rng=rng),
        ])
        randomize_biases(model, rng)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 1))
        assert check_model_gradients(model, x, y, dropout_seed=77) < TOLERANCE
