"""The production LSTM against a plain reference cell.

The reference below is the straightforward form of the cell: one
concatenated gate matmul, a separate sigmoid per gate, a 0/1 float relu
mask, the four gate gradients concatenated, and the weight gradients
accumulated last step first. LSTM.forward and LSTM.backward compute the
same arithmetic in the same order, so every output and gradient must be
bitwise equal, not merely close.
"""
import numpy as np
import pytest

from gridcast.nn.layers import LSTM


def _sigmoid(z):
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _act(z, activation):
    return np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)


def _act_grad(value, pre, activation):
    if activation == "tanh":
        return 1.0 - value * value
    return (pre > 0.0).astype(pre.dtype)


def reference_forward(W, b, activation, x):
    """Final hidden state and the per-step caches of a (B, L, F) batch."""
    batch, length, _ = x.shape
    hsz = b.shape[0] // 4
    h = np.zeros((batch, hsz), dtype=W.dtype)
    c = np.zeros_like(h)
    caches = []
    for t in range(length):
        hx = np.concatenate([h, x[:, t, :]], axis=1)
        z = hx @ W.T + b
        f = _sigmoid(z[:, 0 * hsz:1 * hsz])
        i = _sigmoid(z[:, 1 * hsz:2 * hsz])
        g = _act(z[:, 2 * hsz:3 * hsz], activation)
        o = _sigmoid(z[:, 3 * hsz:4 * hsz])
        c_prev = c
        c = f * c_prev + i * g
        a = _act(c, activation)
        h = o * a
        caches.append((hx, f, i, g, o, c_prev, c, a))
    return h, caches


def reference_backward(W, activation, caches, dout, n_in):
    """(dx, dW, db) by backpropagation through time."""
    batch, hsz = dout.shape
    length = len(caches)
    dW = np.zeros_like(W)
    db = np.zeros(W.shape[0], dtype=W.dtype)
    dx = np.zeros((batch, length, n_in), dtype=W.dtype)
    dh = dout
    dc = np.zeros((batch, hsz), dtype=W.dtype)
    for t in range(length - 1, -1, -1):
        hx, f, i, g, o, c_prev, c, a = caches[t]
        do = dh * a
        dc = dc + dh * o * _act_grad(a, c, activation)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_prev = dc * f
        dz = np.concatenate([
            df * f * (1.0 - f),
            di * i * (1.0 - i),
            dg * _act_grad(g, g, activation),
            do * o * (1.0 - o),
        ], axis=1)
        dW += dz.T @ hx
        db += dz.sum(axis=0)
        dhx = dz @ W
        dh = dhx[:, :hsz]
        dx[:, t, :] = dhx[:, hsz:]
        dc = dc_prev
    return dx, dW, db


def _case(activation, dtype, batch, length, n_in, hidden, seed=0):
    rng = np.random.default_rng(seed)
    cell = LSTM(n_in, hidden, activation, rng=rng, dtype=dtype)
    cell.b[:] = rng.normal(size=4 * hidden)
    x = rng.normal(size=(batch, length, n_in)).astype(dtype)
    dout = rng.normal(size=(batch, hidden)).astype(dtype)
    return cell, x, dout


SHAPES = [(256, 24, 1, 50), (3, 5, 2, 7)]


@pytest.mark.parametrize("shape", SHAPES, ids=["production", "odd-small"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_lstm_equals_reference_cell_bitwise(activation, dtype, shape):
    cell, x, dout = _case(activation, dtype, *shape)
    ref_h, caches = reference_forward(cell.W, cell.b, activation, x)
    ref_dx, ref_dW, ref_db = reference_backward(cell.W, activation, caches,
                                                dout, cell.n_in)

    assert np.array_equal(cell.forward(x, train=False), ref_h)
    assert np.array_equal(cell.forward(x, train=True), ref_h)
    dx = cell.backward(dout)
    for name, got, want in (("dx", dx, ref_dx), ("dW", cell.dW, ref_dW),
                            ("db", cell.db, ref_db)):
        assert got.dtype == want.dtype == dtype, name
        assert np.array_equal(got, want), name

