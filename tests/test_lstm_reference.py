"""The production LSTM against a plain reference cell.

The reference below is the straightforward form of the cell: one
concatenated gate matmul, a separate sigmoid per gate, a 0/1 float relu
mask, the four gate gradients concatenated, and the weight gradients
accumulated last step first. LSTM.forward and LSTM.backward compute the
same arithmetic in the same order, so every output and gradient must be
bitwise equal, not merely close. TestLstmStep checks one step of the
reference itself against closed forms and a scalar oracle.
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


def reference_forward(W, b, activation, x, state=None):
    """Final hidden state and the per-step caches of a (B, L, F) batch,
    run from the zero state or from ``state`` = (h, c)."""
    batch, length, _ = x.shape
    hsz = b.shape[0] // 4
    if state is None:
        h = np.zeros((batch, hsz), dtype=W.dtype)
        c = np.zeros_like(h)
    else:
        h, c = state
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


def _case(dtype, batch, length, n_in, hidden, seed=0):
    rng = np.random.default_rng(seed)
    cell = LSTM(n_in, hidden, rng=rng, dtype=dtype)
    cell.b[:] = rng.normal(size=4 * hidden)
    x = rng.normal(size=(batch, length, n_in)).astype(dtype)
    dout = rng.normal(size=(batch, hidden)).astype(dtype)
    return cell, x, dout


SHAPES = [(256, 24, 1, 50), (3, 5, 2, 7)]


@pytest.mark.parametrize("shape", SHAPES, ids=["production", "odd-small"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("activation", ["relu"])
def test_lstm_equals_reference_cell_bitwise(activation, dtype, shape):
    # The production cell is the reference's relu variant.
    cell, x, dout = _case(dtype, *shape)
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


def _step(cell, x, h_prev, c_prev):
    """(h, c) after one reference step of cell's weights from (h_prev, c_prev)."""
    h, caches = reference_forward(cell.W, cell.b, "relu",
                                  x[None, None, :], (h_prev[None], c_prev[None]))
    return h[0], caches[-1][6][0]


class TestLstmStep:
    def test_zero_weight_identities_relu(self):
        # With all weights and biases zero every sigmoid gate is 0.5 and
        # the candidate is 0, so c_t = 0.5 c and h_t = 0.5 relu(0.5 c).
        cell = LSTM(1, 3)
        c_prev = np.array([0.4, -1.0, 2.0])
        h, c = _step(cell, np.array([7.0]), np.zeros(3), c_prev)
        assert np.allclose(c, 0.5 * c_prev, atol=1e-15)
        assert np.allclose(h, 0.5 * np.maximum(0.5 * c_prev, 0.0), atol=1e-15)

    def test_matches_scalar_oracle(self):
        # Recompute one step with plain python floats, gate by gate. At this
        # seed both candidates are positive, and a positive c_prev keeps c
        # so, so neither relu zeroes what it checks.
        rng = np.random.default_rng(7)
        cell = LSTM(1, 2, rng=rng)
        cell.b[:] = rng.normal(size=8) * 0.1
        x = rng.normal(size=1)
        h_prev = rng.normal(size=2)
        c_prev = np.abs(rng.normal(size=2))
        h, c = _step(cell, x, h_prev, c_prev)
        assert np.all(h > 0.0)
        # Row blocks of W and b in LSTM.GATE_ORDER: f, i, c, o.
        W_f, W_i, W_c, W_o = np.split(cell.W, 4)
        b_f, b_i, b_c, b_o = np.split(cell.b, 4)

        hx = [h_prev[0], h_prev[1], x[0]]
        for unit in range(2):
            def gate(W, b):
                z = b[unit]
                for j in range(3):
                    z += W[unit, j] * hx[j]
                return 1.0 / (1.0 + np.exp(-z))

            f = gate(W_f, b_f)
            i = gate(W_i, b_i)
            o = gate(W_o, b_o)
            zc = b_c[unit]
            for j in range(3):
                zc += W_c[unit, j] * hx[j]
            assert zc > 0.0
            g = max(zc, 0.0)
            c_expected = f * c_prev[unit] + i * g
            assert c[unit] == pytest.approx(c_expected, rel=1e-12)
            assert h[unit] == pytest.approx(o * max(c_expected, 0.0),
                                            rel=1e-12)

    def test_saturated_gates_preserve_cell_state(self):
        # Forget gate driven to 1 and input gate to 0: the cell state
        # must pass through essentially unchanged.
        cell = LSTM(1, 4)
        cell.b[0:4] = 30.0    # forget
        cell.b[4:8] = -30.0   # input
        c_prev = np.array([1.0, -2.0, 0.5, 3.0])
        _, c = _step(cell, np.array([0.3]), np.zeros(4), c_prev)
        assert np.allclose(c, c_prev, atol=1e-6)
