"""Layers with hand-derived backward passes.

Shape conventions: dense layers take (B, n_in) and return (B, n_out);
the LSTM layer takes a whole window batch (B, L, F) and returns the final
hidden state (B, H). backward() consumes the gradient of the loss with
respect to a layer's output and returns the gradient with respect to its
input, stashing parameter gradients on the layer for the optimizer.

Only a train-mode forward (``train=True``) keeps what backward() needs.
An eval-mode forward retains nothing: it drops any cache an earlier
train-mode call left, so inference holds no per-step state and a
backward() after it raises NoCachedForwardError.

An eval-mode LSTM forward scores its rows in fixed ``EVAL_CHUNK``-row
blocks, on up to two threads: the calling thread takes the even blocks
and, when the process may run on at least two CPUs, one helper thread
takes the odd ones. Each block is computed alone, with the same
operations in the same order whichever thread runs it, so the bits do
not depend on the number of workers or on the BLAS thread count. At
most two blocks are in flight, each in a workspace the calling thread
allocates.

A layer computes in the dtype of its parameters (``dtype``, float64
unless the builder asks otherwise): every buffer, mask and state it
creates follows that dtype, and inputs are expected in it already
(train() and predict_batches() cast them once).
"""
from __future__ import annotations

import os
import threading

import numpy as np

from gridcast.errors import NoCachedForwardError, ShapeMismatchError


# Rows per eval-mode block, and the default chunk of every prediction
# path. At 1,024 windows the LSTM's per-step arrays stay in cache: on one
# BLAS thread the production LSTM scored 51,600 windows/s against 43,500
# at 4,096 (2-core Xeon). The block size can change the last bits of a
# prediction when the final block is only a few rows long, because
# OpenBLAS computes small products with other kernels.
EVAL_CHUNK = 1024


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * tanh(z / 2) + 0.5, written into ``out``
    when one is given.

    The identity 1 / (1 + exp(-z)) = (1 + tanh(z / 2)) / 2 needs no
    branch on the sign of z, and tanh saturates at +-1 instead of
    overflowing, so the result stays in [0, 1] for any finite input.
    """
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    np.multiply(out, 0.5, out=out)
    return np.add(out, 0.5, out=out)


def relu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def glorot_uniform(rng: np.random.Generator | None, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on [-sqrt(6/(fan_in+fan_out)), +sqrt(...)]; zeros
    when no generator is supplied (handy for fixed-weight tests).

    Always float64: layers cast the draws to their own dtype, so the
    generator stream does not depend on it."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    """Fully connected layer: activation(x @ W.T + b).

    W has shape (n_out, n_in). Supported activations: relu, identity.
    ``dtype`` sets the parameters and their gradients.
    """

    def __init__(self, n_in: int, n_out: int, activation: str = "identity",
                 rng: np.random.Generator | None = None,
                 dtype: np.dtype | type = np.float64):
        if activation not in ("identity", "relu"):
            raise ValueError(f"unsupported dense activation: {activation}")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.W = glorot_uniform(rng, (n_out, n_in), n_in, n_out).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None
        self._z = None

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatchError(
                f"dense layer expects (B, {self.n_in}), got {x.shape}"
            )
        z = x @ self.W.T + self.b
        self._x, self._z = (x, z) if train else (None, None)
        return relu(z) if self.activation == "relu" else z

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise NoCachedForwardError(
                "dense backward called before a train-mode forward")
        dz = dout * (self._z > 0.0) if self.activation == "relu" else dout
        self.dW = dz.T @ self._x
        self.db = dz.sum(axis=0)
        return dz @ self.W

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]

    def spec(self) -> dict:
        return {"kind": "dense", "n_in": self.n_in, "n_out": self.n_out,
                "activation": self.activation}


class Dropout:
    """Inverted dropout: in train mode, zero units with probability rate
    and scale the survivors by 1/(1-rate), so the expected activation is
    unchanged. Eval mode is the identity."""

    def __init__(self, rate: float):
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        self._mask = None
        if not train:
            return x
        if self.rate == 0.0:
            # Draws nothing from rng, so later shuffles see the same stream.
            self._mask = 1.0
            return x
        if rng is None:
            raise ValueError("dropout in train mode requires a random generator")
        self._mask = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        return x * self._mask / (1.0 - self.rate)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise NoCachedForwardError(
                "dropout backward called before a train-mode forward")
        return dout * self._mask / (1.0 - self.rate)

    def params(self):
        return []

    def grads(self):
        return []

    def spec(self) -> dict:
        return {"kind": "dropout", "rate": self.rate}


class LSTM:
    """Single LSTM layer over a window; emits the final hidden state.

    Gates read the concatenation [h_prev, x_t]:

        f = sigmoid(W_f [h, x] + b_f)        forget
        i = sigmoid(W_i [h, x] + b_i)        input
        g = act(W_c [h, x] + b_c)            cell candidate
        o = sigmoid(W_o [h, x] + b_o)        output
        c_t = f * c_prev + i * g
        h_t = o * act(c_t)

    ``activation`` selects act: the classic cell uses tanh; the relu
    variant swaps relu into the candidate and the hidden output while
    the gate sigmoids stay untouched.

    The four gate matrices live as row blocks of one (4H, H+F) array in
    the order f, i, c, o, so each step costs one matmul; W_f etc. are
    views into it. ``dtype`` sets the parameters, their gradients and
    the recurrent state.
    """

    GATE_ORDER = ("f", "i", "c", "o")

    def __init__(self, n_in: int, hidden: int, activation: str = "tanh",
                 rng: np.random.Generator | None = None,
                 dtype: np.dtype | type = np.float64):
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unsupported cell activation: {activation}")
        self.n_in = n_in
        self.hidden = hidden
        self.activation = activation
        h = hidden
        # Each gate block is (H, H+F): fan_in = H+F, fan_out = H.
        self.W = np.vstack([
            glorot_uniform(rng, (h, h + n_in), h + n_in, h) for _ in self.GATE_ORDER
        ]).astype(dtype)
        self.b = np.zeros(4 * h, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cache = None

    # Named views into the stacked parameter blocks; assigning through
    # them (e.g. cell.b_f[:] = 1) updates the real parameters.
    def _block(self, a, gate):
        k = self.GATE_ORDER.index(gate)
        return a[k * self.hidden:(k + 1) * self.hidden]

    @property
    def W_f(self): return self._block(self.W, "f")
    @property
    def W_i(self): return self._block(self.W, "i")
    @property
    def W_c(self): return self._block(self.W, "c")
    @property
    def W_o(self): return self._block(self.W, "o")
    @property
    def b_f(self): return self._block(self.b, "f")
    @property
    def b_i(self): return self._block(self.b, "i")
    @property
    def b_c(self): return self._block(self.b, "c")
    @property
    def b_o(self): return self._block(self.b, "o")

    def _act(self, z, out=None):
        return np.tanh(z, out=out) if self.activation == "tanh" else relu(z, out=out)

    def _act_grad_from(self, value, pre):
        # d act / d pre, expressed from whichever of (value, pre) is cheap.
        # The relu mask is bool: multiplying by it gives the same bits as
        # multiplying by a 0/1 float mask, without the cast.
        if self.activation == "tanh":
            return 1.0 - value * value
        return pre > 0.0

    def _step(self, x_t, h_prev, c_prev):
        """One batched cell update, shared by forward() and step().
        Returns (h, c, cache)."""
        hx = np.concatenate([h_prev, x_t], axis=1)
        z = hx @ self.W.T
        z += self.b
        h = self.hidden
        f = sigmoid(z[:, 0 * h:1 * h])
        i = sigmoid(z[:, 1 * h:2 * h])
        g = self._act(z[:, 2 * h:3 * h])
        o = sigmoid(z[:, 3 * h:4 * h])
        c = f * c_prev + i * g
        a = self._act(c)
        out = o * a
        cache = (hx, f, i, g, o, c_prev, c, a)
        return out, c, cache

    def step(self, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
        """Public single-step interface; accepts vectors or batches."""
        single = x_t.ndim == 1
        if single:
            x_t, h_prev, c_prev = x_t[None, :], h_prev[None, :], c_prev[None, :]
        if x_t.shape[1] != self.n_in or h_prev.shape[1] != self.hidden:
            raise ShapeMismatchError(
                f"step expects x ({self.n_in},) and state ({self.hidden},), "
                f"got {x_t.shape[1:]} and {h_prev.shape[1:]}"
            )
        h, c, _ = self._step(x_t, h_prev, c_prev)
        return (h[0], c[0]) if single else (h, c)

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeMismatchError(
                f"lstm layer expects (B, L, {self.n_in}), got {x.shape}"
            )
        if not train:
            self._cache = None
            return self._forward_eval(x)
        batch, length, _ = x.shape
        h = np.zeros((batch, self.hidden), dtype=self.W.dtype)
        c = np.zeros_like(h)
        caches = []
        for t in range(length):
            h, c, cache = self._step(x[:, t, :], h, c)
            caches.append(cache)
        self._cache = (x.shape, caches)
        return h

    def _workspace(self, rows: int) -> tuple[np.ndarray, ...]:
        """Buffers for one thread's blocks: hx, z, c and the four gates."""
        hsz, dtype = self.hidden, self.W.dtype
        return (np.empty((rows, hsz + self.n_in), dtype=dtype),
                np.empty((rows, 4 * hsz), dtype=dtype),
                *(np.empty((rows, hsz), dtype=dtype) for _ in range(5)))

    def _forward_eval(self, x: np.ndarray) -> np.ndarray:
        """Final hidden states of an eval batch, scored block by block.

        The helper thread gets its workspace from here, so it allocates
        no array. It runs only _score_blocks: a tracer may wrap forward()
        and is not thread-safe.
        """
        batch = x.shape[0]
        out = np.zeros((batch, self.hidden), dtype=self.W.dtype)
        starts = range(0, batch, EVAL_CHUNK)
        rows = min(batch, EVAL_CHUNK)
        if len(starts) < 2 or _usable_cpus() < 2:
            self._score_blocks(x, out, starts, self._workspace(rows))
            return out
        spare = self._workspace(rows)
        failures = []

        def score_odd_blocks():
            try:
                self._score_blocks(x, out, starts[1::2], spare)
            except Exception as exc:  # re-raised on the calling thread
                failures.append(exc)

        helper = threading.Thread(target=score_odd_blocks, daemon=True)
        helper.start()
        try:
            self._score_blocks(x, out, starts[0::2], self._workspace(rows))
        finally:
            helper.join()
        if failures:
            raise failures[0]
        return out

    def _score_blocks(self, x, out, starts, workspace) -> None:
        """Write the final hidden state of each block starting at one of
        ``starts`` into ``out``.

        The operations and their order are those of _step, so the bits
        are too, but every result lands in ``workspace``: the loop
        allocates no array.
        """
        hsz = self.hidden
        length = x.shape[1]
        w_t = self.W.T
        for start in starts:
            stop = min(start + EVAL_CHUNK, x.shape[0])
            hx, z, c, f, i, g, o = (a[:stop - start] for a in workspace)
            h = hx[:, :hsz]
            h.fill(0.0)
            c.fill(0.0)
            for t in range(length):
                hx[:, hsz:] = x[start:stop, t, :]
                np.matmul(hx, w_t, out=z)
                z += self.b
                sigmoid(z[:, 0 * hsz:1 * hsz], out=f)
                sigmoid(z[:, 1 * hsz:2 * hsz], out=i)
                self._act(z[:, 2 * hsz:3 * hsz], out=g)
                sigmoid(z[:, 3 * hsz:4 * hsz], out=o)
                np.multiply(f, c, out=c)
                np.multiply(i, g, out=g)
                c += g
                a = self._act(c, out=f)
                np.multiply(o, a, out=out[start:stop] if t == length - 1 else h)

    def forward_sequence(self, seq: np.ndarray) -> np.ndarray:
        """Run a single (L, F) sequence; returns the final hidden (H,)."""
        return self.forward(seq[None, :, :])[0]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backpropagation through time from the final hidden state.

        Only h_L feeds the next layer, so the incoming gradient touches
        the last step directly and flows to earlier steps through the
        recurrent h and c paths.
        """
        if self._cache is None:
            raise NoCachedForwardError(
                "lstm backward called before a train-mode forward")
        (batch, length, _), caches = self._cache
        hsz = self.hidden
        dtype = self.W.dtype
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        dx = np.zeros((batch, length, self.n_in), dtype=dtype)
        dh = dout
        dc = np.zeros((batch, hsz), dtype=dtype)
        # Each step writes its four gate gradients into the column blocks
        # f, i, c, o of this one array, in place of a concatenate.
        dz = np.empty((batch, 4 * hsz), dtype=dtype)
        for t in range(length - 1, -1, -1):
            hx, f, i, g, o, c_prev, c, a = caches[t]
            dc = dc + dh * o * self._act_grad_from(a, c)
            dz[:, 0 * hsz:1 * hsz] = dc * c_prev * f * (1.0 - f)
            dz[:, 1 * hsz:2 * hsz] = dc * g * i * (1.0 - i)
            dz[:, 2 * hsz:3 * hsz] = dc * i * self._act_grad_from(g, g)
            dz[:, 3 * hsz:4 * hsz] = dh * a * o * (1.0 - o)
            self.dW += dz.T @ hx
            self.db += dz.sum(axis=0)
            dhx = dz @ self.W
            dh = dhx[:, :hsz]
            dx[:, t, :] = dhx[:, hsz:]
            dc = dc * f
        return dx

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]

    def spec(self) -> dict:
        return {"kind": "lstm", "n_in": self.n_in, "hidden": self.hidden,
                "activation": self.activation}


class Network:
    """A plain stack of layers sharing the forward/backward protocol."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def grads(self):
        return [g for layer in self.layers for g in layer.grads()]

    def set_weights(self, weights):
        params = self.params()
        if len(weights) != len(params):
            raise ShapeMismatchError(
                f"expected {len(params)} parameter arrays, got {len(weights)}"
            )
        for p, w in zip(params, weights):
            if p.shape != w.shape:
                raise ShapeMismatchError(f"shape {w.shape} != parameter {p.shape}")
            np.copyto(p, w)

    def spec(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]


def count_params(model) -> int:
    """Total number of trainable scalars in a layer or network."""
    return int(sum(p.size for p in model.params()))
