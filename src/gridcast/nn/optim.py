"""Adam optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from gridcast.errors import ShapeError


class Adam:
    """Adaptive moment estimation over a fixed list of parameter arrays.

    step() updates the parameters in place:

        m <- beta1 m + (1 - beta1) g
        v <- beta2 v + (1 - beta2) g^2
        p <- p - lr * (m / (1 - beta1^k)) / (sqrt(v / (1 - beta2^k)) + eps)

    At the first step this moves each parameter by about lr in the
    direction opposing its gradient, regardless of gradient scale.
    """

    def __init__(self, params, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.step_count = 0

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ShapeError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        for p, g in zip(self.params, grads):
            if p.shape != g.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} != parameter shape {p.shape}"
                )
        self.step_count += 1
        k = self.step_count
        bc1 = 1.0 - self.beta1 ** k
        bc2 = 1.0 - self.beta2 ** k
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
