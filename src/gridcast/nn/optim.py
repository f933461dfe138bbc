"""Adam optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from gridcast.errors import ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba (2015)


class Adam:
    """Adaptive moment estimation over a fixed list of parameter arrays.

    step() updates the parameters in place:

        m <- BETA1 m + (1 - BETA1) g
        v <- BETA2 v + (1 - BETA2) g^2
        p <- p - lr * (m / (1 - BETA1^k)) / (sqrt(v / (1 - BETA2^k)) + EPS)

    At the first step this moves each parameter by about lr in the
    direction opposing its gradient, regardless of gradient scale.
    """

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate
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
        bc1 = 1.0 - BETA1 ** k
        bc2 = 1.0 - BETA2 ** k
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
