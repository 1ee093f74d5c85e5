"""Adam optimizer."""

from __future__ import annotations

import numpy as np

from ..errors import RangeError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Per-parameter moment state over a model's parameter registry, with
    the fixed ``BETA1``, ``BETA2`` and ``EPS``."""

    def __init__(self, model, lr):
        if lr <= 0:
            raise RangeError(f"learning rate must be positive, got {lr}")
        self.model = model
        self.lr = lr
        self.t = 0
        self.m = {key: np.zeros_like(p) for key, p in model.parameters()}
        self.v = {key: np.zeros_like(p) for key, p in model.parameters()}

    def step(self):
        """One in-place update of every parameter with bias-corrected
        moments; ``t`` is the 1-based step count shared by all of them."""
        self.t += 1
        for key, param in self.model.parameters():
            grad = self.model.gradient(key)
            m, v = self.m[key], self.v[key]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1**self.t)
            v_hat = v / (1.0 - BETA2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
