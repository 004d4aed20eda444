"""Adaptive-moment optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Standard first/second-moment update. Parameters with zero gradient
    (and fresh state) are left untouched.

    The moments `m` and `v` are flat vectors over all parameters in
    insertion order. Each step updates one concatenated gradient with the
    per-element formula, in place in two work buffers, and then writes every
    parameter back as a fresh array.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        sizes = [p.data.size for p in params.values()]
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros_like(self.m)
        self._grad = np.empty_like(self.m)
        self._work = np.empty_like(self.m)
        self._splits = np.cumsum(sizes)[:-1]

    def step(self) -> None:
        """One update from each parameter's `grad`; a parameter without
        one has a zero gradient."""
        for name, p in self.params.items():
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {p.grad.shape} does not match "
                    f"parameter {name!r} shape {p.data.shape}")
        self.step_count += 1
        if not self.params:
            return
        t = self.step_count
        g, work, m, v = self._grad, self._work, self.m, self.v
        np.concatenate(
            [np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
             for p in self.params.values()],
            out=g)
        # the per-element operations, in order, of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p - lr * m_hat / (sqrt(v_hat) + eps)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=work)
        np.multiply(g, 1.0 - self.beta2, out=work)
        work *= g
        v *= self.beta2
        v += work
        update = np.divide(m, 1.0 - self.beta1 ** t, out=work)
        update *= self.lr
        denom = np.divide(v, 1.0 - self.beta2 ** t, out=g)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        flat = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        flat -= update
        for p, piece in zip(self.params.values(), np.split(flat, self._splits)):
            p.data = piece.reshape(p.data.shape)
