"""Adaptive-moment optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard first/second-moment update with the decay rates `BETA1`
    and `BETA2` and the denominator offset `EPS`, the defaults of Kingma &
    Ba (ICLR 2015); only `lr` is the caller's. Parameters with zero
    gradient (and fresh state) are left untouched.

    Adam owns one flat buffer of parameter values and one of gradients, both
    over all parameters in insertion order: every `p.data` becomes a view of
    the first, and `zero_grad` makes every `p.grad` a zeroed view of the
    second. A step updates the moments `m` and `v` and the values in place
    with the per-element formula. A `p.data` or `p.grad` replaced since the
    last step (by `load_state`, by the caller, or a `None` grad, which means
    zero) is copied into its slice first.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        total = sum(p.data.size for p in params.values())
        self._values = np.empty(total)
        self._grads = np.zeros(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._work = np.empty(total)
        self._denom = np.empty(total)
        # (parameter, its value view, its gradient view)
        self._slots: list[tuple[Tensor, np.ndarray, np.ndarray]] = []
        start = 0
        for p in params.values():
            end = start + p.data.size
            data = self._values[start:end].reshape(p.data.shape)
            data[...] = p.data
            p.data = data
            self._slots.append((p, data, self._grads[start:end].reshape(data.shape)))
            start = end

    def zero_grad(self) -> None:
        """Make every parameter's gradient a zeroed view of the flat buffer."""
        self._grads.fill(0.0)
        for p, _, grad in self._slots:
            p.grad = grad

    def step(self) -> None:
        """One update from each parameter's `grad`; a parameter without
        one has a zero gradient."""
        # fold in each value or gradient replaced since the last step
        for name, (p, data, grad) in zip(self.params, self._slots):
            if p.grad is not grad:
                if p.grad is None:
                    grad.fill(0.0)
                elif p.grad.shape != data.shape:
                    raise ValueError(
                        f"gradient shape {p.grad.shape} does not match "
                        f"parameter {name!r} shape {data.shape}")
                else:
                    grad[...] = p.grad
            if p.data is not data:
                data[...] = p.data
                p.data = data
        self.step_count += 1
        if not self.params:
            return
        t = self.step_count
        g, work, m, v = self._grads, self._work, self.m, self.v
        # the per-element operations, in order, of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p - lr * m_hat / (sqrt(v_hat) + eps)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=work)
        np.multiply(g, 1.0 - BETA2, out=work)
        work *= g
        v *= BETA2
        v += work
        update = np.divide(m, 1.0 - BETA1 ** t, out=work)
        update *= self.lr
        denom = np.divide(v, 1.0 - BETA2 ** t, out=self._denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        self._values -= update
