"""Dense float64 tensors with taped reverse-mode gradients.

A Tensor wraps a numpy float64 array. Every op that touches a tensor
requiring gradients records a backward closure and its parents, so calling
``backward()`` on a scalar result walks the tape in reverse topological
order and accumulates gradients additively over fan-out. The tape is
rebuilt on every forward pass; there is no graph reuse.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """Whether ops record a tape right now."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    # keep numpy from consuming `ndarray <op> Tensor`; defer to the
    # reflected dunders so the operation lands on the tape
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # `+ 0.0` turns -0.0 into +0.0, as summing onto zeros did, so a
            # stored gradient never holds -0.0
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    # ------------------------------------------------------------------
    # tape plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar. Fan-out gradients sum."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g, b.data.shape))

        return Tensor._make(self.data + other.data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def bwd(g):
            a.accumulate_grad(-g)

        return Tensor._make(-self.data, (a,), bwd)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(-_unbroadcast(g, b.data.shape))

        return Tensor._make(self.data - other.data, (a, b), bwd)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(self.data * other.data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._make(self.data / other.data, (a, b), bwd)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        c = float(exponent)
        a = self

        def bwd(g):
            a.accumulate_grad(g * c * np.power(a.data, c - 1.0))

        return Tensor._make(np.power(self.data, c), (a,), bwd)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    # ------------------------------------------------------------------
    # elementwise transcendentals
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(self.data)

        def bwd(g):
            a.accumulate_grad(g * out_data)

        return Tensor._make(out_data, (a,), bwd)

    def log(self) -> "Tensor":
        a = self

        def bwd(g):
            a.accumulate_grad(g / a.data)

        return Tensor._make(np.log(self.data), (a,), bwd)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(self.data)

        def bwd(g):
            a.accumulate_grad(g * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (a,), bwd)

    def sigmoid(self) -> "Tensor":
        a = self
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def bwd(g):
            a.accumulate_grad(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), bwd)

    def relu(self) -> "Tensor":
        a = self
        mask = self.data > 0

        def bwd(g):
            a.accumulate_grad(g * mask)

        return Tensor._make(np.where(mask, self.data, 0.0), (a,), bwd)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        in_shape = self.data.shape

        def bwd(g):
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(ax % len(in_shape) for ax in axes):
                    grad = np.expand_dims(grad, ax)
            a.accumulate_grad(np.broadcast_to(grad, in_shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        in_shape = self.data.shape

        def bwd(g):
            a.accumulate_grad(g.reshape(in_shape))

        return Tensor._make(self.data.reshape(shape), (a,), bwd)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)

        def bwd(g):
            a.accumulate_grad(g.transpose(inv))

        return Tensor._make(self.data.transpose(axes), (a,), bwd)

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self

        def bwd(g):
            a.accumulate_grad(g.swapaxes(ax1, ax2))

        return Tensor._make(self.data.swapaxes(ax1, ax2), (a,), bwd)

    def __getitem__(self, idx) -> "Tensor":
        a = self
        in_shape = self.data.shape
        items = idx if isinstance(idx, tuple) else (idx,)
        # ints and slices pick each element at most once; the trailing
        # Ellipsis keeps an all-int index a 0-d view rather than a scalar
        basic = all(isinstance(i, slice) or (isinstance(i, (int, np.integer))
                                             and not isinstance(i, bool))
                    for i in items)

        def bwd(g):
            full = np.zeros(in_shape)
            if basic:
                np.add(g, 0.0, out=full[items + (Ellipsis,)])
            else:
                np.add.at(full, idx, g)
            a.accumulate_grad(full)

        return Tensor._make(self.data[idx], (a,), bwd)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# n-ary ops
# ----------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch semantics, 1-D operands promoted."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ValueError("matmul needs at least 1-D operands")
    if a.ndim == 1:
        out = matmul(a.reshape(1, -1), b)
        return out.reshape(out.shape[1:]) if out.ndim > 1 else out
    if b.ndim == 1:
        out = matmul(a, b.reshape(-1, 1))
        return out.reshape(out.shape[:-1])
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return Tensor._make(a.data @ b.data, (a, b), bwd)


def softmax_lastdim(t: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    t = as_tensor(t)
    if t.ndim == 0 or t.shape[-1] < 1:
        raise ValueError("softmax_lastdim needs a non-empty last axis")
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        t.accumulate_grad(out_data * (g - dot))

    return Tensor._make(out_data, (t,), bwd)


def softplus(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out_data = np.logaddexp(0.0, t.data)

    def bwd(g):
        t.accumulate_grad(g / (1.0 + np.exp(-t.data)))

    return Tensor._make(out_data, (t,), bwd)


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ~take_a, b.data.shape))

    return Tensor._make(np.where(take_a, a.data, b.data), (a, b), bwd)


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient goes to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ~take_a, b.data.shape))

    return Tensor._make(np.where(take_a, a.data, b.data), (a, b), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis),
                        tuple(tensors), bwd)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh((x + x*x*x*0.044715) * sqrt(2/pi)), in one fresh array."""
    out = x * x
    out *= x
    out *= 0.044715
    out += x
    out *= _GELU_C
    return np.tanh(out, out=out)


def gelu(t: Tensor) -> Tensor:
    """Smooth gelu (tanh form), x * (tanh(...) + 1) * 0.5, as one tape node.

    Forward and backward repeat, in order, the float operations of the
    same formula built from primitive ops, so both match it bit for bit.
    """
    t = as_tensor(t)
    x = t.data
    out = _gelu_tanh(x)
    out += 1.0
    out *= x
    out *= 0.5

    def bwd(g):
        # t receives, one term at a time, g8*(th + 1), g4, g2*x*x, g1*x and
        # g1*x, where g8 = g*0.5, g4 = g8*x*(1 - th*th)*c,
        # g2 = g4*0.044715 and g1 = g2*x
        th = _gelu_tanh(x)
        g8 = g * 0.5
        t.accumulate_grad(g8 * (th + 1.0))
        grad = t.grad
        th *= th
        g4 = g8 * x
        g4 *= np.subtract(1.0, th, out=th)
        g4 *= _GELU_C
        grad += g4
        g2 = g4 * 0.044715
        grad += g2 * (x * x)
        g1x = g2 * x
        g1x *= x
        grad += g1x
        grad += g1x

    return Tensor._make(out, (t,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by gamma and shift by beta.

    One tape node. The forward keeps the centred input and the (..., 1)
    variance term; the backward repeats, in order, the float operations of
    the mean / centre / variance / scale formula built from primitive ops,
    so values and gradients match it bit for bit.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    k = 1.0 / x.data.shape[-1]
    c = x.data - x.data.sum(axis=-1, keepdims=True) * k
    ve = (c * c).sum(axis=-1, keepdims=True) * k + eps
    out = c * np.power(ve, -0.5)
    out *= gamma.data
    out += beta.data

    def bwd(g):
        inv = np.power(ve, -0.5)
        if beta.requires_grad:
            beta.accumulate_grad(_unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            normed = c * inv
            normed *= g
            gamma.accumulate_grad(_unbroadcast(normed, gamma.data.shape))
        if not x.requires_grad:
            return
        # x receives gci*inv + gcc + gcc (the gradient of c), then the
        # broadcast of (-sum(gc)) * k through the mean
        gci = g * gamma.data
        ginv = _unbroadcast(gci * c, ve.shape)
        gvar = (ginv * -0.5) * np.power(ve, -1.5)
        gcc = (gvar * k) * c
        gc = gci
        gc *= inv
        gc += gcc
        gc += gcc
        x.accumulate_grad(gc)
        x.accumulate_grad(np.broadcast_to(-_unbroadcast(gc, ve.shape) * k, x.data.shape))

    return Tensor._make(out, (x, gamma, beta), bwd)


# ----------------------------------------------------------------------
# parameter containers
# ----------------------------------------------------------------------

class Module:
    """Minimal parameter container with dotted-name collection."""

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        self._collect("", out)
        return out

    def _collect(self, prefix: str, out: dict[str, Tensor]) -> None:
        for key, val in vars(self).items():
            if isinstance(val, Tensor):
                if val.requires_grad:
                    out[prefix + key] = val
            elif isinstance(val, Module):
                val._collect(prefix + key + ".", out)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        item._collect(f"{prefix}{key}.{i}.", out)
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out[f"{prefix}{key}.{i}"] = item

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.grad = None

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={missing} extra={extra}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients per parameter; parameters the loss never reached get zeros."""
    return {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}


# ----------------------------------------------------------------------
# gradient oracle
# ----------------------------------------------------------------------

def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Perturbs ``x.data`` in place and restores it, so ``f`` may close over a
    model that owns ``x``. Runs with the tape disabled.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(x))
            flat[i] = orig - eps
            lo = float(f(x))
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * eps)
    return grad.reshape(x.data.shape)
