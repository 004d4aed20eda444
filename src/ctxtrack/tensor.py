"""Dense float64 tensors with taped reverse-mode gradients.

A Tensor wraps a numpy float64 array. Every op that touches a tensor
requiring gradients records its parents and how to reach them, so calling
``backward()`` on a scalar result walks the tape in reverse topological
order and accumulates gradients additively over fan-out. Most ops record,
through `_node`, one local derivative per parent, which the sweep applies
itself; the fused ops record a backward callable. An op run while no tape
is recorded builds neither. The tape is rebuilt on
every forward pass and freed by the sweep that walks it; there is no graph
reuse.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Sequence

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
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _released(_grad: np.ndarray) -> None:
    raise RuntimeError("backward() reached a node whose tape an earlier "
                       "backward() already freed; run the forward again")


def _node(out: np.ndarray, parents: tuple["Tensor", ...],
          grads: tuple[Callable[[np.ndarray], np.ndarray], ...]) -> "Tensor":
    """A tape node that keeps, of its parents, those that require a gradient
    and their local derivatives, in parent order; `grads[i]` maps the output
    gradient to parent i's local gradient, which `Tensor.backward` reduces
    with `_unbroadcast` to the parent's shape."""
    # per-op Python cost bounds tracking speed, so a tape-free op builds no
    # node; `Tensor.backward` walks the pairs itself, with no frame per node
    if not _GRAD_ENABLED:
        return Tensor(out)
    return Tensor._make(out, parents, grads)


@lru_cache(maxsize=64)
def _inverse(axes: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation that undoes transpose(axes)."""
    return tuple(np.argsort(axes).tolist())


def _same(g: np.ndarray) -> np.ndarray:
    return g


def _scatter(g: np.ndarray, shape: tuple[int, ...], idx) -> np.ndarray:
    """Zeros of `shape` with `g` added at `idx`, the gradient of x[idx]."""
    full = np.zeros(shape)
    items = idx if isinstance(idx, tuple) else (idx,)
    # ints and slices pick each element at most once; the trailing
    # Ellipsis keeps an all-int index a 0-d view rather than a scalar
    if all(isinstance(i, slice) or (isinstance(i, (int, np.integer))
                                    and not isinstance(i, bool)) for i in items):
        np.add(g, 0.0, out=full[items + (Ellipsis,)])
    else:
        np.add.at(full, idx, g)
    return full


class Tensor:
    # `_backward` is None on a leaf; on a `_node` node, a tuple with one
    # local derivative per entry of `_parents`; on a fused op, a callable
    # that takes the output gradient
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    # keep numpy from consuming `ndarray <op> Tensor`; defer to the
    # reflected dunders so the operation lands on the tape
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | tuple | None = None
        self._parents: tuple[Tensor, ...] = ()

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
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

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
              backward: Callable[[np.ndarray], None] | tuple) -> "Tensor":
        """A node over the parents that require a gradient; a tuple
        `backward` holds one local derivative per parent and is filtered
        with them."""
        out = Tensor(data)
        if _GRAD_ENABLED:
            keep = tuple([p for p in parents if p.requires_grad])
            if keep:
                if type(backward) is tuple and len(keep) < len(parents):
                    backward = tuple([d for p, d in zip(parents, backward)
                                      if p.requires_grad])
                out.requires_grad = True
                out._parents = keep
                out._backward = backward
        return out

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar. Fan-out gradients sum.

        Nodes run in reverse of a depth-first post-order from the loss, and
        a node hands its parents their gradients in parent order; that fixes
        the order in which fan-out gradients sum, and so their bits. The
        sweep frees the tape as it walks it: once a node's backward has run,
        its derivatives, parents and gradient are dropped, and a later sweep
        that reaches the node raises.
        """
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
        while topo:
            node = topo.pop()
            bwd = node._backward
            if bwd is None:
                continue
            if type(bwd) is tuple:
                g = node.grad
                for p, grad in zip(node._parents, bwd):
                    p.accumulate_grad(_unbroadcast(grad(g), p.data.shape))
            else:
                bwd(node.grad)
            node._backward = _released
            node._parents = ()
            node.grad = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        return _node(self.data + other.data, (self, other), (_same, _same))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _node(-self.data, (self,), (np.negative,))

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        return _node(self.data - other.data, (self, other), (_same, np.negative))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        return _node(self.data * other.data, (self, other),
                     (lambda g: g * other.data, lambda g: g * self.data))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        return _node(self.data / other.data, (self, other),
                     (lambda g: g / other.data,
                      lambda g: -g * self.data / (other.data * other.data)))

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        c = float(exponent)
        return _node(np.power(self.data, c), (self,),
                     (lambda g: g * c * np.power(self.data, c - 1.0),))

    # ------------------------------------------------------------------
    # elementwise transcendentals
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return _node(out, (self,), (lambda g: g * out,))

    def log(self) -> "Tensor":
        return _node(np.log(self.data), (self,), (lambda g: g / self.data,))

    def sigmoid(self) -> "Tensor":
        x = self.data
        out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return _node(out, (self,), (lambda g: g * out * (1.0 - out),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _node(np.where(mask, self.data, 0.0), (self,), (lambda g: g * mask,))

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.data.shape
        # the summed axes come back as size-1 axes, then broadcast
        kept = axis if axis is not None and not keepdims else ()
        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                     (lambda g: np.broadcast_to(np.expand_dims(g, kept), in_shape),))

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
        in_shape = self.data.shape
        return _node(self.data.reshape(shape), (self,),
                     (lambda g: g.reshape(in_shape),))

    def rearrange(self, shape: tuple[int, ...], axes: tuple[int, ...],
                  out_shape: tuple[int, ...]) -> "Tensor":
        """x.reshape(shape).transpose(axes).reshape(out_shape) as one node;
        its backward applies the inverse views to the output gradient.
        `axes` is a permutation of range(len(shape))."""
        view = self.data.reshape(shape).transpose(axes)
        mid, in_shape = view.shape, self.data.shape
        return _node(view.reshape(out_shape), (self,),
                     (lambda g: g.reshape(mid).transpose(_inverse(axes)).reshape(in_shape),))

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        return _node(self.data.swapaxes(ax1, ax2), (self,),
                     (lambda g: g.swapaxes(ax1, ax2),))

    def __getitem__(self, idx) -> "Tensor":
        in_shape = self.data.shape
        return _node(self.data[idx], (self,), (lambda g: _scatter(g, in_shape, idx),))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# n-ary ops
# ----------------------------------------------------------------------

def _requires_grad(x) -> bool:
    return isinstance(x, Tensor) and x.requires_grad


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch semantics over 2-D or wider operands.

    Operands may be tensors or arrays; an array is read as it is, so the
    fused ops that call this for a FLOP-counted product wrap nothing.
    """
    ad = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul needs at least 2-D operands: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {ad.shape} @ {bd.shape}")
    if not (_GRAD_ENABLED and (_requires_grad(a) or _requires_grad(b))):
        return Tensor(ad @ bd)
    a, b = as_tensor(a), as_tensor(b)
    return _node(ad @ bd, (a, b), (lambda g: g @ b.data.swapaxes(-1, -2),
                                   lambda g: a.data.swapaxes(-1, -2) @ g))


def _exp_normalize(shifted: np.ndarray) -> np.ndarray:
    """exp, then division by the last-axis sum, in place: the softmax of
    logits whose last-axis max `shifted` already has subtracted."""
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


# A flat product pays once each per-index product of the batched one holds
# this many multiply-adds: on one BLAS thread, (14, 14, 384) @ (384, 1536)
# takes 10.1 ms batched and 3.7 ms flat, while at toy sizes, or with 48
# input features, the flat product is no faster and the reshapes cost more.
_FLAT_MIN_MACS = 2 ** 19


@lru_cache(maxsize=256)
def _flat_exact(x_shape: tuple[int, ...], w_shape: tuple[int, ...]) -> bool:
    """Whether the flat product gives the batched product's bits for these
    shapes. BLAS picks its kernel, and so its summation order, from the
    shapes alone, so one product of random operands settles it."""
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    return (x.reshape(-1, x_shape[-1]) @ w).tobytes() == (x @ w).tobytes()


def _runs_flat(x: np.ndarray, w: np.ndarray) -> bool:
    """Whether `linear` computes x @ w as one 2-D product over all leading
    axes of x, where numpy's batched product makes one BLAS call per index:
    only where that is faster and gives the batched product's bits."""
    return (x.ndim > 2 and w.ndim == 2 and x.shape[-1] == w.shape[0]
            and x.shape[-2] * w.size >= _FLAT_MIN_MACS
            and x.flags.c_contiguous and _flat_exact(x.shape, w.shape))


def linear(x, weight, bias=None) -> Tensor:
    """Affine map on the last axis, x @ weight (+ bias), as one tape node.

    The forward may run one 2-D product over all leading axes of x (see
    `_runs_flat`), then adds the bias in place. The backward repeats, in
    order, the float operations of `matmul` followed by `+ bias`: the
    bias, then x, then the weight, both products on the batched shapes, so
    values and gradients match that composite bit for bit. With neither a
    bias nor a flat product, the map is just the `matmul` node.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    xd, wd = x.data, weight.data
    flat = _runs_flat(xd, wd)
    if bias is None and not flat:
        return matmul(x, weight)
    if flat:
        out = matmul(xd.reshape(-1, xd.shape[-1]), wd).data
        out = out.reshape(xd.shape[:-1] + wd.shape[1:])
    else:
        out = matmul(xd, wd).data
    parents = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.data
        parents += (bias,)
    if not _GRAD_ENABLED:
        return Tensor(out)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            x.accumulate_grad(_unbroadcast(g @ weight.data.swapaxes(-1, -2), x.data.shape))
        if weight.requires_grad:
            weight.accumulate_grad(_unbroadcast(x.data.swapaxes(-1, -2) @ g,
                                                weight.data.shape))

    return Tensor._make(out, parents, bwd)


def attention_weights(q, k, scale: float, biases: Sequence[Tensor] = ()) -> Tensor:
    """softmax(q @ kᵀ * scale + Σ biases) over the last axis, as one tape node.

    The forward works in the product's buffer: scale, add each bias in
    turn, then softmax in place. Forward and backward repeat, in order, the
    float operations of the same formula built from `matmul`, `swapaxes`,
    `*`, `+` and a last-axis softmax node (max subtracted, exp, divided by
    the sum; its gradient is out * (g - sum(g * out))), so both match it
    bit for bit.
    """
    q, k = as_tensor(q), as_tensor(k)
    biases = tuple(as_tensor(b) for b in biases)
    out = matmul(q.data, k.data.swapaxes(-1, -2)).data
    out *= scale
    for b in biases:
        out += b.data
    out -= out.max(axis=-1, keepdims=True)
    _exp_normalize(out)
    if not _GRAD_ENABLED:
        return Tensor(out)

    def bwd(g):
        gl = g - (g * out).sum(axis=-1, keepdims=True)
        gl *= out
        for b in reversed(biases):
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(gl, b.data.shape))
        gl *= scale
        if q.requires_grad:
            q.accumulate_grad(_unbroadcast(gl @ k.data, q.data.shape))
        if k.requires_grad:
            kt_shape = k.data.shape[:-2] + (k.data.shape[-1], k.data.shape[-2])
            gkt = _unbroadcast(q.data.swapaxes(-1, -2) @ gl, kt_shape)
            k.accumulate_grad(gkt.swapaxes(-1, -2))

    return Tensor._make(out, (q, k) + biases, bwd)


def _pick(a: Tensor, b: Tensor, take_a: np.ndarray) -> Tensor:
    """a where `take_a` holds, else b; each gradient follows the pick."""
    return _node(np.where(take_a, a.data, b.data), (a, b),
                 (lambda g: g * take_a, lambda g: g * ~take_a))


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    return _pick(a, b, a.data >= b.data)


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient goes to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    return _pick(a, b, a.data <= b.data)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    if not _GRAD_ENABLED:
        return Tensor(out)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return Tensor._make(out, tuple(tensors), bwd)


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
    if not _GRAD_ENABLED:
        return Tensor(out)

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
    if not _GRAD_ENABLED:
        return Tensor(out)

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
        x.accumulate_grad(-_unbroadcast(gc, ve.shape) * k)

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


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def normal_parameter(rng: np.random.Generator, *shape: int) -> Tensor:
    """A weight of `shape` drawn from N(0, 0.02^2), the init of every
    randomly drawn weight in the network."""
    return parameter(rng.normal(scale=0.02, size=shape))


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
