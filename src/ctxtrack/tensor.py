"""Dense float64 tensors with taped reverse-mode gradients.

A Tensor wraps a numpy float64 array. Every op that touches a tensor
requiring gradients records its parents and how to reach them, so calling
``backward()`` on a scalar result walks the tape in reverse topological
order and accumulates gradients additively over fan-out. `Tensor._make`
builds every node. Most ops record one local derivative per parent, which
the sweep applies itself; `matmul` and the fused ops record a backward
callable. The fused ops share array-level kernels, and their forward
values match, bit for bit, the primitive-op composites in the tests; so do
`linear`'s gradients. `gelu` and `layer_norm` take x's gradient in closed
form, and a transformer block's two sublayers sum theirs in their own
order, all within 1e-12 relative of the composite. An op run while no
tape is recorded builds neither. The tape is rebuilt on every forward
pass and freed by the sweep that walks it; there is no graph reuse.
"""
from __future__ import annotations

import math
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
    # ints and slices pick each element at most once
    if all(isinstance(i, slice) or (isinstance(i, (int, np.integer))
                                    and not isinstance(i, bool)) for i in items):
        full[idx] = g
    else:
        np.add.at(full, idx, g)
    return full


class Tensor:
    # `_backward` is None on a leaf; on a primitive op's node, a tuple with one
    # local derivative per entry of `_parents`; on `matmul` or a fused op, a
    # callable that takes the output gradient
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # ------------------------------------------------------------------
    # tape plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None] | tuple) -> "Tensor":
        """A node over the parents that require a gradient, or a plain tensor
        while no tape is recorded. A tuple `backward` holds one local
        derivative per parent, output to parent gradient, filtered with them."""
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

    @staticmethod
    def _wrap(data: np.ndarray) -> "Tensor":
        """A plain tensor over `data`, a float64 array, which it does not
        read again as `Tensor(data)` would."""
        t = Tensor.__new__(Tensor)
        t.data, t.grad, t.requires_grad, t._backward, t._parents = data, None, False, None, ()
        return t

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
        return Tensor._make(self.data + other.data, (self, other), (_same, _same))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), (np.negative,))

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor._make(self.data - other.data, (self, other), (_same, np.negative))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor._make(self.data * other.data, (self, other),
                            (lambda g: g * other.data, lambda g: g * self.data))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        return Tensor._make(self.data / other.data, (self, other),
                            (lambda g: g / other.data,
                             lambda g: -g * self.data / (other.data * other.data)))

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        c = float(exponent)
        return Tensor._make(np.power(self.data, c), (self,),
                            (lambda g: g * c * np.power(self.data, c - 1.0),))

    # ------------------------------------------------------------------
    # elementwise transcendentals
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return Tensor._make(out, (self,), (lambda g: g * out,))

    def log(self) -> "Tensor":
        return Tensor._make(np.log(self.data), (self,), (lambda g: g / self.data,))

    def sigmoid(self) -> "Tensor":
        x = self.data
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return Tensor._make(out, (self,), (lambda g: g * out * (1.0 - out),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._make(np.where(mask, self.data, 0.0), (self,), (lambda g: g * mask,))

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.data.shape
        # the summed axes come back as size-1 axes, then broadcast
        kept = axis if axis is not None and not keepdims else ()
        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                            (lambda g: np.broadcast_to(np.expand_dims(g, kept), in_shape),))

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.data.shape
        return Tensor._make(self.data.reshape(shape), (self,),
                            (lambda g: g.reshape(in_shape),))

    def rearrange(self, shape: tuple[int, ...], axes: tuple[int, ...],
                  out_shape: tuple[int, ...]) -> "Tensor":
        """x.reshape(shape).transpose(axes).reshape(out_shape) as one node;
        its backward applies the inverse views to the output gradient.
        `axes` is a permutation of range(len(shape))."""
        view = self.data.reshape(shape).transpose(axes)
        mid, in_shape = view.shape, self.data.shape
        return Tensor._make(view.reshape(out_shape), (self,), (
            lambda g: g.reshape(mid).transpose(_inverse(axes)).reshape(in_shape),))

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        return Tensor._make(self.data.swapaxes(ax1, ax2), (self,),
                            (lambda g: g.swapaxes(ax1, ax2),))

    def permute_rows(self, order: np.ndarray, inverse: np.ndarray,
                     shape: tuple[int, ...]) -> "Tensor":
        """The rows of x (its last axis) taken in `order`, reshaped to
        `shape`. `order` is a permutation of the rows and `inverse` undoes
        it, so the backward gathers the gradient's rows by `inverse`."""
        in_shape, width = self.data.shape, self.data.shape[-1]
        out = self.data.reshape(-1, width).take(order, axis=0).reshape(shape)
        return Tensor._make(out, (self,), (
            lambda g: g.reshape(-1, width).take(inverse, axis=0).reshape(in_shape),))

    def __getitem__(self, idx) -> "Tensor":
        in_shape = self.data.shape
        return Tensor._make(self.data[idx], (self,), (lambda g: _scatter(g, in_shape, idx),))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# n-ary ops
# ----------------------------------------------------------------------

def _requires_grad(x) -> bool:
    return isinstance(x, Tensor) and x.requires_grad


_F64 = np.dtype(np.float64)


def _rows_product(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """aᵀ @ g summed over every leading axis, as one 2-D product over the
    rows of a and g: the gradient of a 2-D b in a @ b."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch semantics over 2-D or wider operands.

    Operands may be tensors or arrays. Two float64 arrays, which is how the
    fused ops call this for each FLOP-counted product, are used as they are
    and make no node.
    """
    if type(a) is np.ndarray and type(b) is np.ndarray and a.dtype is _F64 and b.dtype is _F64:
        ad, bd, taped = a, b, False
    else:
        ad = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
        bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
        taped = _GRAD_ENABLED and (_requires_grad(a) or _requires_grad(b))
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul needs at least 2-D operands: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {ad.shape} @ {bd.shape}")
    if not taped:
        return Tensor._wrap(ad @ bd)
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape))
        if b.requires_grad:
            b.accumulate_grad(_rows_product(ad, g) if bd.ndim == 2
                              else _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))

    return Tensor._make(ad @ bd, (a, b), bwd)


def _exp_normalize(shifted: np.ndarray) -> np.ndarray:
    """exp, then division by the last-axis sum, in place: the softmax of
    logits whose last-axis max `shifted` already has subtracted."""
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def _linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w (+ b) on arrays: one 2-D product over the rows of x, then the
    bias, added in place."""
    if x.ndim < 2:
        raise ValueError(f"linear needs at least 2-D x: {x.shape} @ {w.shape}")
    out = matmul(x.reshape(-1, x.shape[-1]), w).data.reshape(x.shape[:-1] + w.shape[1:])
    if b is not None:
        out += b
    return out


def _linear_backward(g: np.ndarray, x: np.ndarray, weight: Tensor,
                     bias: Tensor | None, x_grad: bool = True) -> np.ndarray | None:
    """Gradients of x @ weight (+ bias) as `matmul` followed by `+ bias`
    takes them: the bias and the weight receive theirs, and x's is
    returned when `x_grad` holds."""
    if bias is not None and bias.requires_grad:
        bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
    if weight.requires_grad:
        weight.accumulate_grad(_rows_product(x, g))
    return g @ weight.data.T if x_grad else None


def linear(x, weight, bias=None) -> Tensor:
    """Affine map on the last axis, x @ weight (+ bias), as one tape node.

    The forward runs one 2-D product over the rows of x, then adds the bias
    in place; it agrees with the batched `matmul(x, weight)` (+ bias) to
    rounding, as BLAS may sum a row in another order. The backward repeats,
    in order, the float operations of `matmul` followed by `+ bias`, so for
    one incoming gradient the gradients match that composite's bit for bit.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = None if bias is None else as_tensor(bias)
    out = _linear_forward(x.data, weight.data, None if bias is None else bias.data)
    if not _GRAD_ENABLED:
        return Tensor._wrap(out)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        gx = _linear_backward(g, x.data, weight, bias, x.requires_grad)
        if gx is not None:
            x.accumulate_grad(gx)

    return Tensor._make(out, parents, bwd)


def _attention_softmax(q: np.ndarray, k: np.ndarray, scale: float,
                       biases: Sequence[np.ndarray] = ()) -> np.ndarray:
    """softmax(q @ kᵀ * scale + Σ biases) over the last axis, on arrays, in
    the product's buffer: scale, add each bias in turn, then softmax in
    place."""
    out = matmul(q, k.swapaxes(-1, -2)).data
    out *= scale
    for b in biases:
        out += b
    out -= out.max(axis=-1, keepdims=True)
    return _exp_normalize(out)


def _attention_softmax_backward(g: np.ndarray, out: np.ndarray, q: np.ndarray,
                                k: np.ndarray, scale: float,
                                biases: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `_attention_softmax`'s output `out`: each bias tensor
    receives its own, and q's and k's are returned."""
    gl = g - (g * out).sum(axis=-1, keepdims=True)
    gl *= out
    for b in biases:
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(gl, b.data.shape))
    gl *= scale
    return gl @ k, gl.swapaxes(-1, -2) @ q


def _pick(a: Tensor, b: Tensor, take_a: np.ndarray) -> Tensor:
    """a where `take_a` holds, else b; each gradient follows the pick."""
    return Tensor._make(np.where(take_a, a.data, b.data), (a, b),
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
    """The tensors joined along `axis`; a lone tensor comes back as it is."""
    tensors = [as_tensor(t) for t in tensors]
    if len(tensors) == 1:
        return tensors[0]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    if not _GRAD_ENABLED:
        return Tensor._wrap(out)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return Tensor._make(out, tuple(tensors), bwd)


# byte budget of one block's buffer in a tape-free sublayer: the logits of
# a block of heads in attention, or the tanh of a block of rows of the
# feed-forward's hidden activations
_BLOCK_BYTES = 1 << 20


def _blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices over `count` items of `width` float64 values each,
    as many items per slice as fit in `_BLOCK_BYTES`, and at least one."""
    step = max(1, _BLOCK_BYTES // (8 * width))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh((x + x*x*x*0.044715) * sqrt(2/pi)), in one fresh array."""
    out = x * x
    out *= x
    out *= 0.044715
    out += x
    out *= _GELU_C
    return np.tanh(out, out=out)


def _gelu_backward(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x's gradient of gelu in closed form, with th its tanh, recomputed:
    g*(0.5*(1 + th) + 0.5*x*(1 - th*th)*c*(1 + 3*0.044715*x*x)), taken as
    g*(1 + th)*(1 + (1 - th)*x*(1 + 3*0.044715*x*x)*c)*0.5."""
    th = _gelu_tanh(x)
    # one expression, so numpy reuses each temporary in place
    return (((x * x * (3.0 * 0.044715) + 1.0) * x * _GELU_C * (1.0 - th) + 1.0)
            * (th + 1.0) * g * 0.5)


def _gelu_in_place(x: np.ndarray) -> np.ndarray:
    """Smooth gelu, x * (tanh(...) + 1) * 0.5, written over x, one `_blocks`
    of its rows at a time, so only one block's tanh is held beside it."""
    for rows in _blocks(len(x), math.prod(x.shape[1:])):
        part = x[rows]
        th = _gelu_tanh(part)
        th += 1.0
        part *= th
        part *= 0.5
    return x


def gelu(t: Tensor) -> Tensor:
    """Smooth gelu (tanh form), x * (tanh(...) + 1) * 0.5, as one tape node.

    The forward repeats, in order, the float operations of the same formula
    built from primitive ops, so its values match it bit for bit. The
    backward is the closed-form derivative, within 1e-12 relative of the
    composite's gradient.
    """
    t = as_tensor(t)
    x = t.data
    out = _gelu_in_place(x.copy())
    if not _GRAD_ENABLED:
        return Tensor._wrap(out)
    return Tensor._make(out, (t,), lambda g: t.accumulate_grad(_gelu_backward(g, x)))


_LAYER_NORM_EPS = 1e-5   # added to the variance


def _layer_norm_forward(x: np.ndarray, gamma: np.ndarray,
                        beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of an array over its last axis: the output, and the
    centred input and (..., 1) inverse standard deviation that the backward
    reads."""
    k = 1.0 / x.shape[-1]
    c = x - x.sum(axis=-1, keepdims=True) * k
    inv = np.power((c * c).sum(axis=-1, keepdims=True) * k + _LAYER_NORM_EPS, -0.5)
    out = c * inv
    out *= gamma
    out += beta
    return out, c, inv


def _layer_norm_backward(g: np.ndarray, c: np.ndarray, inv: np.ndarray,
                         gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Gradients of `_layer_norm_forward`: beta's and gamma's, then x's,
    returned in closed form, inv*(gn - mean(gn) - n*mean(gn*n)) with
    gn = g*gamma and n = c*inv, all means over the last axis."""
    if beta.requires_grad:
        beta.accumulate_grad(_unbroadcast(g, beta.data.shape))
    normed = c * inv
    if gamma.requires_grad:
        gamma.accumulate_grad(_unbroadcast(normed * g, gamma.data.shape))
    k = 1.0 / c.shape[-1]
    gn = g * gamma.data
    normed *= (gn * normed).sum(axis=-1, keepdims=True) * k
    return (gn - gn.sum(axis=-1, keepdims=True) * k - normed) * inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale by gamma and shift by beta.

    One tape node. The forward keeps the centred input and the (..., 1)
    inverse standard deviation, and repeats, in order, the float operations
    of the mean / centre / variance / scale formula built from primitive
    ops, so its values match it bit for bit, and so do gamma's and beta's
    gradients. x's gradient is the closed form, within 1e-12 relative of
    the composite's.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    out, c, inv = _layer_norm_forward(x.data, gamma.data, beta.data)
    if not _GRAD_ENABLED:
        return Tensor._wrap(out)

    def bwd(g):
        gx = _layer_norm_backward(g, c, inv, gamma, beta)
        if x.requires_grad:
            x.accumulate_grad(gx)

    return Tensor._make(out, (x, gamma, beta), bwd)


# ----------------------------------------------------------------------
# transformer sublayers
# ----------------------------------------------------------------------

def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, dim) -> (..., heads, L, dim // heads), as a view."""
    shape = a.shape
    return a.reshape(shape[:-1] + (heads, shape[-1] // heads)).swapaxes(-3, -2)


def _merge_heads(*parts: np.ndarray) -> np.ndarray:
    """(..., L, n * dim) from n arrays (..., heads, L, head_dim), side by
    side on the last axis, each the inverse of `_split_heads`."""
    *lead, heads, length, head_dim = parts[0].shape
    out = np.empty((*lead, length, len(parts), heads, head_dim))
    for i, part in enumerate(parts):
        out[..., i, :, :] = part.swapaxes(-3, -2)
    return out.reshape(*lead, length, len(parts) * heads * head_dim)


def _projections_backward(x: Tensor, weights: Sequence[Tensor],
                          head_grads: Sequence[np.ndarray]) -> None:
    """Gradients of the projections x @ w from their split-head gradients:
    the weights' from one product, and x's from one more."""
    g = _merge_heads(*head_grads)
    g_w, dim = _rows_product(x.data, g), x.data.shape[-1]
    for i, w in enumerate(weights):
        if w.requires_grad:
            w.accumulate_grad(g_w[:, i * dim:(i + 1) * dim])
    if x.requires_grad:
        w_all = np.concatenate([w.data for w in weights], axis=1)
        x.accumulate_grad((g.reshape(-1, g.shape[-1]) @ w_all.T).reshape(x.data.shape))


def attention_sublayer(xq, xk, w_query: Tensor, w_key: Tensor, w_value: Tensor,
                       w_out: Tensor, heads: int, scale: float,
                       biases: Sequence[Tensor] | Callable[[slice], Sequence[np.ndarray]] = ()
                       ) -> Tensor:
    """Multi-head attention of the tokens xq over xk, (..., Lq, dim), as one
    tape node.

    The query, key and value projections of xq, xk and xk are split into
    `heads` heads over the last axis; each head's weights are
    softmax(q @ kᵀ * scale + Σ biases) over the keys; the weighted values
    are merged and projected by `w_out`. Leading axes batch, one per
    window. The forward repeats, in order, the float operations of that
    formula built from `linear`, `rearrange`, `matmul`, `*`, `+` and a
    last-axis softmax node (`composite_attend` in tests/reference_ops.py),
    so its values match it bit for bit. The backward hands each input one
    gradient: the projection weights of each input take theirs from one
    product, and so does the input.

    Tape-free, `biases` is either empty or a function that gives a slice of
    heads of each (heads, Lq, Lk) term, never the terms themselves, and a
    2-D xq, a joint layer's, is walked in `_blocks` of heads, so no
    (heads, Lq, Lk) array is built whole. Each block makes the very products
    that one head of the batched product makes, so every bit stays the same.
    """
    xq, xk = as_tensor(xq), as_tensor(xk)
    xqd, xkd = xq.data, xk.data

    def project(x: np.ndarray, w: Tensor) -> np.ndarray:
        return _split_heads(_linear_forward(x, w.data), heads)

    if not _GRAD_ENABLED:
        if not callable(biases) and len(biases):
            raise ValueError("tape-free attention takes its bias terms as a "
                             "function of a slice of heads")
        term_heads = biases or (lambda block: ())
        # a leading window axis keeps the whole product: each window is small
        blocks = (_blocks(heads, xqd.shape[0] * xkd.shape[0]) if xqd.ndim == 2
                  else [slice(None)])
        if len(blocks) == 1:
            # one expression, so each intermediate is freed once it is used
            return Tensor._wrap(_linear_forward(_merge_heads(matmul(
                _attention_softmax(project(xqd, w_query), project(xkd, w_key), scale,
                                   term_heads(slice(None))),
                project(xkd, w_value)).data), w_out.data))
        q, k, v = project(xqd, w_query), project(xkd, w_key), project(xkd, w_value)
        merged = np.empty(xqd.shape)
        merged_heads = _split_heads(merged, heads)   # a view that writes into `merged`
        for block in blocks:
            merged_heads[block] = matmul(_attention_softmax(q[block], k[block], scale,
                                                            term_heads(block)), v[block]).data
        return Tensor._wrap(_linear_forward(merged, w_out.data))
    biases = tuple(as_tensor(b) for b in biases)
    bias_data = [b.data for b in biases]
    v = project(xkd, w_value)
    q, k = project(xqd, w_query), project(xkd, w_key)
    weights = _attention_softmax(q, k, scale, bias_data)
    merged = _merge_heads(matmul(weights, v).data)

    def bwd(g):
        g_av = _split_heads(_linear_backward(g, merged, w_out, None), heads)
        g_v = weights.swapaxes(-1, -2) @ g_av
        g_q, g_k = _attention_softmax_backward(g_av @ v.swapaxes(-1, -2), weights, q, k,
                                               scale, biases)
        if xq is xk:
            _projections_backward(xq, (w_query, w_key, w_value), (g_q, g_k, g_v))
        else:
            _projections_backward(xq, (w_query,), (g_q,))
            _projections_backward(xk, (w_key, w_value), (g_k, g_v))

    return Tensor._make(_linear_forward(merged, w_out.data),
                        (xq, w_query, w_key, *biases, xk, w_value, w_out), bwd)


def feed_forward_sublayer(tokens, attn, gamma: Tensor, beta: Tensor, w1: Tensor,
                          b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """res + fc2(gelu(fc1(layer_norm(res)))) with res = tokens + attn, the
    pre-norm feed-forward sublayer with both residual adds, as one tape node.

    The forward repeats, in order, the float operations of that formula
    built from `+`, `layer_norm`, `linear` and `gelu`, so its values match
    it bit for bit. The backward hands tokens and attn one gradient, the
    gradient of res.
    """
    tokens, attn = as_tensor(tokens), as_tensor(attn)
    res = tokens.data + attn.data
    if not _GRAD_ENABLED:
        # one expression, so each intermediate is freed once it is used
        out = _linear_forward(_gelu_in_place(_linear_forward(
            _layer_norm_forward(res, gamma.data, beta.data)[0], w1.data, b1.data)),
            w2.data, b2.data)
        return Tensor._wrap(np.add(res, out, out=out))
    normed, c, inv = _layer_norm_forward(res, gamma.data, beta.data)
    hidden = _linear_forward(normed, w1.data, b1.data)
    act = _gelu_in_place(hidden.copy())
    out = _linear_forward(act, w2.data, b2.data)

    def bwd(g):
        g_hidden = _gelu_backward(_linear_backward(g, act, w2, b2), hidden)
        g_res = g + _layer_norm_backward(_linear_backward(g_hidden, normed, w1, b1), c, inv,
                                         gamma, beta)
        for t in (tokens, attn):
            if t.requires_grad:
                t.accumulate_grad(g_res)

    return Tensor._make(np.add(res, out, out=out),
                        (tokens, attn, gamma, beta, w1, b1, w2, b2), bwd)


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
