"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the PyTorch substitute (``repro.nn``).  A
:class:`Tensor` wraps a ``numpy.ndarray`` and records a define-by-run tape of
operations; calling :meth:`Tensor.backward` walks the tape in reverse
topological order and accumulates gradients into ``.grad``.

Design notes
------------
* Each differentiable op is a free function (or ``Tensor`` method) that
  constructs the output tensor and attaches a closure ``_backward(grad)``
  computing the local vector-Jacobian product.  The closure never captures
  its own output, so the tape holds no reference cycle (see
  :meth:`Tensor.backward`).
* Broadcasting is supported everywhere; gradients are summed back over the
  broadcast dimensions by :func:`unbroadcast`.
* A global gradient-mode flag (:func:`no_grad`, :func:`is_grad_enabled`)
  mirrors ``torch.no_grad()`` so evaluation code can skip tape construction.
* Elementwise ops on gradient-free tensors are *lazy*: they record a
  :class:`repro.nn.lazy.LazyOp` node instead of computing, and realization
  (triggered by ``.data`` / ``.numpy()`` / ``.item()`` access, comparisons,
  ``backward()``, eager kernel ops, or :meth:`Tensor.realize`) fuses
  elementwise chains into single buffer passes.  ``REPRO_LAZY=0`` restores
  fully eager semantics; results are bit-identical either way.  See
  :mod:`repro.nn.lazy`.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import lazy as _lazy
from .backends import get_backend

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "tensor",
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "full",
    "arange",
    "randn",
    "rand",
    "eye",
    "stack",
    "concatenate",
    "cat",
    "where",
    "maximum",
    "minimum",
    "unbroadcast",
]


# Grad mode is thread-local (as in torch): serving runs inference inside
# executor threads under no_grad(), and a process-global flag would let two
# overlapping contexts in different threads restore each other's state.
_GRAD_MODE = threading.local()


def is_grad_enabled() -> bool:
    """Return ``True`` when operations should record the autograd tape."""
    return getattr(_GRAD_MODE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction (like ``torch.no_grad``)."""
    prev = is_grad_enabled()
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


@contextlib.contextmanager
def enable_grad():
    """Context manager (re-)enabling tape construction."""
    prev = is_grad_enabled()
    _GRAD_MODE.enabled = True
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype == object:
        raise TypeError(f"cannot convert {value!r} to a numeric array")
    return arr


def _shift_right_one(arr: np.ndarray, axis: int) -> np.ndarray:
    """Shift ``arr`` one step along ``axis``, filling the vacated front with 0."""
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    src[axis] = slice(None, -1)
    dst[axis] = slice(1, None)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _resolve_reshape(in_shape: Tuple[int, ...], requested: Tuple[int, ...]) -> Tuple[int, ...]:
    """Resolve a requested reshape (incl. one ``-1``) against ``in_shape``
    without touching data, mirroring numpy's validation errors."""
    total = int(np.prod(in_shape, dtype=np.int64)) if in_shape else 1
    if requested.count(-1) > 1:
        raise ValueError("can only specify one unknown dimension")
    if -1 in requested:
        known = 1
        for dim in requested:
            if dim != -1:
                known *= dim
        if known == 0 or total % known:
            raise ValueError(f"cannot reshape array of size {total} into shape {requested}")
        return tuple(total // known if dim == -1 else dim for dim in requested)
    if int(np.prod(requested, dtype=np.int64) if requested else 1) != total:
        raise ValueError(f"cannot reshape array of size {total} into shape {requested}")
    return requested


def _from_lazy(node: "_lazy.LazyOp", op: str) -> "Tensor":
    """Wrap a recorded :class:`~repro.nn.lazy.LazyOp` in an unrealized Tensor."""
    out = Tensor.__new__(Tensor)
    out._data = None
    out._lazy = node
    out.grad = None
    out.requires_grad = False
    out._backward = _noop_backward
    out._prev = ()
    out._op = op
    return out


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that were introduced or expanded by
    broadcasting so that the result has exactly ``shape``."""
    if grad.shape == tuple(shape):
        return grad
    # Sum over leading axes that were prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node_grad(grad, like: np.ndarray) -> np.ndarray:
    """The gradient a tape node holding ``like`` stores from one contribution:
    ``grad`` in ``like``'s float dtype, unbroadcast to its shape.

    :meth:`Tensor._accumulate` applies it to every contribution; composite
    ops apply it at each node of the expression they replace, so their
    gradients stay bit-identical to that expression's tape.
    """
    dtype = like.dtype
    return unbroadcast(np.asarray(grad, dtype=dtype if dtype.kind == "f" else np.float64),
                       like.shape)


def _shape_like(a: np.ndarray) -> np.ndarray:
    """A zero-strided stand-in with ``a``'s shape and dtype, so a composite's
    backward can call :func:`_node_grad` for a node without holding its
    buffer."""
    return np.broadcast_to(np.zeros((), dtype=a.dtype), a.shape)


def _matmul_vjp(a: np.ndarray, b: np.ndarray,
                g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of ``a @ b`` (numpy broadcasting semantics, 1-D operands
    included) for the output gradient ``g``, unbroadcast to ``a.shape`` and
    ``b.shape``."""
    if a.ndim == 1 and b.ndim == 1:
        return g * b, g * a
    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    g2 = g
    if a.ndim == 1:
        g2 = np.expand_dims(g2, -2)
    if b.ndim == 1:
        g2 = np.expand_dims(g2, -1)
    backend = get_backend()
    ga = backend.matmul(g2, np.swapaxes(b2, -1, -2))
    gb = backend.matmul(np.swapaxes(a2, -1, -2), g2)
    if a.ndim == 1:
        ga = np.squeeze(ga, -2)
    if b.ndim == 1:
        gb = np.squeeze(gb, -1)
    return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)


def _noop_backward(grad) -> None:
    return None


class Tensor:
    """A NumPy-backed (and lazily evaluated) array node in the autograd graph."""

    __slots__ = ("_data", "_lazy", "grad", "requires_grad", "_backward", "_prev", "_op")

    __array_priority__ = 1000  # make numpy defer to our __r*__ operators

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        arr = _as_array(data)
        if requires_grad and arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self._data: Optional[np.ndarray] = arr
        self._lazy: Optional[_lazy.LazyOp] = None
        self.grad: Optional[np.ndarray] = None
        # NOTE: explicit requires_grad is honoured even inside no_grad() —
        # like torch, grad mode only controls whether *operations* record the
        # tape (handled by _make and the op implementations), not whether leaf
        # tensors can require gradients.
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] = _noop_backward
        self._prev: Tuple[Tensor, ...] = _prev if self.requires_grad or _prev else ()
        self._op = _op

    # ------------------------------------------------------------------ data
    @property
    def data(self) -> np.ndarray:
        """The underlying array; accessing it realizes any pending lazy graph."""
        if self._data is None:
            _lazy.realize(self)
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = value if isinstance(value, np.ndarray) else np.asarray(value)
        self._lazy = None

    def realize(self) -> "Tensor":
        """Force evaluation of this tensor's lazy graph; returns ``self``."""
        if self._data is None:
            _lazy.realize(self)
        return self

    @property
    def is_realized(self) -> bool:
        """False while this tensor is a pending node of the lazy op graph."""
        return self._data is not None

    # ------------------------------------------------------------------ meta
    # Shape/dtype metadata comes from the lazy node when the tensor is
    # unrealized, so inspecting it never forces evaluation.
    @property
    def shape(self) -> Tuple[int, ...]:
        if self._data is None:
            return self._lazy.shape
        return self._data.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def dtype(self):
        if self._data is None:
            return self._lazy.dtype
        return self._data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        shape = self.shape
        if not shape:
            raise TypeError("len() of unsized object")
        return shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, suppress_small=True)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        # cloning a lazy tensor records a node rather than realizing the
        # source graph; the backward closure (grad path only) is unchanged
        out = self._make_ew("clone", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad)

            out._backward = _backward
        return out

    def contiguous(self) -> "Tensor":
        """Return a C-contiguous tensor (``self`` when already contiguous).

        An unrealized lazy tensor is returned as-is: realization writes into
        freshly allocated (contiguous) buffers, so forcing it here would only
        break fusion.
        """
        if self._data is None or self._data.flags["C_CONTIGUOUS"]:
            if _lazy.lazy_enabled():
                _lazy.STATS.buffers_elided += 1
            return self
        out = self._make(np.ascontiguousarray(self.data), (self,), "contiguous")
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad)

            out._backward = _backward
        return out

    def copy_(self, other: ArrayLike) -> "Tensor":
        """In-place copy of values (no autograd tracking)."""
        self.data[...] = _as_array(other)
        return self

    def zero_grad(self) -> None:
        self.grad = None

    # -------------------------------------------------------------- plumbing
    @staticmethod
    def _make(data: np.ndarray, prev: Tuple["Tensor", ...], op: str) -> "Tensor":
        """One tape node: ``data`` computed from ``prev`` by ``op``; the caller
        attaches ``_backward`` when the result requires grad."""
        requires = is_grad_enabled() and any(p.requires_grad for p in prev)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = prev
            out._op = op
        return out

    def _make_ew(self, op: str, parents: Tuple["Tensor", ...], **params) -> "Tensor":
        """Build an elementwise op result: a lazy node for gradient-free
        inputs (when the engine is enabled), else an eagerly computed tensor.

        Gradient-tracking ops always realize at record time: the ``_backward``
        closure the caller attaches is the realization-time product, so the
        autograd tape is exactly the eager engine's.  Both paths run the same
        kernels (:data:`repro.nn.lazy.ELEMENTWISE_OPS`) — bit-identical.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires and _lazy.lazy_enabled():
            return _from_lazy(_lazy.record(op, parents, params), op)
        data = _lazy.compute_eager(op, [p.data for p in parents], params)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = parents
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _node_grad(grad, self.data)
        # The first contribution is stored as is, views and shared arrays
        # included: nothing writes into a ``.grad`` in place (lint R010), and
        # later contributions add out of place.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (and must be provided for non-scalar
        outputs only if a non-trivial seed gradient is desired).

        Every differentiable op attaches ``out._backward(grad)`` to its
        output: a closure that receives the gradient of ``out`` and
        accumulates the vector-Jacobian product into ``out``'s parents.  It
        captures only the parents and plain arrays, never ``out`` itself, so
        the tape is acyclic and a graph is freed by reference counting the
        moment its root is dropped, whether or not ``backward`` ever ran.

        The graph is retained: calling ``backward`` again on the same root
        propagates the seed once more.  Interior nodes start each pass from
        zero, so every leaf receives exactly one more single-pass gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            # copied once, so no gradient on the tape aliases the caller's array
            grad = _as_array(grad).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited and child.requires_grad:
                    stack.append((child, False))

        for node in topo:
            if node._prev:
                node.grad = None
        self._accumulate(grad)
        for node in reversed(topo):
            node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_ew("add", (self, other_t))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad)
                other_t._accumulate(grad)

            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_ew("neg", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(-grad)

            out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_ew("sub", (self, other_t))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad)
                other_t._accumulate(-grad)

            out._backward = _backward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_ew("mul", (self, other_t))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * other_t.data)
                other_t._accumulate(grad * self.data)

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_ew("div", (self, other_t))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad / other_t.data)
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

            out._backward = _backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: Union[int, float]) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_ew("pow", (self,), exponent=exponent)
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

            out._backward = _backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(get_backend().matmul(self.data, other_t.data),
                         (self, other_t), "matmul")
        if out.requires_grad:

            def _backward(grad):
                ga, gb = _matmul_vjp(self.data, other_t.data, grad)
                self._accumulate(ga)
                other_t._accumulate(gb)

            out._backward = _backward
        return out

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) @ self

    # ----------------------------------------------------------- comparisons
    # Comparisons return plain boolean arrays (no gradient flows through them).
    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def eq(self, other: ArrayLike) -> np.ndarray:
        return self.data == _as_array(other)

    # ------------------------------------------------------------ elementwise
    def exp(self) -> "Tensor":
        out = self._make_ew("exp", (self,))
        if out.requires_grad:
            out_data = out.data

            def _backward(grad):
                self._accumulate(grad * out_data)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_ew("log", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad / self.data)

            out._backward = _backward
        return out

    def log1p(self) -> "Tensor":
        out = self._make_ew("log1p", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad / (1.0 + self.data))

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        out = self._make_ew("sqrt", (self,))
        if out.requires_grad:
            out_data = out.data

            def _backward(grad):
                self._accumulate(grad * 0.5 / out_data)

            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make_ew("abs", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * np.sign(self.data))

            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out = self._make_ew("tanh", (self,))
        if out.requires_grad:
            out_data = out.data

            def _backward(grad):
                self._accumulate(grad * (1.0 - out_data ** 2))

            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out = self._make_ew("sigmoid", (self,))
        if out.requires_grad:
            out_data = out.data

            def _backward(grad):
                self._accumulate(grad * out_data * (1.0 - out_data))

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = self._make_ew("relu", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * (self.data > 0))

            out._backward = _backward
        return out

    def softplus(self) -> "Tensor":
        out = self._make_ew("softplus", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * _lazy.compute_eager("sigmoid", [self.data]))

            out._backward = _backward
        return out

    def erf(self) -> "Tensor":
        out = self._make_ew("erf", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * 2.0 / math.sqrt(math.pi)
                                 * _lazy.compute_eager("exp", [-self.data ** 2]))

            out._backward = _backward
        return out

    def sin(self) -> "Tensor":
        out = self._make_ew("sin", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * _lazy.compute_eager("cos", [self.data]))

            out._backward = _backward
        return out

    def cos(self) -> "Tensor":
        out = self._make_ew("cos", (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(-grad * _lazy.compute_eager("sin", [self.data]))

            out._backward = _backward
        return out

    def clamp(self, min: Optional[float] = None, max: Optional[float] = None) -> "Tensor":
        out = self._make_ew("clamp", (self,), min=min, max=max)
        if out.requires_grad:

            def _backward(grad):
                mask = np.ones_like(self.data, dtype=bool)
                if min is not None:
                    mask &= self.data >= min
                if max is not None:
                    mask &= self.data <= max
                self._accumulate(grad * mask)

            out._backward = _backward
        return out

    clip = clamp

    def cumsum(self, axis: int = -1, exclusive: bool = False) -> "Tensor":
        """Cumulative sum along ``axis``; ``exclusive=True`` gives ``sum_{j<i} x_j``.

        Both forward and backward are native O(n) scans.  The exclusive
        variant shifts the inclusive partial sums right by one (a zero enters
        at the front), so ``out_i`` is the exact sequential partial sum of the
        first ``i`` elements — the transmittance accumulator the volumetric
        renderer needs, without the O(n^2) strictly-lower-triangular matmul it
        used to build.
        """
        ax = axis if axis >= 0 else axis + self.ndim
        if not 0 <= ax < self.ndim:
            raise ValueError(f"axis {axis} out of bounds for {self.ndim}-D tensor")
        inclusive = get_backend().cumsum(self.data, axis=ax)
        data = _shift_right_one(inclusive, ax) if exclusive else inclusive
        out = self._make(data, (self,), "cumsum")
        if out.requires_grad:

            def _backward(grad):
                # d out_i / d x_j = 1 for j <= i (inclusive) or j < i (exclusive),
                # so the input gradient is a reversed (exclusive) cumulative sum.
                rev = np.flip(grad, axis=ax)
                acc = get_backend().cumsum(rev, axis=ax)
                if exclusive:
                    acc = _shift_right_one(acc, ax)
                self._accumulate(np.flip(acc, axis=ax))

            out._backward = _backward
        return out

    # ------------------------------------------------------------ reductions
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out = self._make(get_backend().sum(self.data, axis=axis, keepdims=keepdims),
                         (self,), "sum")
        if out.requires_grad:
            in_shape = self.shape

            def _backward(grad):
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % len(in_shape) for a in axes)
                    grad = np.expand_dims(grad, tuple(sorted(axes)))
                self._accumulate(np.broadcast_to(grad, in_shape))

            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False, unbiased: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        sq = (self - mean) ** 2
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        denom = count - 1 if unbiased else count
        return sq.sum(axis=axis, keepdims=keepdims) / float(max(denom, 1))

    def std(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False, unbiased: bool = False) -> "Tensor":
        return self.var(axis=axis, keepdims=keepdims, unbiased=unbiased).sqrt()

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = get_backend().max(self.data, axis=axis, keepdims=keepdims)
        out = self._make(data, (self,), "max")
        if out.requires_grad:

            def _backward(grad):
                maxval = data
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                    maxval = np.expand_dims(maxval, axis)
                mask = (self.data == maxval)
                # split gradient equally among ties to keep it a valid subgradient
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(grad * mask / counts)

            out._backward = _backward
        return out

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis: Optional[int] = None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        max_val = Tensor(get_backend().max(self.data, axis=axis, keepdims=True))
        shifted = self - max_val
        out = shifted.exp().sum(axis=axis, keepdims=True).log() + max_val
        if not keepdims:
            out = out.squeeze(axis)
        return out

    # --------------------------------------------------------------- shaping
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        new_shape = _resolve_reshape(self.shape, tuple(int(s) for s in shape))
        if new_shape == self.shape and _lazy.lazy_enabled():
            # identity reshape: gradient flow and values are unchanged, so
            # the movement op is elided entirely
            _lazy.STATS.buffers_elided += 1
            return self
        requires = is_grad_enabled() and self.requires_grad
        if not requires and _lazy.lazy_enabled():
            return _from_lazy(_lazy.record("reshape", (self,), {"shape": new_shape}),
                              "reshape")
        out = self._make(self.data.reshape(new_shape), (self,), "reshape")
        if out.requires_grad:
            in_shape = self.shape

            def _backward(grad):
                self._accumulate(grad.reshape(in_shape))

            out._backward = _backward
        return out

    view = reshape

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        # shape-only (no realization): squeezing is a pure movement op
        shape = self.shape
        if axis is None:
            new_shape = tuple(s for s in shape if s != 1)
        else:
            ax = axis if axis >= 0 else axis + len(shape)
            if not 0 <= ax < len(shape):
                raise ValueError(f"axis {axis} out of bounds for {len(shape)}-D tensor")
            if shape[ax] != 1:
                raise ValueError(f"cannot select an axis to squeeze out which has "
                                 f"size not equal to one (axis {axis}, size {shape[ax]})")
            new_shape = shape[:ax] + shape[ax + 1:]
        return self.reshape(new_shape)

    def unsqueeze(self, axis: int) -> "Tensor":
        shape = self.shape
        ax = axis if axis >= 0 else axis + len(shape) + 1
        if not 0 <= ax <= len(shape):
            raise ValueError(f"axis {axis} out of bounds for inserting into "
                             f"{len(shape)}-D tensor")
        return self.reshape(shape[:ax] + (1,) + shape[ax:])

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 0:
            axes_ = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_ = tuple(axes[0])
        elif len(axes) == 2:
            # torch-style transpose(dim0, dim1)
            axes_ = list(range(self.ndim))
            axes_[axes[0]], axes_[axes[1]] = axes_[axes[1]], axes_[axes[0]]
            axes_ = tuple(axes_)
        else:
            axes_ = tuple(axes)
        if _lazy.lazy_enabled():
            ndim = self.ndim
            identity = tuple(range(ndim))
            norm = (identity[::-1] if axes_ is None
                    else tuple(a % ndim for a in axes_))
            if norm == identity:
                _lazy.STATS.buffers_elided += 1
                return self
            if self._lazy is not None and self._lazy.op == "transpose":
                # inverse transpose pair: composing the permutations yields
                # the identity, so both movement ops are elided
                prev_axes = self._lazy.params["axes"]
                if tuple(prev_axes[a] for a in norm) == identity:
                    _lazy.STATS.buffers_elided += 1
                    return self._lazy.parents[0]
            if not (is_grad_enabled() and self.requires_grad):
                return _from_lazy(_lazy.record("transpose", (self,), {"axes": norm}),
                                  "transpose")
        out = self._make(np.transpose(self.data, axes_), (self,), "transpose")
        if out.requires_grad:

            def _backward(grad):
                if axes_ is None:
                    self._accumulate(np.transpose(grad))
                else:
                    inv = np.argsort(axes_)
                    self._accumulate(np.transpose(grad, inv))

            out._backward = _backward
        return out

    def permute(self, *axes) -> "Tensor":
        return self.transpose(*axes) if len(axes) != 2 else self.transpose(tuple(axes))

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes (``np.swapaxes``); ``swapaxes(-1, -2)`` is the
        batched-matmul transpose used by the vectorized-sample execution mode,
        where a stack of ``S`` weight matrices ``(S, out, in)`` multiplies a
        shared input through a single broadcast ``@``."""
        return self.transpose(axis1, axis2)

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        out = self._make(np.broadcast_to(self.data, tuple(shape)).copy(), (self,), "broadcast")
        if out.requires_grad:
            in_shape = self.shape

            def _backward(grad):
                self._accumulate(unbroadcast(grad, in_shape))

            out._backward = _backward
        return out

    expand = broadcast_to

    def __getitem__(self, idx) -> "Tensor":
        idx_ = idx.data if isinstance(idx, Tensor) else idx
        out = self._make(self.data[idx_], (self,), "getitem")
        if out.requires_grad:
            in_shape = self.shape

            def _backward(grad):
                full = np.zeros(in_shape, dtype=np.float64)
                np.add.at(full, idx_, grad)
                self._accumulate(full)

            out._backward = _backward
        return out


class Parameter(Tensor):
    """A :class:`Tensor` that is registered by :class:`repro.nn.Module`."""

    __slots__ = ()

    def __init__(self, data: ArrayLike, requires_grad: bool = True) -> None:
        super().__init__(_as_array(data).astype(np.float64), requires_grad=requires_grad)

    def __repr__(self) -> str:
        return "Parameter containing:\n" + super().__repr__()


# --------------------------------------------------------------------- helpers
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def zeros_like(x: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros_like(_as_array(x), dtype=np.float64), requires_grad=requires_grad)


def ones_like(x: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones_like(_as_array(x), dtype=np.float64), requires_grad=requires_grad)


def full(shape, fill_value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=np.float64), requires_grad=requires_grad)


def arange(*args, **kwargs) -> Tensor:
    return Tensor(np.arange(*args, **kwargs))


def eye(n: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.eye(n), requires_grad=requires_grad)


def _default_rng() -> np.random.Generator:
    from ..ppl.rng import get_rng  # lazy: ppl imports nn at package load
    return get_rng()


def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    gen = rng if rng is not None else _default_rng()
    return Tensor(gen.standard_normal(shape), requires_grad=requires_grad)


def rand(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    gen = rng if rng is not None else _default_rng()
    return Tensor(gen.random(shape), requires_grad=requires_grad)


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    ts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in ts], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in ts)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._prev = tuple(ts)
        out._op = "stack"

        def _backward(grad):
            grads = np.split(grad, len(ts), axis=axis)
            for t, g in zip(ts, grads):
                t._accumulate(np.squeeze(g, axis=axis))

        out._backward = _backward
    return out


def concatenate(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    ts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in ts)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._prev = tuple(ts)
        out._op = "concatenate"
        sizes = [t.shape[axis] for t in ts]
        offsets = list(itertools.accumulate([0] + sizes))

        def _backward(grad):
            for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(grad[tuple(sl)])

        out._backward = _backward
    return out


cat = concatenate


def where(condition: ArrayLike, x: ArrayLike, y: ArrayLike) -> Tensor:
    cond = _as_array(condition).astype(bool)
    xt = x if isinstance(x, Tensor) else Tensor(x)
    yt = y if isinstance(y, Tensor) else Tensor(y)
    data = np.where(cond, xt.data, yt.data)
    requires = is_grad_enabled() and (xt.requires_grad or yt.requires_grad)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._prev = (xt, yt)
        out._op = "where"

        def _backward(grad):
            xt._accumulate(grad * cond)
            yt._accumulate(grad * (~cond))

        out._backward = _backward
    return out


def maximum(x: ArrayLike, y: ArrayLike) -> Tensor:
    xt = x if isinstance(x, Tensor) else Tensor(x)
    yt = y if isinstance(y, Tensor) else Tensor(y)
    return where(xt.data >= yt.data, xt, yt)


def minimum(x: ArrayLike, y: ArrayLike) -> Tensor:
    xt = x if isinstance(x, Tensor) else Tensor(x)
    yt = y if isinstance(y, Tensor) else Tensor(y)
    return where(xt.data <= yt.data, xt, yt)
