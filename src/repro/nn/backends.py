"""The numpy compute kernels behind :mod:`repro.nn`.

The tensor layer's realization surface is a small kernel table: the
elementwise ops in ``repro.nn.lazy.ELEMENTWISE_OPS`` plus a handful of eager
entry points (matmul, channels-last im2col/col2im convolution, pooling
windows, reductions, cumsum).  :class:`NumpyKernels` holds all of them;
autograd, broadcasting, dtype inference, the fusion scheduler and
everything above are written against it.

Call sites look the kernels up through :func:`get_backend` at call time
(``get_backend().matmul(...)``, ``get_backend().elementwise[op]``) rather
than binding a method or the ``elementwise`` dict at import, so a profiler
that wraps the methods of ``type(get_backend())`` sees every kernel call.

Contracts:

* ``elementwise`` maps every ``ELEMENTWISE_OPS`` key to a kernel with the
  scheduler signature ``(srcs, params, out=None) -> np.ndarray``.  When the
  fusion pass passes ``out=`` (a dead temporary), the kernel writes the
  result into that buffer and returns it.
* Kernels take and return numpy arrays.
* Convolution is channels-last: :meth:`NumpyKernels.im2col` reads an
  ``(N, H, W, C)`` view, zero-pads it itself and orders each window's
  columns ``(kh, kw, c)``; :meth:`NumpyKernels.col2im` is its exact
  adjoint.  Both only gather and scatter (no arithmetic besides the
  scatter-add), so either side of them can be checked byte for byte.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import special as _sp_special

__all__ = ["NumpyKernels", "get_backend"]


def _ufunc1(fn):
    return lambda srcs, params, out=None: fn(srcs[0], out=out)


def _ufunc2(fn):
    return lambda srcs, params, out=None: fn(srcs[0], srcs[1], out=out)


def _clone_compute(srcs, params, out=None):
    if out is None:
        return srcs[0].copy()
    np.copyto(out, srcs[0])
    return out


def _pool_windows(x: np.ndarray, kernel_size: int, stride: int):
    n, c, h, w = x.shape
    out_h = (h - kernel_size) // stride + 1
    out_w = (w - kernel_size) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_size, kernel_size),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return windows


class NumpyKernels:
    """Every compute kernel of :mod:`repro.nn`, in plain numpy/scipy."""

    #: op id -> ``(srcs, params, out=None)`` kernel — ``a + b`` is
    #: ``np.add``, ``**`` is ``np.power``, ...; the ``out=`` in-place
    #: contract is what makes the fusion pass work.
    elementwise = {
        "add": _ufunc2(np.add),
        "sub": _ufunc2(np.subtract),
        "mul": _ufunc2(np.multiply),
        "div": _ufunc2(np.true_divide),
        "neg": _ufunc1(np.negative),
        "abs": _ufunc1(np.absolute),
        "exp": _ufunc1(np.exp),
        "log": _ufunc1(np.log),
        "log1p": _ufunc1(np.log1p),
        "sqrt": _ufunc1(np.sqrt),
        "tanh": _ufunc1(np.tanh),
        "sin": _ufunc1(np.sin),
        "cos": _ufunc1(np.cos),
        "erf": _ufunc1(_sp_special.erf),
        "sigmoid": _ufunc1(_sp_special.expit),
        "softplus": lambda srcs, params, out=None: np.logaddexp(0.0, srcs[0], out=out),
        "relu": lambda srcs, params, out=None: np.maximum(srcs[0], 0.0, out=out),
        "pow": lambda srcs, params, out=None: np.power(srcs[0], params["exponent"],
                                                       out=out),
        "clamp": lambda srcs, params, out=None: np.clip(srcs[0], params["min"],
                                                        params["max"], out=out),
        "clone": _clone_compute,
    }

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched matrix product with numpy ``@`` broadcasting semantics."""
        return a @ b

    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
               padding: int = 0) -> Tuple[np.ndarray, int, int]:
        """Sliding conv windows of a channels-last ``(N, H, W, C)`` input.

        ``x`` may be any strided view (e.g. ``np.moveaxis`` of an NCHW
        array).  ``padding`` zero-pads H and W inside the kernel.  Returns
        ``(cols, out_h, out_w)`` with ``cols`` a C-contiguous
        ``(N, out_h, out_w, kh*kw*C)`` array whose window axis is ordered
        ``(kh, kw, c)``: each kernel tap gathers one contiguous channel run.
        """
        if padding:
            n, h, w, c = x.shape
            padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
            padded[:, padding:padding + h, padding:padding + w] = x
            x = padded
        n, h, w, c = x.shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        s0, s1, s2, s3 = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, out_h, out_w, kh, kw, c),
            strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
            writeable=False,
        )
        cols = np.ascontiguousarray(windows).reshape(n, out_h, out_w, kh * kw * c)
        return cols, out_h, out_w

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, ...], kh: int,
               kw: int, stride: int, padding: int = 0) -> np.ndarray:
        """Scatter-add :meth:`im2col` column gradients back to the input.

        ``x_shape`` is the unpadded channels-last ``(N, H, W, C)`` shape;
        ``cols`` is ``(N, out_h, out_w, kh*kw*C)`` in ``(kh, kw, c)`` order.
        Scatters into a zero-padded NHWC buffer and returns the
        ``(N, H, W, C)`` gradient (a view of that buffer when ``padding`` is
        nonzero).  Each add moves one kernel row of one window column: a
        contiguous ``kw*C`` run on both sides.  So every input element sums
        its taps kernel row by kernel row, windows left to right within a
        row.
        """
        n, h, w, c = x_shape
        hp, wp = h + 2 * padding, w + 2 * padding
        out_h = (hp - kh) // stride + 1
        out_w = (wp - kw) // stride + 1
        cols = cols.reshape(n, out_h, out_w, kh, kw * c)
        grad = np.zeros((n, hp, wp * c), dtype=cols.dtype)
        for i in range(kh):
            rows = grad[:, i:i + stride * out_h:stride]
            for j in range(out_w):
                start = stride * j * c
                rows[:, :, start:start + kw * c] += cols[:, :, j, i]
        grad = grad.reshape(n, hp, wp, c)
        if padding:
            grad = grad[:, padding:padding + h, padding:padding + w]
        return grad

    def max_pool2d(self, x: np.ndarray, kernel_size: int,
                   stride: int) -> Tuple[np.ndarray, np.ndarray]:
        """Window max of an ``(N, C, H, W)`` input.

        Returns ``(pooled, idx)`` where ``idx`` holds the *within-window*
        flat argmax (``0..kernel_size**2 - 1``, row-major) the autograd
        backward scatters through.
        """
        n, c, _, _ = x.shape
        windows = _pool_windows(x, kernel_size, stride)
        out_h, out_w = windows.shape[2:4]
        flat = windows.reshape(n, c, out_h, out_w, -1)
        idx = flat.argmax(axis=-1)
        pooled = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return pooled, idx

    def avg_pool2d(self, x: np.ndarray, kernel_size: int,
                   stride: int) -> np.ndarray:
        """Window mean of an ``(N, C, H, W)`` input."""
        windows = _pool_windows(x, kernel_size, stride)
        return windows.mean(axis=(-2, -1))

    def sum(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def max(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    def cumsum(self, x: np.ndarray, axis: int) -> np.ndarray:
        return np.cumsum(x, axis=axis)


_KERNELS = NumpyKernels()


def get_backend() -> NumpyKernels:
    """The process-wide kernel object (one instance, shared by every caller)."""
    return _KERNELS
