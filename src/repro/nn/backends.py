"""The numpy compute kernels behind :mod:`repro.nn`.

The tensor layer's realization surface is a small kernel table: the
elementwise ops in ``repro.nn.lazy.ELEMENTWISE_OPS`` plus a handful of eager
entry points (matmul, im2col/col2im convolution, pooling windows,
reductions, cumsum).  :class:`NumpyKernels` holds all of them; autograd,
broadcasting, dtype inference, the fusion scheduler and everything above
are written against it.

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

    def im2col(self, x: np.ndarray, kh: int, kw: int,
               stride: int) -> Tuple[np.ndarray, int, int]:
        """Sliding conv windows of an ``(N, C, H, W)`` input.

        Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
        ``(N, out_h, out_w, C*kh*kw)``, channel-major within a window.
        """
        n, c, h, w = x.shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        s0, s1, s2, s3 = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
            writeable=False,
        )
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w,
                                                           c * kh * kw)
        return np.ascontiguousarray(cols), out_h, out_w

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, ...], kh: int,
               kw: int, stride: int) -> np.ndarray:
        """Scatter-add :meth:`im2col` column gradients back to the input."""
        n, c, h, w = x_shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        cols = cols.reshape(n, out_h, out_w, c, kh, kw)
        grad = np.zeros(x_shape, dtype=cols.dtype)
        for i in range(kh):
            for j in range(kw):
                grad[:, :, i:i + stride * out_h:stride,
                     j:j + stride * out_w:stride] += \
                    cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
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
