"""Functional neural-network operations on :class:`repro.nn.Tensor`.

Mirrors ``torch.nn.functional``.  The linear-map operations (:func:`linear`,
:func:`conv2d`) are registered as *effectful*: effect handlers (such as the
local-reparameterization and flipout messengers in :mod:`repro.core.poutine`)
can intercept them at runtime and change how the linear computation is
carried out, without the layer classes knowing anything about it.  This is
the exact mechanism the TyXe paper describes for its
``_ReparameterizationMessenger`` classes (monkey-patching ``F.linear`` /
``F.conv2d`` with effectful versions).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Tuple

import numpy as np

from .backends import get_backend
from .lazy import compute_eager
from .tensor import Tensor, _node_grad, _shape_like, concatenate, is_grad_enabled, unbroadcast, where

__all__ = [
    "sample_ndim",
    "sample_sizes",
    "vectorized_samples",
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "batch_norm",
    "dropout",
    "relu",
    "tanh",
    "sigmoid",
    "softplus",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "one_hot",
    "register_linear_op_handler",
    "unregister_linear_op_handler",
    "active_linear_op_handlers",
    "active_effect_handlers",
    "refuse_effect_handlers",
    "register_dropout_handler",
    "unregister_dropout_handler",
]


# --------------------------------------------------------------------------
# Vectorized-sample execution mode.
#
# The BNN inference code can stack ``S`` posterior weight samples along a new
# leading axis and run them through the network in one batched forward pass
# instead of ``S`` Python-level passes.  ``linear``/``conv2d``/``batch_norm``
# broadcast over such leading weight dimensions unconditionally; shape-
# sensitive modules (``Flatten``) and batch-size bookkeeping (the likelihood
# plate scaling) consult this context to know how many leading axes of an
# activation are sample axes rather than data axes.  An input shared by all
# samples takes a size-1 sample axis, so the count holds for activations
# that no stacked weight has reached yet.
#
# A context may also *declare the sizes* of its sample axes.  The ``repro.ppl``
# runtime consults them (via :func:`sample_sizes`) so that a latent ``sample``
# statement executing inside a vectorized replay — i.e. a site the guide does
# not cover — draws one independent prior sample per particle, stacked along
# the declared axes, instead of a single draw silently shared by every
# particle.  Size-less contexts (``vectorized_samples(1)``) keep the plain
# single-draw behaviour, which is what the batched *forward-only* paths (no
# sample statements inside) use.
# --------------------------------------------------------------------------
_SAMPLE_SIZES: Tuple[Optional[int], ...] = ()


def sample_ndim() -> int:
    """Number of leading vectorized-sample dimensions currently active."""
    return len(_SAMPLE_SIZES)


def sample_sizes() -> Tuple[Optional[int], ...]:
    """Sizes of the active leading sample axes (outermost first).

    Entries are ``None`` for contexts that declared only a dimension count;
    an axis has a concrete size only when its ``vectorized_samples`` call
    passed one (as the vectorized ELBO replay does with ``num_particles``).
    """
    return _SAMPLE_SIZES


@contextlib.contextmanager
def vectorized_samples(ndim: int = 1, sizes: Optional[Tuple[Optional[int], ...]] = None):
    """Declare that activations carry ``ndim`` extra leading sample axes.

    Entered by the vectorized prediction / ELBO paths around the batched
    network forward; nests additively.  ``sizes`` optionally gives the
    concrete length of each declared axis (a tuple of ``ndim`` ints, or a
    single int when ``ndim == 1``); sized axes let latent ``sample``
    statements executing inside the context draw per-particle stacked values
    (see :func:`sample_sizes`).
    """
    global _SAMPLE_SIZES
    if ndim < 0:
        raise ValueError("ndim must be non-negative")
    if sizes is None:
        declared: Tuple[Optional[int], ...] = (None,) * ndim
    else:
        declared = (sizes,) if isinstance(sizes, int) else tuple(sizes)
        if len(declared) != ndim:
            raise ValueError(f"sizes {declared!r} must have one entry per declared "
                             f"sample axis (ndim={ndim})")
        if any(s is not None and s < 1 for s in declared):
            raise ValueError("sample-axis sizes must be positive")
    previous = _SAMPLE_SIZES
    _SAMPLE_SIZES = previous + declared
    try:
        yield
    finally:
        _SAMPLE_SIZES = previous


# --------------------------------------------------------------------------
# Effectful linear-op registry.
#
# Handlers are objects exposing ``process_linear_op(op, inputs, weight, bias,
# default_fn, **kwargs)`` that either return a Tensor (taking over the
# computation) or ``None`` (falling through to the next handler / default).
# Handlers are consulted innermost (most recently registered) first.
# --------------------------------------------------------------------------
_LINEAR_OP_HANDLERS: List[object] = []


def register_linear_op_handler(handler: object) -> None:
    """Push an effect handler intercepting linear/conv operations."""
    _LINEAR_OP_HANDLERS.append(handler)


def unregister_linear_op_handler(handler: object) -> None:
    """Remove a previously registered effect handler."""
    _LINEAR_OP_HANDLERS.remove(handler)


def active_linear_op_handlers() -> Tuple[object, ...]:
    """Return the currently active handlers, innermost last."""
    return tuple(_LINEAR_OP_HANDLERS)


def active_effect_handlers() -> Tuple[object, ...]:
    """Every registered linear-op and dropout handler."""
    return tuple(_LINEAR_OP_HANDLERS) + tuple(_DROPOUT_HANDLERS)


def refuse_effect_handlers(caller: str) -> None:
    """Raise if an effect handler is active: local reparameterization,
    flipout and MC dropout draw fresh noise per forward pass, which a forward
    carrying all weight draws on one sample axis cannot reproduce."""
    handlers = active_effect_handlers()
    if handlers:
        names = ", ".join(type(h).__name__ for h in handlers)
        raise RuntimeError(
            f"{caller} runs every weight draw through one batched forward, which "
            f"cannot reproduce the per-pass draws of the active effect handler(s) "
            f"{names}; leave the handler's context (a variational BNN's predict "
            "runs one forward per draw while a handler is active)")


def _dispatch_linear_op(op: str, default_fn: Callable[..., Tensor], x: Tensor,
                        weight: Tensor, bias: Optional[Tensor], **kwargs) -> Tensor:
    for handler in reversed(_LINEAR_OP_HANDLERS):
        result = handler.process_linear_op(op, x, weight, bias, default_fn, **kwargs)
        if result is not None:
            return result
    return default_fn(x, weight, bias, **kwargs)


# ----------------------------------------------------------------- activations
def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softplus(x: Tensor) -> Tensor:
    return x.softplus()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x - x.logsumexp(axis=axis, keepdims=True)


# --------------------------------------------------------------------- linear
def _linear_default(x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    # A stacked weight (S..., out, in) broadcasts against the input through a
    # single batched matmul, whether the input is shared (x (N, in): the
    # sample-major output (S..., N, out) comes out contiguous, with no
    # permutation copy — this beat the old flat (N, in) @ (in, S*out) gemm on
    # every measured shape, bit-identically) or carries its own sample axes.
    w_t = weight.swapaxes(-1, -2) if weight.ndim > 2 else weight.T
    out = x @ w_t
    if bias is not None:
        if bias.ndim > 1 and x.ndim >= 2:
            # sampled bias (S..., out) must broadcast over the data axis that
            # sits between the sample axes and the feature axis
            bias = bias.unsqueeze(-2)
        out = out + bias
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``y = x @ weight.T + bias`` with ``weight`` of shape ``(out, in)``.

    ``weight`` (and ``bias``) may carry arbitrary extra leading sample
    dimensions, e.g. ``(S, out, in)`` for a stack of ``S`` posterior weight
    samples: the matmul broadcasts and the output gains the same leading
    axes, ``(S, ..., N, out)``.  Registered as an effectful linear op.
    """
    return _dispatch_linear_op("linear", _linear_default, x, weight, bias)


# --------------------------------------------------------------------- conv2d
# The channels-last im2col convolution in pieces, shared by
# :func:`_conv2d_default` and the local-reparameterized conv of
# :mod:`repro.core.poutine`.
def _conv_cols(xd: np.ndarray, kh: int, kw: int, stride: int,
               padding: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """im2col of an ``(..., N, C, H, W)`` array through its channels-last
    view (``np.moveaxis``, free when the array is itself a conv output).

    Returns ``(nhwc_shape, cols, out_h, out_w)``: the ``(-1, H, W, C)``
    shape the kernel gathered from (:func:`_conv_input_grad` scatters back
    to it), and ``cols`` shaped ``(..., N*out_h*out_w, kh*kw*C)`` with each
    window's columns in ``(kh, kw, c)`` order.
    """
    n, c, h, w_in = xd.shape[-4:]
    x_nhwc = np.moveaxis(xd, -3, -1).reshape((-1, h, w_in, c))
    cols, out_h, out_w = get_backend().im2col(x_nhwc, kh, kw, stride, padding)
    return (x_nhwc.shape, cols.reshape(xd.shape[:-4] + (n * out_h * out_w, kh * kw * c)),
            out_h, out_w)


def _conv_weight_matrix(wd: np.ndarray) -> np.ndarray:
    """``(..., out_c, in_c, kh, kw)`` weights as ``(..., out_c, kh*kw*in_c)``
    rows in :func:`_conv_cols`' ``(kh, kw, c)`` column order."""
    out_c, c, kh, kw = wd.shape[-4:]
    return np.moveaxis(wd, -3, -1).reshape(wd.shape[:-4] + (out_c, kh * kw * c))


def _conv_output(out: np.ndarray, n: int, out_h: int, out_w: int) -> np.ndarray:
    """The ``(..., N, out_c, out_h, out_w)`` view of a ``(..., N*out_h*out_w,
    out_c)`` matmul result."""
    return np.moveaxis(out.reshape(out.shape[:-2] + (n, out_h, out_w, out.shape[-1])), -1, -3)


def _conv_grad_matrix(grad: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_conv_output` for an output gradient."""
    return np.moveaxis(grad, -3, -1).reshape(grad.shape[:-4] + (-1, grad.shape[-3]))


def _conv_weight_grad(cols: np.ndarray, g: np.ndarray,
                      w_shape: Tuple[int, ...]) -> np.ndarray:
    """The weight gradient ``colsᵀ @ g``, reshaped to ``w_shape``."""
    out_c, c, kh, kw = w_shape[-4:]
    w_lead = w_shape[:-4]
    # colsᵀ @ g: (K, out_c) runs faster than gᵀ @ cols at fig2's shapes
    g_w = unbroadcast(get_backend().matmul(np.swapaxes(cols, -1, -2), g),
                      w_lead + (kh * kw * c, out_c))
    g_w = np.swapaxes(g_w, -1, -2).reshape(w_lead + (out_c, kh, kw, c))
    return np.moveaxis(g_w, -1, -3)


def _conv_input_grad(g_cols: np.ndarray, x_shape: Tuple[int, ...],
                     nhwc_shape: Tuple[int, ...], kh: int, kw: int, stride: int, padding: int,
                     out_h: int, out_w: int) -> np.ndarray:
    """col2im of a column gradient (already at ``cols``' shape), as the
    ``x_shape`` (NCHW) view of the kernel's NHWC result."""
    n, c, h, w_in = x_shape[-4:]
    g_x = get_backend().col2im(g_cols.reshape(-1, out_h, out_w, kh * kw * c),
                               nhwc_shape, kh, kw, stride, padding)
    return np.moveaxis(g_x.reshape(x_shape[:-4] + (n, h, w_in, c)), -1, -3)


def _conv2d_default(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                    stride: int = 1, padding: int = 0) -> Tensor:
    """Channels-last im2col convolution, one tape node.

    ``weight``: ``(..., out_c, in_c, kh, kw)``.  Both the input and the
    weight may carry extra leading sample dimensions (``x``:
    ``(S..., N, C, H, W)``, ``weight``: ``(S..., out_c, in_c, kh, kw)``),
    which broadcast against each other through a single batched matmul.

    The kernel reads the input's channels-last view, pads it and gathers
    windows in ``(kh, kw, c)`` order; the weight is reordered to match.  The
    result is an ``(..., N, out_c, out_h, out_w)`` view of the matmul's NHWC
    output.  One backward computes the bias, weight and input gradients.
    """
    _, _, kh, kw = weight.shape[-4:]
    nhwc_shape, cols, out_h, out_w = _conv_cols(x.data, kh, kw, stride, padding)
    w_mat = _conv_weight_matrix(weight.data)
    out = get_backend().matmul(cols, np.swapaxes(w_mat, -1, -2))  # (lead..., N*oh*ow, out_c)
    if bias is not None:
        b = bias.data if bias.ndim == 1 else bias.data[..., None, :]
        out = compute_eager("add", [out, b])
    data = _conv_output(out, x.shape[-4], out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    result = Tensor._make(data, parents, "conv2d")
    if result.requires_grad:

        def _backward(grad):
            g = _conv_grad_matrix(grad)
            if bias is not None and bias.requires_grad:
                bias._accumulate(get_backend().sum(g, axis=-2))
            if weight.requires_grad:
                weight._accumulate(_conv_weight_grad(cols, g, weight.shape))
            if x.requires_grad:
                g_cols = unbroadcast(get_backend().matmul(g, w_mat), cols.shape)
                x._accumulate(_conv_input_grad(g_cols, x.shape, nhwc_shape, kh, kw, stride,
                                               padding, out_h, out_w))

        result._backward = _backward
    return result


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over an ``(N, C, H, W)`` input.

    The weight (and input) may carry extra leading sample dimensions for
    vectorized posterior prediction; see :func:`_conv2d_default`.  Registered
    as an effectful linear op so reparameterization messengers can intercept
    it.
    """
    return _dispatch_linear_op("conv2d", _conv2d_default, x, weight, bias,
                               stride=stride, padding=padding)


# -------------------------------------------------------------------- pooling
def _fold_sample_dims(x: Tensor) -> Optional[Tuple[Tensor, Tuple[int, ...]]]:
    """Fold leading sample dims of an ``(S..., N, C, H, W)`` input into the
    batch axis so 4-D-only kernels apply; returns ``(folded, lead_shape)``."""
    if x.ndim <= 4:
        return None
    lead = x.shape[:-3]
    return x.reshape((-1,) + x.shape[-3:]), lead


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    folded = _fold_sample_dims(x)
    if folded is not None:
        x4, lead = folded
        pooled = max_pool2d(x4, kernel_size, stride)
        return pooled.reshape(lead + pooled.shape[1:])
    stride = stride or kernel_size
    n, c, h, w = x.shape
    out_h = (h - kernel_size) // stride + 1
    out_w = (w - kernel_size) // stride + 1
    # idx holds the within-window row-major argmax (kernel contract), which
    # is exactly what the scatter-add backward below expects
    data, idx = get_backend().max_pool2d(x.data, kernel_size, stride)

    out = Tensor(data, requires_grad=is_grad_enabled() and x.requires_grad)
    if out.requires_grad:
        out._prev = (x,)
        out._op = "max_pool2d"

        def _backward(grad):
            grad_x = np.zeros_like(x.data)
            ki, kj = np.unravel_index(idx, (kernel_size, kernel_size))
            nn_, cc, oh, ow = np.meshgrid(np.arange(n), np.arange(c), np.arange(out_h), np.arange(out_w), indexing="ij")
            rows = oh * stride + ki
            cols = ow * stride + kj
            np.add.at(grad_x, (nn_, cc, rows, cols), grad)
            x._accumulate(grad_x)

        out._backward = _backward
    return out


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    folded = _fold_sample_dims(x)
    if folded is not None:
        x4, lead = folded
        pooled = avg_pool2d(x4, kernel_size, stride)
        return pooled.reshape(lead + pooled.shape[1:])
    stride = stride or kernel_size
    n, c, h, w = x.shape
    out_h = (h - kernel_size) // stride + 1
    out_w = (w - kernel_size) // stride + 1
    data = get_backend().avg_pool2d(x.data, kernel_size, stride)

    out = Tensor(data, requires_grad=is_grad_enabled() and x.requires_grad)
    if out.requires_grad:
        out._prev = (x,)
        out._op = "avg_pool2d"

        def _backward(grad):
            grad_x = np.zeros_like(x.data)
            g = grad / float(kernel_size * kernel_size)
            for i in range(kernel_size):
                for j in range(kernel_size):
                    grad_x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += g
            x._accumulate(grad_x)

        out._backward = _backward
    return out


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Global average pooling when ``output_size == 1`` (the only supported size)."""
    if output_size != 1:
        raise NotImplementedError("only global (1x1) adaptive average pooling is supported")
    return x.mean(axis=(-2, -1), keepdims=True)


# ----------------------------------------------------------------- batch norm
def _reusable(buf: np.ndarray, other: np.ndarray) -> Optional[np.ndarray]:
    """``buf`` when a binary ufunc of ``(buf, other)`` can write its result
    into ``buf`` unchanged in shape and dtype, else ``None``."""
    if (np.broadcast_shapes(buf.shape, other.shape) == buf.shape
            and np.result_type(buf, other) == buf.dtype):
        return buf
    return None


def batch_norm(x: Tensor, running_mean: np.ndarray, running_var: np.ndarray,
               weight: Optional[Tensor], bias: Optional[Tensor],
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization over the channel dimension of 2-D or 4-D input,
    as one tape node.

    A 3-D ``(S, N, C)`` or 5-D ``(S, N, C, H, W)`` input is treated as a stack
    of ``S`` vectorized weight samples: statistics are computed per sample,
    and the running buffers receive the same ``S`` sequential momentum
    updates a loop of per-sample forward passes would apply — the vectorized
    path stays numerically identical to the looped one in training mode too.
    ``weight``/``bias`` may likewise carry a leading sample dimension,
    ``(S, C)``.

    The forward is byte-equal to ``(x - mean) / sqrt(var + eps) * w + b``
    written with tensor ops (``x.mean``/``x.var`` in training mode): the
    same kernels in the same order on the same memory.  So are the running
    statistics and the ``weight``/``bias`` gradients, ``unbroadcast(g·x̂)``
    and ``unbroadcast(g)``, and the eval-mode input gradient ``(g·w)/sd``.
    The training-mode input gradient is the closed form
    ``(w/sd)·(g - Σg/n - x̂·Σ(g·x̂)/n)`` over the statistic axes, which
    rounds differently from the tape's (within 1e-13 relative).  The
    backward holds ``x̂`` and per-channel arrays only.
    """
    if x.ndim in (4, 5):
        axes = (0, 2, 3) if x.ndim == 4 else (1, 3, 4)
        view = (1, -1, 1, 1)
    elif x.ndim in (2, 3):
        axes = (0,) if x.ndim == 2 else (1,)
        view = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2D-5D input, got {x.ndim}D")
    # the same axes counted from the end, so they also hold for a gradient
    # that a sampled weight or bias widened with a leading sample axis
    stat_axes = tuple(a - x.ndim for a in axes)
    count = float(np.prod([x.shape[a] for a in axes]))
    backend = get_backend()
    kernels = backend.elementwise
    xd = x.data

    if training:
        mean = compute_eager("div", [backend.sum(xd, axis=axes, keepdims=True),
                                     np.asarray(count)])
        diff = compute_eager("sub", [xd, mean])
        sq = compute_eager("pow", [diff], {"exponent": 2})
        var_count = max(count, 1.0)
        var = compute_eager("div", [backend.sum(sq, axis=axes, keepdims=True),
                                    np.asarray(var_count)])
        del sq
        if running_mean is not None:
            num_features = running_mean.shape[0]
            means = mean.reshape(-1, num_features)  # (S, C); S == 1 unsampled
            variances = var.reshape(-1, num_features)
            num_updates = means.shape[0]
            # equivalent to applying the momentum update once per sample in
            # draw order, as the looped per-sample forward passes would
            decay = (1.0 - momentum) ** np.arange(num_updates - 1, -1, -1)
            running_mean *= (1 - momentum) ** num_updates
            running_mean += momentum * (decay[:, None] * means).sum(axis=0)
            running_var *= (1 - momentum) ** num_updates
            running_var += momentum * (decay[:, None] * variances).sum(axis=0)
    else:
        diff = compute_eager("sub", [xd, running_mean.reshape(view)])
        var = running_var.reshape(view)

    def _affine_view(p: np.ndarray) -> np.ndarray:
        # sampled affine parameters (S..., C) broadcast over data/spatial axes
        return p.reshape(p.shape[:-1] + tuple(view))

    sd = compute_eager("sqrt", [compute_eager("add", [var, np.asarray(eps)])])
    # diff is dead once divided: x̂ reuses its buffer
    x_hat = kernels["div"]([diff, sd], {}, out=_reusable(diff, sd))
    scaled = x_hat
    if weight is not None:
        w_view = _affine_view(weight.data)
        scaled = compute_eager("mul", [x_hat, w_view])
    scaled_like = _shape_like(scaled)
    out = scaled
    if bias is not None:
        b_view = _affine_view(bias.data)
        # the backward needs x̂, not x̂·w: the bias is added in place
        out = kernels["add"]([scaled, b_view], {},
                             out=None if scaled is x_hat else _reusable(scaled, b_view))
    result = Tensor._make(out, tuple(p for p in (x, weight, bias) if p is not None),
                          "batch_norm")
    if result.requires_grad:
        stat_shape = tuple(1 if i - len(scaled.shape) in stat_axes else s
                           for i, s in enumerate(scaled.shape))

        def _stat_sum(a: np.ndarray, summed: Optional[np.ndarray]) -> np.ndarray:
            # an affine gradient summed at the statistics' shape is the sum
            if summed is not None and summed.shape == stat_shape:
                return summed
            return backend.sum(a, axis=stat_axes, keepdims=True)

        def _backward(grad):
            g_b = g_w = prod = None
            if bias is not None:
                g_b = _node_grad(grad, b_view)
                bias._accumulate(g_b.reshape(bias.shape))
                grad = _node_grad(grad, scaled_like)
            if (weight is not None and weight.requires_grad) or (training and x.requires_grad):
                prod = grad * x_hat
            if weight is not None and weight.requires_grad:
                g_w = _node_grad(prod, w_view)
                weight._accumulate(g_w.reshape(weight.shape))
            if not x.requires_grad:
                return
            if not training:
                g_x_hat = _node_grad(grad if weight is None else grad * w_view, x_hat)
                x._accumulate(g_x_hat / sd)
                return
            coef = 1.0 / sd if weight is None else w_view / sd
            g_x = grad * coef
            g_x -= x_hat * (coef * _stat_sum(prod, g_w) / count)
            g_x -= coef * _stat_sum(grad, g_b) / count
            x._accumulate(g_x)

        result._backward = _backward
    return result


# -------------------------------------------------------------------- dropout
# Dropout is also registered as an effectful operation so that BNN-style
# handlers (e.g. Monte Carlo dropout with a fixed mask across batches, as
# discussed in the paper's future-work section) can intercept it.
_DROPOUT_HANDLERS: List[object] = []


def register_dropout_handler(handler: object) -> None:
    """Push an effect handler intercepting dropout operations."""
    _DROPOUT_HANDLERS.append(handler)


def unregister_dropout_handler(handler: object) -> None:
    """Remove a previously registered dropout handler."""
    _DROPOUT_HANDLERS.remove(handler)


def _dropout_default(x: Tensor, p: float, training: bool,
                     rng: Optional[np.random.Generator] = None) -> Tensor:
    if not training or p == 0.0:
        return x
    if rng is None:
        from ..ppl.rng import get_rng  # lazy: ppl imports this module at load
        rng = get_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    for handler in reversed(_DROPOUT_HANDLERS):
        result = handler.process_dropout(x, p, training, _dropout_default)
        if result is not None:
            return result
    return _dropout_default(x, p, training, rng)


# --------------------------------------------------------------------- losses
def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros(labels.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    targets = np.asarray(targets.data if isinstance(targets, Tensor) else targets, dtype=np.int64)
    oh = one_hot(targets, log_probs.shape[-1])
    losses = -(log_probs * Tensor(oh)).sum(axis=-1)
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    return losses


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction=reduction)


def mse_loss(prediction: Tensor, target, reduction: str = "mean") -> Tensor:
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    sq = (prediction - target_t) ** 2
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def binary_cross_entropy_with_logits(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    targets_t = targets if isinstance(targets, Tensor) else Tensor(targets)
    # log(1 + exp(-|x|)) + max(x, 0) - x * y  (numerically stable)
    losses = logits.clamp(min=0.0) - logits * targets_t + (-logits.abs()).exp().log1p()
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    return losses
