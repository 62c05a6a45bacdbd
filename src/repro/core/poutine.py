"""BNN-specific effect handlers (``tyxe.poutine``).

Three program transformations described in the paper:

* :func:`local_reparameterization` — for factorized Gaussian weight
  posteriors, replaces sampling of the weight matrix shared across a
  mini-batch with sampling of the per-datapoint *pre-activations*
  (Kingma et al., 2015), reducing gradient variance.
* :func:`flipout` — decorrelates per-datapoint weight perturbations with
  rank-one sign matrices (Wen et al., 2018).
* :func:`selective_mask` — masks out the log-likelihood contribution of
  unlabelled data, used in the semi-supervised GNN example (Listing 4).

The reparameterization messengers sit on *both* effect systems: they are
``repro.ppl`` messengers (to observe which tensors were produced by which
sample sites, exactly as TyXe's messengers maintain references from samples
to their distributions) and handlers of the effectful linear ops in
``repro.nn.functional`` (to change how ``linear``/``conv2d`` are computed at
runtime, TyXe's monkey-patched ``F.linear``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

from ..nn import functional as F
from ..nn.backends import get_backend
from ..nn.lazy import compute_eager
from ..nn.tensor import Tensor, _matmul_vjp, _node_grad, _shape_like, unbroadcast
from ..ppl import distributions as dist
from ..ppl.poutine.runtime import Message, Messenger
from ..ppl.rng import get_rng

__all__ = [
    "LocalReparameterizationMessenger",
    "FlipoutMessenger",
    "SelectiveMaskMessenger",
    "MCDropoutMessenger",
    "local_reparameterization",
    "flipout",
    "selective_mask",
    "mc_dropout",
]


def _unwrap(fn: dist.Distribution) -> dist.Distribution:
    while isinstance(fn, dist.Independent):
        fn = fn.base_dist
    return fn


class _ReparameterizationMessenger(Messenger):
    """Base class tracking which tensors came from factorized-Gaussian sites."""

    _MAX_TRACKED = 512  # bound memory when the handler stays active for a whole fit

    def __init__(self) -> None:
        self._distributions: "OrderedDict[int, dist.Distribution]" = OrderedDict()

    # -- ppl messenger side: remember sample -> distribution associations ----
    def postprocess_message(self, msg: Message) -> None:
        if msg["type"] != "sample" or msg["is_observed"]:
            return
        value = msg["value"]
        if not isinstance(value, Tensor):
            return
        base = _unwrap(msg["fn"])
        if isinstance(base, (dist.Normal, dist.Delta)):
            # keep a strong reference to the sampled tensor so its id() cannot
            # be recycled while the association is alive
            self._distributions.setdefault(id(value), (value, base))
            while len(self._distributions) > self._MAX_TRACKED:
                self._distributions.popitem(last=False)

    def __enter__(self):
        F.register_linear_op_handler(self)
        return super().__enter__()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        F.unregister_linear_op_handler(self)
        super().__exit__(exc_type, exc_value, traceback)

    # -- nn functional side: intercept linear ops -----------------------------
    def _lookup(self, value: Optional[Tensor]) -> Optional[dist.Distribution]:
        if value is None:
            return None
        entry = self._distributions.get(id(value))
        if entry is None or entry[0] is not value:
            return None
        return entry[1]

    def process_linear_op(self, op: str, x: Tensor, weight: Tensor,
                          bias: Optional[Tensor], default_fn: Callable, **kwargs):
        weight_dist = self._lookup(weight)
        if not isinstance(weight_dist, dist.Normal):
            return None
        bias_dist = self._lookup(bias)
        return self._reparameterize(op, x, weight, weight_dist, bias, bias_dist,
                                    default_fn, **kwargs)

    def _reparameterize(self, op: str, x: Tensor, weight: Tensor, weight_dist: dist.Normal,
                        bias: Optional[Tensor], bias_dist: Optional[dist.Distribution],
                        default_fn: Callable, **kwargs) -> Optional[Tensor]:
        raise NotImplementedError


_LR_JITTER = np.asarray(1e-12)


def _swap_last(a: np.ndarray) -> np.ndarray:
    """``weight.T`` for a matrix, ``weight.swapaxes(-1, -2)`` for a stack."""
    return np.swapaxes(a, -1, -2) if a.ndim >= 2 else a


def _bias_view(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A sampled bias ``(S..., out)`` unsqueezed over the data axis of the
    matmul result ``x``, as ``F._linear_default`` and ``F._conv2d_default``
    do."""
    return np.expand_dims(b, -2) if b.ndim > 1 and x.ndim >= 2 else b


def _local_reparameterized_linear(x: Tensor, mu_w: Tensor, sigma_w: Tensor,
                                  mu_b: Optional[Tensor],
                                  sigma_b: Optional[Tensor]) -> Tensor:
    """``mean + sqrt(var + 1e-12) * eps`` as one tape node, where
    ``mean = linear(x, mu_w, mu_b)``, ``var = linear(x², sigma_w², sigma_b²)``
    and ``eps`` is a standard normal draw of ``mean``'s shape.

    Bit-identical to that expression written with tensor ops and
    ``F._linear_default``: the same kernels in the same order, the same
    RNG draw point (after both matmuls), and a backward that reproduces
    each node's vector-Jacobian product at that node's shape.  The two
    matmuls share :func:`repro.nn.tensor._matmul_vjp` with ``Tensor @``, so
    every shape ``_linear_default`` takes works here too: leading sample
    axes on the weight or the input, a 1-D input, a bias unsqueezed over
    the data axis.  ``x`` receives its two gradients as separate
    ``_accumulate`` calls in the tape's order, from the mean first.
    ``mu_b`` is ``None`` without a bias, ``sigma_b`` ``None`` unless the
    bias is Normal.
    """
    backend = get_backend()
    xd = x.data
    w_t = _swap_last(mu_w.data)
    mean_xw = backend.matmul(xd, w_t)
    mean = mean_xw
    if mu_b is not None:
        b_view = _bias_view(mu_b.data, xd)
        mean = compute_eager("add", [mean_xw, b_view])
    x_sq = compute_eager("pow", [xd], {"exponent": 2})
    s = sigma_w.data
    s_sq = compute_eager("pow", [s], {"exponent": 2})
    s_sq_t = _swap_last(s_sq)
    var_xw = backend.matmul(x_sq, s_sq_t)
    var = var_xw
    if sigma_b is not None:
        sb = sigma_b.data
        var_b = compute_eager("pow", [sb], {"exponent": 2})
        var_b_view = _bias_view(var_b, xd)
        var = compute_eager("add", [var_xw, var_b_view])
    var_jit = compute_eager("add", [var, _LR_JITTER])
    std = compute_eager("sqrt", [var_jit])
    eps = get_rng().standard_normal(mean.shape)
    noise = compute_eager("mul", [std, eps])
    parents = tuple(t for t in (x, mu_w, sigma_w, mu_b, sigma_b) if t is not None)
    out = Tensor._make(compute_eager("add", [mean, noise]), parents, "lr_linear")
    if out.requires_grad:

        def _backward(grad):
            g_mean = _node_grad(grad, mean)
            if mu_b is not None:
                if mu_b.requires_grad:
                    mu_b._accumulate(_node_grad(g_mean, b_view).reshape(mu_b.shape))
                g_mean = _node_grad(g_mean, mean_xw)
            if x.requires_grad or mu_w.requires_grad:
                g_x, g_w_t = _matmul_vjp(xd, w_t, g_mean)
                x._accumulate(g_x)
                mu_w._accumulate(_swap_last(_node_grad(g_w_t, w_t)))
            g_noise = _node_grad(grad, noise)
            g_std = _node_grad(g_noise * eps, std)
            g_var = _node_grad(_node_grad(g_std * 0.5 / std, var_jit), var)
            if x.requires_grad or sigma_w.requires_grad:
                g_x_sq, g_s_sq_t = _matmul_vjp(x_sq, s_sq_t, _node_grad(g_var, var_xw))
                x._accumulate(_node_grad(g_x_sq, x_sq) * 2 * xd)
                g_s_sq = _node_grad(_swap_last(_node_grad(g_s_sq_t, s_sq_t)), s_sq)
                sigma_w._accumulate(g_s_sq * 2 * s)
            if sigma_b is not None and sigma_b.requires_grad:
                g_var_b = _node_grad(g_var, var_b_view).reshape(var_b.shape)
                sigma_b._accumulate(_node_grad(g_var_b, var_b) * 2 * sb)

        out._backward = _backward
    return out


def _local_reparameterized_conv2d(x: Tensor, mu_w: Tensor, sigma_w: Tensor,
                                  mu_b: Optional[Tensor], sigma_b: Optional[Tensor],
                                  stride: int = 1, padding: int = 0) -> Tensor:
    """``mean + sqrt(var + 1e-12) * eps`` as one tape node, where
    ``mean = conv2d(x, mu_w, mu_b)``, ``var = conv2d(x², sigma_w², sigma_b²)``
    and ``eps`` is a standard normal draw of ``mean``'s shape.

    Against that expression written with tensor ops and two
    ``F._conv2d_default`` calls, the forward, the RNG draw point (after
    both matmuls) and the ``mu_w``/``sigma_w``/bias gradients are byte-equal.
    The node gathers the input's columns once and squares them, since
    ``im2col(x²)`` is ``im2col(x)²``; the backward squares them again
    rather than holding a second column buffer.  ``x`` gets one ``col2im``
    of ``g_mean @ mu_w + 2·cols·(g_var @ sigma_w²)``, which rounds
    differently from the tape's two (within 1e-13 relative).  Leading
    sample axes on the input or the weights broadcast as in
    ``F._conv2d_default``.  ``mu_b`` is ``None`` without a bias,
    ``sigma_b`` ``None`` unless the bias is Normal.
    """
    backend = get_backend()
    _, _, kh, kw = mu_w.shape[-4:]
    n = x.shape[-4]
    nhwc_shape, cols, out_h, out_w = F._conv_cols(x.data, kh, kw, stride, padding)
    w_mat = F._conv_weight_matrix(mu_w.data)
    mean_mat = backend.matmul(cols, _swap_last(w_mat))
    if mu_b is not None:
        mean_mat = compute_eager("add", [mean_mat, _bias_view(mu_b.data, mean_mat)])
    mean = F._conv_output(mean_mat, n, out_h, out_w)
    s = sigma_w.data
    s_sq = compute_eager("pow", [s], {"exponent": 2})
    s_mat = F._conv_weight_matrix(s_sq)
    var_mat = backend.matmul(compute_eager("pow", [cols], {"exponent": 2}), _swap_last(s_mat))
    if sigma_b is not None:
        sb = sigma_b.data
        var_b = compute_eager("pow", [sb], {"exponent": 2})
        var_mat = compute_eager("add", [var_mat, _bias_view(var_b, var_mat)])
    var = F._conv_output(var_mat, n, out_h, out_w)
    var_jit = compute_eager("add", [var, _LR_JITTER])
    std = compute_eager("sqrt", [var_jit])
    eps = get_rng().standard_normal(mean.shape)
    noise = compute_eager("mul", [std, eps])
    parents = tuple(t for t in (x, mu_w, sigma_w, mu_b, sigma_b) if t is not None)
    out = Tensor._make(compute_eager("add", [mean, noise]), parents, "lr_conv2d")
    if out.requires_grad:
        mean_like, var_like, var_jit_like, noise_like = map(_shape_like,
                                                            (mean, var, var_jit, noise))

        def _backward(grad):
            g_mean = F._conv_grad_matrix(_node_grad(grad, mean_like))
            if mu_b is not None and mu_b.requires_grad:
                mu_b._accumulate(backend.sum(g_mean, axis=-2))
            if mu_w.requires_grad:
                mu_w._accumulate(F._conv_weight_grad(cols, g_mean, mu_w.shape))
            g_noise = _node_grad(grad, noise_like)
            g_std = _node_grad(g_noise * eps, std)
            g_var = F._conv_grad_matrix(_node_grad(_node_grad(g_std * 0.5 / std, var_jit_like),
                                                   var_like))
            if sigma_b is not None and sigma_b.requires_grad:
                sigma_b._accumulate(_node_grad(backend.sum(g_var, axis=-2), var_b) * 2 * sb)
            if sigma_w.requires_grad:
                g_s_sq = F._conv_weight_grad(compute_eager("pow", [cols], {"exponent": 2}),
                                             g_var, s.shape)
                sigma_w._accumulate(_node_grad(g_s_sq, s_sq) * 2 * s)
            if x.requires_grad:
                # g_mean @ mu_w + cols·((2·g_var) @ sigma_w²), built in one
                # owned buffer, then one col2im
                g_cols = unbroadcast(backend.matmul(g_var * 2, s_mat), cols.shape)
                g_cols *= cols
                g_cols += unbroadcast(backend.matmul(g_mean, w_mat), cols.shape)
                x._accumulate(F._conv_input_grad(g_cols, x.shape, nhwc_shape, kh, kw, stride,
                                                 padding, out_h, out_w))

        out._backward = _backward
    return out


class LocalReparameterizationMessenger(_ReparameterizationMessenger):
    """Sample pre-activations instead of weights (Kingma et al., 2015).

    For ``y = x W^T + b`` with ``W ~ N(mu, sigma^2)`` factorized, the output
    is Gaussian with mean ``x mu^T + E[b]`` and variance ``x^2 (sigma^2)^T +
    Var[b]``; sampling it directly gives lower-variance gradients and
    per-datapoint implicit weight samples.
    """

    def _reparameterize(self, op: str, x: Tensor, weight: Tensor, weight_dist: dist.Normal,
                        bias: Optional[Tensor], bias_dist: Optional[dist.Distribution],
                        default_fn: Callable, **kwargs) -> Tensor:
        mu_w, sigma_w = weight_dist.loc, weight_dist.scale
        if isinstance(bias_dist, dist.Normal):
            mu_b: Optional[Tensor] = bias_dist.loc
            sigma_b: Optional[Tensor] = bias_dist.scale
        else:
            mu_b, sigma_b = bias, None

        if op == "linear":
            return _local_reparameterized_linear(x, mu_w, sigma_w, mu_b, sigma_b)
        if op != "conv2d":  # pragma: no cover - only linear/conv are registered as effectful
            return None
        return _local_reparameterized_conv2d(x, mu_w, sigma_w, mu_b, sigma_b, **kwargs)


class FlipoutMessenger(_ReparameterizationMessenger):
    """Pseudo-independent per-datapoint weight perturbations (Wen et al., 2018).

    The sampled weight is decomposed as ``W = mu + dW``; each datapoint's
    perturbation is decorrelated by elementwise random sign vectors
    ``r_out (x r_in) dW^T``, which preserves the marginal distribution for
    symmetric perturbations while reducing mini-batch gradient correlation.
    """

    def _reparameterize(self, op: str, x: Tensor, weight: Tensor, weight_dist: dist.Normal,
                        bias: Optional[Tensor], bias_dist: Optional[dist.Distribution],
                        default_fn: Callable, **kwargs) -> Tensor:
        mu_w = weight_dist.loc
        delta_w = weight - mu_w
        rng = get_rng()
        if op == "linear":
            batch_shape = x.shape[:-1]
            sign_in = Tensor(rng.choice([-1.0, 1.0], size=batch_shape + (x.shape[-1],)))
            sign_out = Tensor(rng.choice([-1.0, 1.0], size=batch_shape + (mu_w.shape[0],)))
            mean = F._linear_default(x, mu_w, bias)
            perturbation = F._linear_default(x * sign_in, delta_w, None) * sign_out
            return mean + perturbation
        if op == "conv2d":
            n, c = x.shape[0], x.shape[1]
            out_c = mu_w.shape[0]
            sign_in = Tensor(rng.choice([-1.0, 1.0], size=(n, c, 1, 1)))
            sign_out = Tensor(rng.choice([-1.0, 1.0], size=(n, out_c, 1, 1)))
            mean = F._conv2d_default(x, mu_w, bias, **kwargs)
            perturbation = F._conv2d_default(x * sign_in, delta_w, None, **kwargs) * sign_out
            return mean + perturbation
        return None  # pragma: no cover


class SelectiveMaskMessenger(Messenger):
    """Apply a log-density mask only to the named sites.

    The paper builds this from Pyro's ``block`` + ``mask`` poutines; here it
    is a single messenger: sites listed in ``expose`` (or all sites not in
    ``hide`` when ``expose`` is empty) get their log-density multiplied by
    ``mask``.  The GNN example uses ``expose=["likelihood.data"]`` so that
    only labelled nodes contribute to the log-likelihood.
    """

    def __init__(self, mask: Union[np.ndarray, Tensor], expose: Iterable[str] = (),
                 hide: Iterable[str] = ()) -> None:
        self.mask = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
        self.expose = set(expose)
        self.hide = set(hide)

    def _applies_to(self, name: str) -> bool:
        if self.expose:
            return name in self.expose
        return name not in self.hide

    def process_message(self, msg: Message) -> None:
        if msg["type"] != "sample" or not self._applies_to(msg["name"]):
            return
        if msg["mask"] is None:
            msg["mask"] = self.mask
        else:
            msg["mask"] = np.asarray(msg["mask"]) * self.mask


class MCDropoutMessenger(Messenger):
    """Monte Carlo dropout as an effect handler (paper Appendix D).

    Keeps dropout *active* regardless of the module's train/eval mode, so a
    deterministically trained network can produce approximate posterior
    samples at test time (Gal & Ghahramani, 2016).  With ``fix_mask=True`` a
    single dropout mask per tensor shape is drawn on first use and reused for
    every subsequent call — the "fix a single sample across batches of data"
    behaviour the paper describes as useful for visualization.
    """

    def __init__(self, p: Optional[float] = None, fix_mask: bool = False) -> None:
        self.p = p
        self.fix_mask = fix_mask
        self._masks: dict = {}

    def __enter__(self):
        F.register_dropout_handler(self)
        return super().__enter__()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        F.unregister_dropout_handler(self)
        super().__exit__(exc_type, exc_value, traceback)

    def reset_masks(self) -> None:
        """Drop the cached masks so the next forward pass draws fresh ones."""
        self._masks.clear()

    def process_dropout(self, x: Tensor, p: float, training: bool, default_fn: Callable):
        p = self.p if self.p is not None else p
        if p <= 0.0:
            return x
        if self.fix_mask:
            mask = self._masks.get(x.shape)
            if mask is None:
                mask = (get_rng().random(x.shape) >= p) / (1.0 - p)
                self._masks[x.shape] = mask
            return x * Tensor(mask)
        # force dropout on, even if the module is in eval mode
        mask = (get_rng().random(x.shape) >= p) / (1.0 - p)
        return x * Tensor(mask)


def local_reparameterization() -> LocalReparameterizationMessenger:
    """Context manager enabling local reparameterization (paper Listing 2)."""
    return LocalReparameterizationMessenger()


def flipout() -> FlipoutMessenger:
    """Context manager enabling flipout gradient-variance reduction."""
    return FlipoutMessenger()


def selective_mask(mask: Union[np.ndarray, Tensor], expose: Iterable[str] = (),
                   hide: Iterable[str] = ()) -> SelectiveMaskMessenger:
    """Context manager masking the log-density of selected sites (paper Listing 4)."""
    return SelectiveMaskMessenger(mask, expose=expose, hide=hide)


def mc_dropout(p: Optional[float] = None, fix_mask: bool = False) -> MCDropoutMessenger:
    """Context manager enabling Monte Carlo dropout at prediction time."""
    return MCDropoutMessenger(p=p, fix_mask=fix_mask)
