"""Probability distributions with reparameterized sampling and differentiable
log-densities, mirroring ``pyro.distributions`` (itself a thin layer over
``torch.distributions``).

All parameters and values are :class:`repro.nn.Tensor`; gradients flow
through ``rsample`` (for reparameterizable families) and ``log_prob`` so the
distributions can be used directly inside variational objectives.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np
from scipy import special as _sp_special

from ..nn import functional as F
from ..nn.lazy import compute_eager
from ..nn.tensor import Tensor, _node_grad
from .rng import get_rng

__all__ = [
    "Distribution",
    "Normal",
    "LogNormal",
    "Uniform",
    "Delta",
    "Categorical",
    "Bernoulli",
    "Poisson",
    "Gamma",
    "Independent",
    "LowRankMultivariateNormal",
    "kl_divergence",
    "register_kl",
    "sum_rightmost",
]

_LOG_2PI = math.log(2.0 * math.pi)

# the constant operands of the composite ops below, as the 0-d float64
# arrays ``Tensor(<python float>)`` wraps them in
_ONE = np.asarray(1.0)
_TWO = np.asarray(2.0)
_HALF = np.asarray(0.5)
_HALF_LOG_2PI = np.asarray(0.5 * _LOG_2PI)

ArrayOrTensor = Union[Tensor, np.ndarray, float, int]


def _as_tensor(value: ArrayOrTensor) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def _broadcast_shapes(*shapes: Tuple[int, ...]) -> Tuple[int, ...]:
    return np.broadcast_shapes(*shapes)


def sum_rightmost(value: Tensor, n: int) -> Tensor:
    """Sum the rightmost ``n`` dimensions of ``value``."""
    if n == 0:
        return value
    axes = tuple(range(value.ndim - n, value.ndim))
    return value.sum(axis=axes)


class Distribution:
    """Base class: ``batch_shape`` x ``event_shape`` semantics as in torch."""

    has_rsample: bool = False

    def __init__(self, batch_shape: Tuple[int, ...] = (), event_shape: Tuple[int, ...] = ()) -> None:
        self.batch_shape = tuple(batch_shape)
        self.event_shape = tuple(event_shape)

    # shape helpers ---------------------------------------------------------
    def shape(self, sample_shape: Tuple[int, ...] = ()) -> Tuple[int, ...]:
        return tuple(sample_shape) + self.batch_shape + self.event_shape

    # interface -------------------------------------------------------------
    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        """Draw a non-differentiable sample."""
        raise NotImplementedError

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        """Draw a reparameterized (differentiable) sample."""
        raise NotImplementedError(f"{type(self).__name__} does not support rsample")

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        raise NotImplementedError

    def entropy(self) -> Tensor:
        raise NotImplementedError(f"{type(self).__name__} does not implement entropy")

    @property
    def mean(self) -> Tensor:
        raise NotImplementedError

    @property
    def variance(self) -> Tensor:
        raise NotImplementedError

    @property
    def stddev(self) -> Tensor:
        return self.variance.sqrt()

    # conveniences ----------------------------------------------------------
    def to_event(self, reinterpreted_batch_ndims: Optional[int] = None) -> "Distribution":
        """Reinterpret (the rightmost) batch dimensions as event dimensions."""
        if reinterpreted_batch_ndims is None:
            reinterpreted_batch_ndims = len(self.batch_shape)
        if reinterpreted_batch_ndims == 0:
            return self
        return Independent(self, reinterpreted_batch_ndims)

    def expand(self, batch_shape: Tuple[int, ...]) -> "Distribution":
        raise NotImplementedError(f"{type(self).__name__} does not implement expand")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(batch_shape={self.batch_shape}, event_shape={self.event_shape})"


class Normal(Distribution):
    """Diagonal Gaussian ``N(loc, scale^2)``."""

    has_rsample = True

    def __init__(self, loc: ArrayOrTensor, scale: ArrayOrTensor) -> None:
        self.loc = _as_tensor(loc)
        self.scale = _as_tensor(scale)
        batch_shape = _broadcast_shapes(self.loc.shape, self.scale.shape)
        super().__init__(batch_shape)

    def expand(self, batch_shape: Tuple[int, ...]) -> "Normal":
        loc = self.loc.broadcast_to(batch_shape) if self.loc.shape != tuple(batch_shape) else self.loc
        scale = self.scale.broadcast_to(batch_shape) if self.scale.shape != tuple(batch_shape) else self.scale
        return Normal(loc, scale)

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        shape = self.shape(sample_shape)
        eps = Tensor(get_rng().standard_normal(shape))
        return self.loc + self.scale * eps

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.rsample(sample_shape).detach()

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        """``-(value - loc)² / (2 scale²) - log scale - ½ log 2π`` as one tape node.

        Bit-identical to that expression written with tensor ops: the
        forward runs the same kernels in the same order, and the backward
        reproduces each node's vector-Jacobian product, unbroadcast at that
        node's shape (e.g. the scale gradient is summed at the shape of
        ``2·scale²`` before it is multiplied by ``scale``).  ``scale``
        receives its two gradients as separate ``_accumulate`` calls in the
        tape's order: from ``scale²``, then from ``log scale``.
        """
        value = _as_tensor(value)
        loc, scale = self.loc, self.scale
        s = scale.data
        var = compute_eager("pow", [s], {"exponent": 2})
        diff = compute_eager("sub", [value.data, loc.data])
        diff_sq = compute_eager("pow", [diff], {"exponent": 2})
        neg_sq = compute_eager("neg", [diff_sq])
        two_var = compute_eager("mul", [var, _TWO])
        quad = compute_eager("div", [neg_sq, two_var])
        log_scale = compute_eager("log", [s])
        unnorm = compute_eager("sub", [quad, log_scale])
        out = Tensor._make(compute_eager("sub", [unnorm, _HALF_LOG_2PI]), (value, loc, scale),
                           "normal_log_prob")
        if out.requires_grad:

            def _backward(grad):
                g_unnorm = _node_grad(grad, unnorm)
                g_quad = _node_grad(g_unnorm, quad)
                if value.requires_grad or loc.requires_grad:
                    g_neg_sq = _node_grad(g_quad / two_var, neg_sq)
                    g_diff_sq = _node_grad(-g_neg_sq, diff_sq)
                    g_diff = _node_grad(g_diff_sq * 2 * diff, diff)
                    value._accumulate(g_diff)
                    loc._accumulate(-g_diff)
                if scale.requires_grad:
                    g_two_var = _node_grad(-g_quad * neg_sq / (two_var ** 2), two_var)
                    g_var = _node_grad(g_two_var * _TWO, var)
                    scale._accumulate(g_var * 2 * s)
                    scale._accumulate(_node_grad(-g_unnorm, log_scale) / s)

            out._backward = _backward
        return out

    def entropy(self) -> Tensor:
        return self.scale.log() + 0.5 * (1.0 + _LOG_2PI)

    def cdf(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        return 0.5 * (1.0 + ((value - self.loc) / (self.scale * math.sqrt(2.0))).erf())

    @property
    def mean(self) -> Tensor:
        return self.loc

    @property
    def variance(self) -> Tensor:
        return self.scale ** 2

    @property
    def stddev(self) -> Tensor:
        return self.scale


class LogNormal(Distribution):
    """Distribution of ``exp(X)`` with ``X ~ N(loc, scale^2)``."""

    has_rsample = True

    def __init__(self, loc: ArrayOrTensor, scale: ArrayOrTensor) -> None:
        self.base = Normal(loc, scale)
        super().__init__(self.base.batch_shape)

    @property
    def loc(self) -> Tensor:
        return self.base.loc

    @property
    def scale(self) -> Tensor:
        return self.base.scale

    def expand(self, batch_shape):
        return LogNormal(self.loc.broadcast_to(batch_shape), self.scale.broadcast_to(batch_shape))

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.base.rsample(sample_shape).exp()

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.rsample(sample_shape).detach()

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        return self.base.log_prob(value.log()) - value.log()

    @property
    def mean(self) -> Tensor:
        return (self.loc + 0.5 * self.scale ** 2).exp()

    @property
    def variance(self) -> Tensor:
        return ((self.scale ** 2).exp() - 1.0) * (2.0 * self.loc + self.scale ** 2).exp()


class Uniform(Distribution):
    """Continuous uniform on ``[low, high)``."""

    has_rsample = True

    def __init__(self, low: ArrayOrTensor, high: ArrayOrTensor) -> None:
        self.low = _as_tensor(low)
        self.high = _as_tensor(high)
        if np.any(self.high.data <= self.low.data):
            raise ValueError("Uniform requires high > low")
        super().__init__(_broadcast_shapes(self.low.shape, self.high.shape))

    def expand(self, batch_shape):
        return Uniform(self.low.broadcast_to(batch_shape), self.high.broadcast_to(batch_shape))

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        shape = self.shape(sample_shape)
        u = Tensor(get_rng().random(shape))
        return self.low + (self.high - self.low) * u

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.rsample(sample_shape).detach()

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        inside = (value.data >= self.low.data) & (value.data < self.high.data)
        log_density = -(self.high - self.low).log()
        log_density = log_density + Tensor(np.where(inside, 0.0, -np.inf))
        return log_density.broadcast_to(_broadcast_shapes(value.shape, self.batch_shape))

    def entropy(self) -> Tensor:
        return (self.high - self.low).log()

    @property
    def mean(self) -> Tensor:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> Tensor:
        return (self.high - self.low) ** 2 / 12.0


class Delta(Distribution):
    """Point mass at ``v`` (used by MAP / AutoDelta guides)."""

    has_rsample = True

    def __init__(self, v: ArrayOrTensor, log_density: ArrayOrTensor = 0.0,
                 event_dim: int = 0) -> None:
        self.v = _as_tensor(v)
        self.log_density = _as_tensor(log_density)
        batch_shape = self.v.shape[:self.v.ndim - event_dim] if event_dim else self.v.shape
        event_shape = self.v.shape[self.v.ndim - event_dim:] if event_dim else ()
        super().__init__(batch_shape, event_shape)
        self.event_dim = event_dim

    def expand(self, batch_shape):
        return Delta(self.v.broadcast_to(tuple(batch_shape) + self.event_shape),
                     event_dim=self.event_dim)

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        if sample_shape:
            return self.v.broadcast_to(tuple(sample_shape) + self.v.shape)
        return self.v

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.rsample(sample_shape).detach()

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        match = np.isclose(value.data, np.broadcast_to(self.v.data, value.shape)).astype(np.float64)
        log_prob = Tensor(np.where(match, 0.0, -np.inf)) + self.log_density
        if self.event_dim:
            log_prob = sum_rightmost(log_prob, self.event_dim)
        return log_prob

    def entropy(self) -> Tensor:
        return Tensor(np.zeros(self.batch_shape))

    @property
    def mean(self) -> Tensor:
        return self.v

    @property
    def variance(self) -> Tensor:
        return Tensor(np.zeros(self.v.shape))


class Categorical(Distribution):
    """Categorical over ``K`` classes, parameterized by logits or probs."""

    has_rsample = False

    def __init__(self, logits: Optional[ArrayOrTensor] = None,
                 probs: Optional[ArrayOrTensor] = None) -> None:
        if (logits is None) == (probs is None):
            raise ValueError("provide exactly one of logits or probs")
        if logits is not None:
            self.logits = _as_tensor(logits)
        else:
            probs_t = _as_tensor(probs)
            self.logits = probs_t.log() - probs_t.sum(axis=-1, keepdims=True).log()
        super().__init__(self.logits.shape[:-1])
        self.num_classes = self.logits.shape[-1]

    @property
    def probs(self) -> Tensor:
        return F.softmax(self.logits, axis=-1)

    def expand(self, batch_shape):
        return Categorical(logits=self.logits.broadcast_to(tuple(batch_shape) + (self.num_classes,)))

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        probs = self.probs.data
        shape = tuple(sample_shape) + self.batch_shape
        flat_probs = np.broadcast_to(probs, shape + (self.num_classes,)).reshape(-1, self.num_classes)
        u = get_rng().random(flat_probs.shape[0])
        cdf = np.cumsum(flat_probs, axis=-1)
        cdf /= cdf[:, -1:]
        idx = (u[:, None] > cdf).sum(axis=-1)
        return Tensor(idx.reshape(shape))

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value_arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype=np.int64)
        log_probs = F.log_softmax(self.logits, axis=-1)
        oh = F.one_hot(value_arr, self.num_classes)
        return (log_probs * Tensor(oh)).sum(axis=-1)

    def entropy(self) -> Tensor:
        log_probs = F.log_softmax(self.logits, axis=-1)
        return -(log_probs.exp() * log_probs).sum(axis=-1)

    @property
    def mean(self) -> Tensor:
        raise NotImplementedError("Categorical has no mean")


class Bernoulli(Distribution):
    """Bernoulli over {0, 1}, parameterized by logits or probs."""

    has_rsample = False

    def __init__(self, logits: Optional[ArrayOrTensor] = None,
                 probs: Optional[ArrayOrTensor] = None) -> None:
        if (logits is None) == (probs is None):
            raise ValueError("provide exactly one of logits or probs")
        if logits is not None:
            self.logits = _as_tensor(logits)
        else:
            p = _as_tensor(probs)
            self.logits = p.log() - (1.0 - p).log()
        super().__init__(self.logits.shape)

    @property
    def probs(self) -> Tensor:
        return self.logits.sigmoid()

    def expand(self, batch_shape):
        return Bernoulli(logits=self.logits.broadcast_to(batch_shape))

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        shape = self.shape(sample_shape)
        u = get_rng().random(shape)
        return Tensor((u < np.broadcast_to(self.probs.data, shape)).astype(np.float64))

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        return -F.binary_cross_entropy_with_logits(self.logits + value * 0.0, value, reduction="none")

    def entropy(self) -> Tensor:
        p = self.probs
        return -(p * p.log() + (1.0 - p) * (1.0 - p).log())

    @property
    def mean(self) -> Tensor:
        return self.probs

    @property
    def variance(self) -> Tensor:
        p = self.probs
        return p * (1.0 - p)


class Poisson(Distribution):
    """Poisson with rate ``rate`` (included to mirror the paper's note that new
    likelihoods based on existing distributions are easy to add)."""

    has_rsample = False

    def __init__(self, rate: ArrayOrTensor) -> None:
        self.rate = _as_tensor(rate)
        super().__init__(self.rate.shape)

    def expand(self, batch_shape):
        return Poisson(self.rate.broadcast_to(batch_shape))

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        shape = self.shape(sample_shape)
        return Tensor(get_rng().poisson(np.broadcast_to(self.rate.data, shape)).astype(np.float64))

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        log_factorial = Tensor(_sp_special.gammaln(value.data + 1.0))
        return value * self.rate.log() - self.rate - log_factorial

    @property
    def mean(self) -> Tensor:
        return self.rate

    @property
    def variance(self) -> Tensor:
        return self.rate


class Gamma(Distribution):
    """Gamma distribution (shape/rate parameterization); sampling is not
    reparameterized and is provided for prior specification only."""

    has_rsample = False

    def __init__(self, concentration: ArrayOrTensor, rate: ArrayOrTensor) -> None:
        self.concentration = _as_tensor(concentration)
        self.rate = _as_tensor(rate)
        super().__init__(_broadcast_shapes(self.concentration.shape, self.rate.shape))

    def expand(self, batch_shape):
        return Gamma(self.concentration.broadcast_to(batch_shape), self.rate.broadcast_to(batch_shape))

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        shape = self.shape(sample_shape)
        k = np.broadcast_to(self.concentration.data, shape)
        theta = 1.0 / np.broadcast_to(self.rate.data, shape)
        return Tensor(get_rng().gamma(k, theta))

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        lgamma = Tensor(_sp_special.gammaln(np.broadcast_to(self.concentration.data, self.batch_shape)))
        return (self.concentration * self.rate.log() + (self.concentration - 1.0) * value.log()
                - self.rate * value - lgamma)

    @property
    def mean(self) -> Tensor:
        return self.concentration / self.rate

    @property
    def variance(self) -> Tensor:
        return self.concentration / self.rate ** 2


class Independent(Distribution):
    """Reinterpret the rightmost batch dims of a base distribution as event dims."""

    def __init__(self, base_dist: Distribution, reinterpreted_batch_ndims: int) -> None:
        if reinterpreted_batch_ndims > len(base_dist.batch_shape):
            raise ValueError("reinterpreted_batch_ndims exceeds the base batch rank")
        self.base_dist = base_dist
        self.reinterpreted_batch_ndims = reinterpreted_batch_ndims
        split = len(base_dist.batch_shape) - reinterpreted_batch_ndims
        super().__init__(base_dist.batch_shape[:split],
                         base_dist.batch_shape[split:] + base_dist.event_shape)

    @property
    def has_rsample(self) -> bool:  # type: ignore[override]
        return self.base_dist.has_rsample

    def expand(self, batch_shape):
        new_base = self.base_dist.expand(tuple(batch_shape) + self.base_dist.batch_shape[len(self.base_dist.batch_shape) - self.reinterpreted_batch_ndims:])
        return Independent(new_base, self.reinterpreted_batch_ndims)

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.base_dist.rsample(sample_shape)

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.base_dist.sample(sample_shape)

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        return sum_rightmost(self.base_dist.log_prob(value), self.reinterpreted_batch_ndims)

    def entropy(self) -> Tensor:
        return sum_rightmost(self.base_dist.entropy(), self.reinterpreted_batch_ndims)

    @property
    def mean(self) -> Tensor:
        return self.base_dist.mean

    @property
    def variance(self) -> Tensor:
        return self.base_dist.variance

    def to_event(self, reinterpreted_batch_ndims: Optional[int] = None) -> "Distribution":
        if reinterpreted_batch_ndims is None:
            reinterpreted_batch_ndims = len(self.batch_shape)
        if reinterpreted_batch_ndims == 0:
            return self
        return Independent(self.base_dist, self.reinterpreted_batch_ndims + reinterpreted_batch_ndims)


# ------------------------------------------------------- low-rank multivariate
def _matrix_inverse(a: Tensor) -> Tensor:
    """Differentiable inverse of a small square matrix."""
    inv = np.linalg.inv(a.data)
    out = Tensor(inv, requires_grad=a.requires_grad)
    if out.requires_grad:
        out._prev = (a,)
        out._op = "inverse"

        def _backward(grad):
            a._accumulate(-inv.T @ grad @ inv.T)

        out._backward = _backward
    return out


def _logdet(a: Tensor) -> Tensor:
    """Differentiable log-determinant of a positive-definite matrix."""
    sign, logabsdet = np.linalg.slogdet(a.data)
    if sign <= 0:
        raise ValueError("matrix must be positive definite for logdet")
    out = Tensor(np.asarray(logabsdet), requires_grad=a.requires_grad)
    if out.requires_grad:
        inv = np.linalg.inv(a.data)
        out._prev = (a,)
        out._op = "logdet"

        def _backward(grad):
            a._accumulate(grad * inv.T)

        out._backward = _backward
    return out


class LowRankMultivariateNormal(Distribution):
    """Multivariate normal with covariance ``cov_factor cov_factor^T + diag(cov_diag)``.

    Used by the last-layer low-rank guide in the ResNet experiment (Table 1).
    Only a single event dimension (vector-valued) is supported.
    """

    has_rsample = True

    def __init__(self, loc: ArrayOrTensor, cov_factor: ArrayOrTensor, cov_diag: ArrayOrTensor) -> None:
        self.loc = _as_tensor(loc)
        self.cov_factor = _as_tensor(cov_factor)
        self.cov_diag = _as_tensor(cov_diag)
        if self.loc.ndim != 1 or self.cov_factor.ndim != 2 or self.cov_diag.ndim != 1:
            raise ValueError("LowRankMultivariateNormal expects 1-D loc/cov_diag and 2-D cov_factor")
        d, k = self.cov_factor.shape
        if self.loc.shape[0] != d or self.cov_diag.shape[0] != d:
            raise ValueError("inconsistent dimensions for LowRankMultivariateNormal")
        self.rank = k
        super().__init__((), (d,))

    @property
    def event_dim(self) -> int:
        return 1

    def rsample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        d = self.event_shape[0]
        shape_w = tuple(sample_shape) + (self.rank,)
        shape_d = tuple(sample_shape) + (d,)
        eps_w = Tensor(get_rng().standard_normal(shape_w))
        eps_d = Tensor(get_rng().standard_normal(shape_d))
        return self.loc + eps_w @ self.cov_factor.T + self.cov_diag.sqrt() * eps_d

    def sample(self, sample_shape: Tuple[int, ...] = ()) -> Tensor:
        return self.rsample(sample_shape).detach()

    def log_prob(self, value: ArrayOrTensor) -> Tensor:
        value = _as_tensor(value)
        d = self.event_shape[0]
        diff = value - self.loc  # (..., d)
        w = self.cov_factor  # (d, k)
        d_inv = 1.0 / self.cov_diag  # (d,)
        # capacitance matrix M = I + W^T D^-1 W  (k x k)
        m = Tensor(np.eye(self.rank)) + w.T @ (w * d_inv.reshape(d, 1))
        m_inv = _matrix_inverse(m)
        # Woodbury: Sigma^-1 = D^-1 - D^-1 W M^-1 W^T D^-1
        diff_dinv = diff * d_inv  # (..., d)
        quad_diag = (diff * diff_dinv).sum(axis=-1)
        proj = diff_dinv @ w  # (..., k)
        quad_lr = ((proj @ m_inv) * proj).sum(axis=-1)
        mahalanobis = quad_diag - quad_lr
        # determinant lemma: log|Sigma| = log|M| + sum log D
        logdet = _logdet(m) + self.cov_diag.log().sum()
        return -0.5 * (mahalanobis + logdet + d * _LOG_2PI)

    def entropy(self) -> Tensor:
        d = self.event_shape[0]
        w = self.cov_factor
        d_inv = 1.0 / self.cov_diag
        m = Tensor(np.eye(self.rank)) + w.T @ (w * d_inv.reshape(d, 1))
        logdet = _logdet(m) + self.cov_diag.log().sum()
        return 0.5 * (d * (1.0 + _LOG_2PI) + logdet)

    @property
    def mean(self) -> Tensor:
        return self.loc

    @property
    def variance(self) -> Tensor:
        return (self.cov_factor ** 2).sum(axis=-1) + self.cov_diag


# --------------------------------------------------------------- KL divergence
_KL_REGISTRY: Dict[Tuple[Type, Type], callable] = {}


def register_kl(type_p: Type, type_q: Type):
    """Decorator registering an analytic KL divergence ``KL(p || q)``."""

    def decorator(fn):
        _KL_REGISTRY[(type_p, type_q)] = fn
        return fn

    return decorator


def kl_divergence(p: Distribution, q: Distribution) -> Tensor:
    """Analytic ``KL(p || q)``; raises ``NotImplementedError`` if unknown."""
    for (tp, tq), fn in _KL_REGISTRY.items():
        if isinstance(p, tp) and isinstance(q, tq):
            return fn(p, q)
    raise NotImplementedError(f"no KL registered for ({type(p).__name__}, {type(q).__name__})")


@register_kl(Normal, Normal)
def _kl_normal_normal(p: Normal, q: Normal) -> Tensor:
    """``½ (r + ((p.loc - q.loc) / q.scale)² - 1 - log r)`` with
    ``r = (p.scale / q.scale)²``, as one tape node.

    Bit-identical to that expression written with tensor ops (same
    kernels in the same order; each node's vector-Jacobian product,
    unbroadcast at its shape).  ``r`` sums its two gradient contributions,
    from the add and from the log, before passing one gradient on to
    ``p.scale``.  ``q.scale`` receives its two gradients as separate
    ``_accumulate`` calls in the tape's order: through ``(p.loc - q.loc) /
    q.scale`` first, then through ``p.scale / q.scale``.
    """
    p_loc, p_scale, q_loc, q_scale = p.loc, p.scale, q.loc, q.scale
    qs = q_scale.data
    ratio = compute_eager("div", [p_scale.data, qs])
    var_ratio = compute_eager("pow", [ratio], {"exponent": 2})
    diff = compute_eager("sub", [p_loc.data, q_loc.data])
    z = compute_eager("div", [diff, qs])
    z_sq = compute_eager("pow", [z], {"exponent": 2})
    total = compute_eager("add", [var_ratio, z_sq])
    total_m1 = compute_eager("sub", [total, _ONE])
    log_ratio = compute_eager("log", [var_ratio])
    twice_kl = compute_eager("sub", [total_m1, log_ratio])
    out = Tensor._make(compute_eager("mul", [twice_kl, _HALF]), (p_loc, p_scale, q_loc, q_scale),
                       "kl_normal_normal")
    if out.requires_grad:

        def _backward(grad):
            g_twice = _node_grad(grad * _HALF, twice_kl)
            g_total = _node_grad(_node_grad(g_twice, total_m1), total)
            if p_loc.requires_grad or q_loc.requires_grad or q_scale.requires_grad:
                g_z = _node_grad(_node_grad(g_total, z_sq) * 2 * z, z)
                g_diff = _node_grad(g_z / qs, diff)
                q_scale._accumulate(-g_z * diff / (qs ** 2))
                p_loc._accumulate(g_diff)
                q_loc._accumulate(-g_diff)
            if p_scale.requires_grad or q_scale.requires_grad:
                g_log = _node_grad(-g_twice, log_ratio)
                g_var_ratio = (_node_grad(g_total, var_ratio)
                               + _node_grad(g_log / var_ratio, var_ratio))
                g_ratio = _node_grad(g_var_ratio * 2 * ratio, ratio)
                p_scale._accumulate(g_ratio / qs)
                q_scale._accumulate(-g_ratio * p_scale.data / (qs ** 2))

        out._backward = _backward
    return out


@register_kl(Delta, Distribution)
def _kl_delta_any(p: Delta, q: Distribution) -> Tensor:
    # KL(delta_v || q) up to the (infinite) self-entropy constant; this is the
    # convention Pyro uses so that AutoDelta yields MAP estimation.
    return -q.log_prob(p.v) + p.log_density


@register_kl(Independent, Independent)
def _kl_independent_independent(p: Independent, q: Independent) -> Tensor:
    if p.reinterpreted_batch_ndims != q.reinterpreted_batch_ndims:
        raise NotImplementedError("mismatched reinterpreted_batch_ndims")
    return sum_rightmost(kl_divergence(p.base_dist, q.base_dist), p.reinterpreted_batch_ndims)


@register_kl(Independent, Normal)
def _kl_independent_normal(p: Independent, q: Normal) -> Tensor:
    return sum_rightmost(kl_divergence(p.base_dist, q), p.reinterpreted_batch_ndims)


@register_kl(Normal, Independent)
def _kl_normal_independent(p: Normal, q: Independent) -> Tensor:
    return sum_rightmost(kl_divergence(p, q.base_dist), q.reinterpreted_batch_ndims)
