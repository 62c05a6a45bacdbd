"""Automatic guide construction, mirroring ``pyro.infer.autoguide``.

An :class:`AutoGuide` inspects a model's trace to discover its latent sample
sites and then defines a variational family over them, creating its
variational parameters in the global parameter store.  The TyXe-style guide
(:class:`repro.core.guides.AutoNormal`) extends :class:`AutoNormal` here with
the BNN-specific conveniences described in the paper (pretrained-mean
initialization, frozen means, clipped scales).
"""
# repro: noqa[R003] -- guide setup runs once per inference, not per step;
# eager materialization of init values here is deliberate.

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ...nn.tensor import Tensor, stack as _stack_tensors
from .. import constraints
from ..distributions import (Delta, Distribution, LowRankMultivariateNormal,
                             Normal)
from ..params import get_param_store
from ..poutine import block, trace
from ..primitives import param, sample
from ..rng import get_rng

__all__ = [
    "AutoGuide",
    "AutoNormal",
    "AutoDelta",
    "AutoLowRankMultivariateNormal",
    "init_to_median",
    "init_to_sample",
    "init_to_value",
    "init_to_mean",
]


# ------------------------------------------------------------ init strategies
def init_to_median(site: Dict, num_samples: int = 15) -> np.ndarray:
    """Initialize to the (empirical) median of the prior."""
    fn = site["fn"]
    samples = np.stack([fn.sample().data for _ in range(num_samples)])
    return np.median(samples, axis=0)


def init_to_mean(site: Dict) -> np.ndarray:
    """Initialize to the prior mean, falling back to a sample."""
    try:
        return np.array(site["fn"].mean.data, copy=True)
    except NotImplementedError:
        return init_to_sample(site)


def init_to_sample(site: Dict) -> np.ndarray:
    """Initialize to a single sample from the prior."""
    return np.array(site["fn"].sample().data, copy=True)


def init_to_value(values: Dict[str, np.ndarray], fallback: Callable = init_to_median) -> Callable:
    """Initialize named sites to given values, falling back otherwise."""

    def _init(site: Dict) -> np.ndarray:
        if site["name"] in values:
            value = values[site["name"]]
            return np.array(value.data if isinstance(value, Tensor) else value, copy=True, dtype=np.float64)
        return fallback(site)

    return _init


class AutoGuide:
    """Base class for automatic guides over a model's latent sample sites."""

    def __init__(self, model: Callable, prefix: str = "auto") -> None:
        self.model = model
        self.prefix = prefix
        self.prototype_trace = None
        self._latent_sites: "OrderedDict[str, Dict]" = OrderedDict()

    # ---------------------------------------------------------------- set-up
    def _setup_prototype(self, *args, **kwargs) -> None:
        blocked_model = block(self.model, hide_fn=lambda m: m["type"] == "param")
        # the outer block hides the prototype run from any handlers that are
        # already active (e.g. the guide trace recorded during an SVI step)
        with block():
            self.prototype_trace = trace(blocked_model).get_trace(*args, **kwargs)
        self._latent_sites = OrderedDict()
        for name, site in self.prototype_trace.nodes.items():
            if site.get("type") == "sample" and not site.get("is_observed"):
                self._latent_sites[name] = site

    def _maybe_setup(self, *args, **kwargs) -> None:
        if self.prototype_trace is None:
            self._setup_prototype(*args, **kwargs)

    def sample_site_names(self, *args, **kwargs) -> Tuple[str, ...]:
        """Names of the latent sites the guide draws, setting the guide up
        exactly as its first call would (so the RNG stream is unchanged)."""
        self._maybe_setup(*args, **kwargs)
        return self.latent_names

    @property
    def latent_names(self) -> Tuple[str, ...]:
        return tuple(self._latent_sites)

    def _site_param_name(self, name: str, kind: str) -> str:
        return f"{self.prefix}.{kind}.{name}"

    def _stored_params(self, *names: str) -> Optional[Tuple[Tensor, ...]]:
        """Fetch the named variational parameters if they all already exist.

        Returns ``None`` when any is missing (the caller then runs its init
        path).  Guides call this first so repeated invocations skip their
        ``init_loc_fn`` — init strategies may draw from the prior, and
        re-running them on every guide call would waste both time and RNG
        draws.
        """
        store = get_param_store()
        if all(name in store for name in names):
            return tuple(param(name) for name in names)
        return None

    # -------------------------------------------------------------- interface
    def __call__(self, *args, **kwargs) -> Dict[str, Tensor]:
        raise NotImplementedError

    def median(self, *args, **kwargs) -> Dict[str, np.ndarray]:
        """Point estimates (posterior medians) for all latent sites."""
        raise NotImplementedError

    def get_distribution(self, name: str) -> Distribution:
        """The current variational distribution of one latent site."""
        raise NotImplementedError

    def sample_stacked(self, num_samples: int, *args, **kwargs) -> "OrderedDict[str, Tensor]":
        """Draw ``num_samples`` joint posterior samples per latent site, stacked
        along a new leading axis.

        This is the guide-side entry point of the vectorized posterior-
        predictive path: the returned ``{site: (num_samples, ...)}`` tensors
        can be substituted into a network whose layers broadcast over leading
        weight dimensions, replacing ``num_samples`` traced forward passes
        with one batched pass.  Draws are made sample-by-sample in site order,
        which keeps the RNG stream identical to tracing the guide
        ``num_samples`` times (the looped fallback path).

        The generic implementation does exactly that — traces the guide
        repeatedly and stacks the recorded values — so it is correct for any
        guide (including ones with auxiliary joint latents); subclasses with
        factorized posteriors override it with a cheaper direct-sampling loop.
        """
        self._maybe_setup(*args, **kwargs)
        stacks: "OrderedDict[str, list]" = OrderedDict((name, []) for name in self._latent_sites)
        for _ in range(num_samples):
            tr = trace(self).get_trace(*args, **kwargs)
            for name in stacks:
                stacks[name].append(tr[name]["value"])
        return OrderedDict((name, _stack_tensors(values)) for name, values in stacks.items())

    def _params_initialized(self) -> bool:
        """Whether the guide's variational parameters already exist in the store.

        Subclasses whose fast sampling paths read parameters directly override
        this; the generic trace-based ``sample_stacked`` creates parameters as
        a side effect and does not need it.
        """
        return True

    def _initial_trace_values(self, *args, **kwargs) -> "OrderedDict[str, Tensor]":
        """Run the guide once, instantiating its parameters, and return the
        sampled site values — exactly what the looped path's first call does,
        so first-call RNG streams stay identical."""
        tr = trace(self).get_trace(*args, **kwargs)
        return OrderedDict((name, tr[name]["value"]) for name in self._latent_sites)

    def _stack_marginal_samples(self, num_samples: int, *args, **kwargs) -> "OrderedDict[str, Tensor]":
        """Fast ``sample_stacked`` for factorized guides: draw from each site's
        marginal posterior directly, skipping the effect-handler machinery."""
        self._maybe_setup(*args, **kwargs)
        draws: "OrderedDict[str, list]" = OrderedDict((name, []) for name in self._latent_sites)
        remaining = num_samples
        if remaining > 0 and not self._params_initialized():
            for name, value in self._initial_trace_values(*args, **kwargs).items():
                draws[name].append(value)
            remaining -= 1
        dists = OrderedDict((name, self.get_distribution(name)) for name in self._latent_sites)
        for _ in range(remaining):
            for name, site_dist in dists.items():
                draws[name].append(site_dist.rsample())
        return OrderedDict((name, _stack_tensors(values)) for name, values in draws.items())

    def get_detached_distributions(self, names: Optional[Tuple[str, ...]] = None) -> Dict[str, Distribution]:
        """Return {site: distribution} with parameters detached from autograd.

        This is the hook variational continual learning uses to turn the
        current posterior into the next task's prior (paper Listing 6).
        """
        names = names if names is not None else self.latent_names
        out: Dict[str, Distribution] = OrderedDict()
        for name in names:
            dist = self.get_distribution(name)
            out[name] = _detach_distribution(dist)
        return out


def _detach_distribution(dist: Distribution) -> Distribution:
    if isinstance(dist, Normal):
        return Normal(dist.loc.detach(), dist.scale.detach())
    if isinstance(dist, Delta):
        return Delta(dist.v.detach(), event_dim=dist.event_dim)
    from ..distributions import Independent

    if isinstance(dist, Independent):
        return Independent(_detach_distribution(dist.base_dist), dist.reinterpreted_batch_ndims)
    if isinstance(dist, LowRankMultivariateNormal):
        return LowRankMultivariateNormal(dist.loc.detach(), dist.cov_factor.detach(), dist.cov_diag.detach())
    raise NotImplementedError(f"cannot detach distribution of type {type(dist).__name__}")


class AutoNormal(AutoGuide):
    """Fully factorized Gaussian guide: one ``Normal(loc, scale)`` per site.

    Samples each unobserved site from a diagonal Normal directly (rather than
    through a joint auxiliary variable), which is what makes it compatible
    with local reparameterization and closed-form KL — the motivation given
    in the paper for TyXe's own AutoNormal.
    """

    def __init__(self, model: Callable, init_loc_fn: Callable = init_to_median,
                 init_scale: float = 0.1, prefix: str = "auto") -> None:
        super().__init__(model, prefix=prefix)
        self.init_loc_fn = init_loc_fn
        self.init_scale = init_scale

    def _loc_scale(self, name: str, site: Dict) -> Tuple[Tensor, Tensor]:
        loc_name = self._site_param_name(name, "loc")
        scale_name = self._site_param_name(name, "scale")
        existing = self._stored_params(loc_name, scale_name)
        if existing is not None:
            return existing
        init_loc = self.init_loc_fn(site)
        shape = np.shape(init_loc)
        loc = param(loc_name, np.asarray(init_loc, dtype=np.float64))
        scale = param(scale_name,
                      np.full(shape, self.init_scale, dtype=np.float64),
                      constraint=constraints.positive)
        return loc, scale

    def __call__(self, *args, **kwargs) -> Dict[str, Tensor]:
        self._maybe_setup(*args, **kwargs)
        result: Dict[str, Tensor] = OrderedDict()
        for name, site in self._latent_sites.items():
            loc, scale = self._loc_scale(name, site)
            event_dim = loc.ndim
            result[name] = sample(name, Normal(loc, scale).to_event(event_dim),
                                  infer={"is_auxiliary": False})
        return result

    def get_distribution(self, name: str) -> Distribution:
        store = get_param_store()
        loc = store.get_param(self._site_param_name(name, "loc"))
        scale = store.get_param(self._site_param_name(name, "scale"))
        return Normal(loc, scale).to_event(loc.ndim)

    def _params_initialized(self) -> bool:
        store = get_param_store()
        return all(self._site_param_name(name, "loc") in store
                   and self._site_param_name(name, "scale") in store
                   for name in self._latent_sites)

    def sample_stacked(self, num_samples: int, *args, **kwargs) -> "OrderedDict[str, Tensor]":
        # draw the raw standard-normal noise in the same iteration-major order
        # as num_samples traced guide runs (keeping the RNG stream identical),
        # then reparameterize each site once with a single broadcast
        # ``loc + scale * eps`` instead of per-draw Tensor arithmetic
        self._maybe_setup(*args, **kwargs)
        if not self._params_initialized():
            # the first-ever guide invocation also instantiates the
            # variational parameters; route it through the traced path so the
            # RNG stream (init draws interleaved with the first sample) is
            # identical to the looped path's first call
            return self._stack_marginal_samples(num_samples, *args, **kwargs)
        bases: "OrderedDict[str, Normal]" = OrderedDict()
        for name in self._latent_sites:
            site_dist = self.get_distribution(name)
            base = getattr(site_dist, "base_dist", site_dist)
            if not isinstance(base, Normal):
                return self._stack_marginal_samples(num_samples, *args, **kwargs)
            bases[name] = base
        rng = get_rng()
        shapes = {name: np.broadcast_shapes(base.loc.shape, base.scale.shape)
                  for name, base in bases.items()}
        if len(bases) == 1:
            # a single latent site means the iteration-major stream is one
            # contiguous run of normal draws: fill the whole (S, ...) noise
            # block in one generator call (bit-identical to S separate draws,
            # which consume the underlying stream sequentially either way)
            (name, base), = bases.items()
            eps = rng.standard_normal((num_samples,) + shapes[name])
            return OrderedDict([(name, base.loc + base.scale * Tensor(eps))])
        eps_draws: "OrderedDict[str, list]" = OrderedDict((name, []) for name in bases)
        for _ in range(num_samples):
            for name in bases:
                eps_draws[name].append(rng.standard_normal(shapes[name]))
        return OrderedDict(
            (name, base.loc + base.scale * Tensor(np.stack(eps_draws[name])))
            for name, base in bases.items())

    def median(self, *args, **kwargs) -> Dict[str, np.ndarray]:
        self._maybe_setup(*args, **kwargs)
        store = get_param_store()
        return {name: store.get_param(self._site_param_name(name, "loc")).data.copy()
                for name in self._latent_sites}


class AutoDelta(AutoGuide):
    """Point-estimate (MAP) guide: a Delta distribution per latent site."""

    def __init__(self, model: Callable, init_loc_fn: Callable = init_to_median,
                 prefix: str = "auto") -> None:
        super().__init__(model, prefix=prefix)
        self.init_loc_fn = init_loc_fn

    def __call__(self, *args, **kwargs) -> Dict[str, Tensor]:
        self._maybe_setup(*args, **kwargs)
        result: Dict[str, Tensor] = OrderedDict()
        for name, site in self._latent_sites.items():
            loc_name = self._site_param_name(name, "loc")
            existing = self._stored_params(loc_name)
            if existing is not None:
                loc, = existing
            else:
                loc = param(loc_name, np.asarray(self.init_loc_fn(site), dtype=np.float64))
            result[name] = sample(name, Delta(loc, event_dim=loc.ndim))
        return result

    def get_distribution(self, name: str) -> Distribution:
        store = get_param_store()
        loc = store.get_param(self._site_param_name(name, "loc"))
        return Delta(loc, event_dim=loc.ndim)

    def _params_initialized(self) -> bool:
        store = get_param_store()
        return all(self._site_param_name(name, "loc") in store
                   for name in self._latent_sites)

    def sample_stacked(self, num_samples: int, *args, **kwargs) -> "OrderedDict[str, Tensor]":
        # a Delta "draw" is just the stored point estimate and consumes no RNG,
        # so the stack is a broadcast of each loc — no per-draw Python loop
        self._maybe_setup(*args, **kwargs)
        if not self._params_initialized():
            return self._stack_marginal_samples(num_samples, *args, **kwargs)
        store = get_param_store()
        out: "OrderedDict[str, Tensor]" = OrderedDict()
        for name in self._latent_sites:
            loc = store.get_param(self._site_param_name(name, "loc"))
            out[name] = loc.unsqueeze(0).broadcast_to((num_samples,) + loc.shape)
        return out

    def median(self, *args, **kwargs) -> Dict[str, np.ndarray]:
        self._maybe_setup(*args, **kwargs)
        store = get_param_store()
        return {name: store.get_param(self._site_param_name(name, "loc")).data.copy()
                for name in self._latent_sites}


class AutoLowRankMultivariateNormal(AutoGuide):
    """Joint low-rank-plus-diagonal Gaussian over all latent sites.

    All latents are flattened and concatenated into one vector with a
    ``LowRankMultivariateNormal`` posterior; per-site values are emitted as
    Delta sites sliced out of the joint sample (so that replaying the model
    against the guide trace works exactly as for the factorized guides).
    """

    def __init__(self, model: Callable, init_loc_fn: Callable = init_to_median,
                 init_scale: float = 0.1, rank: int = 10, prefix: str = "auto_lowrank") -> None:
        super().__init__(model, prefix=prefix)
        self.init_loc_fn = init_loc_fn
        self.init_scale = init_scale
        self.rank = rank
        self._site_slices: "OrderedDict[str, Tuple[slice, Tuple[int, ...]]]" = OrderedDict()
        self._total_dim = 0

    def _setup_prototype(self, *args, **kwargs) -> None:
        super()._setup_prototype(*args, **kwargs)
        offset = 0
        self._site_slices = OrderedDict()
        for name, site in self._latent_sites.items():
            shape = site["value"].shape
            size = int(np.prod(shape)) if shape else 1
            self._site_slices[name] = (slice(offset, offset + size), shape)
            offset += size
        self._total_dim = offset

    def _joint_params(self) -> Tuple[Tensor, Tensor, Tensor]:
        existing = self._stored_params(f"{self.prefix}.loc", f"{self.prefix}.cov_factor",
                                       f"{self.prefix}.cov_diag")
        if existing is not None:
            return existing
        init_loc = np.zeros(self._total_dim)
        for name, site in self._latent_sites.items():
            sl, shape = self._site_slices[name]
            init_loc[sl] = np.asarray(self.init_loc_fn(site), dtype=np.float64).reshape(-1)
        # prefix-formatted param names are deliberate: one joint guide may be
        # instantiated per model, each needing a distinct store namespace
        loc = param(f"{self.prefix}.loc", init_loc)  # repro: noqa[R002]
        cov_factor = param(f"{self.prefix}.cov_factor",  # repro: noqa[R002]
                           get_rng().standard_normal((self._total_dim, self.rank)) * self.init_scale * 0.1)
        cov_diag = param(f"{self.prefix}.cov_diag",  # repro: noqa[R002]
                         np.full(self._total_dim, self.init_scale ** 2),
                         constraint=constraints.positive)
        return loc, cov_factor, cov_diag

    def __call__(self, *args, **kwargs) -> Dict[str, Tensor]:
        self._maybe_setup(*args, **kwargs)
        loc, cov_factor, cov_diag = self._joint_params()
        joint = sample(f"_{self.prefix}_latent",  # repro: noqa[R002]
                       LowRankMultivariateNormal(loc, cov_factor, cov_diag),
                       infer={"is_auxiliary": True})
        result: Dict[str, Tensor] = OrderedDict()
        for name in self._latent_sites:
            sl, shape = self._site_slices[name]
            value = joint[sl].reshape(shape) if shape else joint[sl].reshape(())
            result[name] = sample(name, Delta(value, event_dim=len(shape)))
        return result

    def get_distribution(self, name: str) -> Distribution:
        store = get_param_store()
        loc = store.get_param(f"{self.prefix}.loc")
        cov_factor = store.get_param(f"{self.prefix}.cov_factor")
        cov_diag = store.get_param(f"{self.prefix}.cov_diag")
        sl, shape = self._site_slices[name]
        marginal_scale = ((cov_factor ** 2).sum(axis=-1) + cov_diag).sqrt()
        return Normal(loc[sl].reshape(shape), marginal_scale[sl].reshape(shape)).to_event(len(shape))

    def sample_stacked(self, num_samples: int, *args, **kwargs) -> "OrderedDict[str, Tensor]":
        # sample the joint low-rank Gaussian per draw (marginals would lose the
        # cross-site correlations) and slice out the per-site values
        self._maybe_setup(*args, **kwargs)
        loc, cov_factor, cov_diag = self._joint_params()
        joint_dist = LowRankMultivariateNormal(loc, cov_factor, cov_diag)
        draws: "OrderedDict[str, list]" = OrderedDict((name, []) for name in self._latent_sites)
        for _ in range(num_samples):
            joint = joint_dist.rsample()
            for name in self._latent_sites:
                sl, shape = self._site_slices[name]
                draws[name].append(joint[sl].reshape(shape) if shape else joint[sl].reshape(()))
        return OrderedDict((name, _stack_tensors(values)) for name, values in draws.items())

    def median(self, *args, **kwargs) -> Dict[str, np.ndarray]:
        self._maybe_setup(*args, **kwargs)
        store = get_param_store()
        loc = store.get_param(f"{self.prefix}.loc").data
        return {name: loc[sl].reshape(shape).copy() for name, (sl, shape) in self._site_slices.items()}
