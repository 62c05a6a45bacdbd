"""The TyXe BNN wrapper classes (``tyxe/bnn.py``).

Class hierarchy (mirroring Appendix C of the paper):

``_BNN``
    Turns a deterministic network into a probabilistic model by replacing the
    exposed parameters with sample sites drawn from a :class:`Prior`.
``GuidedBNN``
    Adds a guide (variational family or MCMC kernel factory) and a forward
    pass that uses samples from the inference procedure.
``PytorchBNN``
    Low-level drop-in replacement for an ``nn.Module``: stochastic forward
    passes, a cached KL term, and ``pytorch_parameters`` for use with a plain
    ``repro.nn`` optimizer (the Bayesian-NeRF workflow of Listing 5).
``_SupervisedBNN``
    Adds a :class:`Likelihood` and the ``predict``/``evaluate`` API.
``VariationalBNN``
    scikit-learn style ``fit`` running stochastic variational inference.
``MCMC_BNN``
    Same interface, but ``fit`` runs full-batch HMC/NUTS.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import functional as nn_F
from ..nn.modules import Module
from ..nn.tensor import Parameter, Tensor, no_grad, stack as nn_stack
from .. import ppl
from ..ppl import distributions as dist
from ..ppl import poutine as ppl_poutine
from ..ppl.distributions import kl_divergence
from ..ppl.infer.mcmc import MCMC
from ..ppl.infer.svi import TraceMeanField_ELBO, Trace_ELBO
from ..ppl.params import get_param_store
from .likelihoods import Likelihood
from .priors import DictPrior, Prior

__all__ = ["PytorchBNN", "VariationalBNN", "MCMC_BNN", "GuidedBNN"]

_INSTANCE_COUNTER = itertools.count()


def _as_tuple(value) -> Tuple:
    """Normalize network inputs to a tuple of arguments, tensorizing raw arrays."""
    items = tuple(value) if isinstance(value, (tuple, list)) else (value,)
    return tuple(Tensor(item) if isinstance(item, np.ndarray) else item for item in items)


def _as_array(out) -> np.ndarray:
    return out.data if isinstance(out, Tensor) else np.asarray(out)


def _with_sample_axes(args: Tuple, ndim: int) -> Tuple:
    """Inputs shared by every weight draw, given ``ndim`` size-1 leading
    sample axes: every activation then carries the sample axes that
    ``F.vectorized_samples`` declares, also ahead of the first Bayesian layer
    of a partly Bayesian net, where ``Flatten`` counts them."""
    if not ndim:
        return args
    lead = (1,) * ndim
    # a plain view unless the input needs its gradient: no tape node per call
    return tuple(a if not isinstance(a, Tensor)
                 else a.reshape(lead + a.shape) if a.requires_grad
                 else Tensor(a.data.reshape(lead + a.shape)) for a in args)


#: Weight draws per batched predict forward.  The forward holds this many
#: draws' activations at once; at 4, the predict phases of fig1 and fig2 stay
#: below the memory peak their training sets (8 raised fig2's peak RSS from
#: 195 to 209 MB, all 32 at once fig1's from 59.6 to 62.0 MB).
_PREDICT_CHUNK = 4


class _BNN:
    """Probabilistic model over the parameters of a wrapped network."""

    def __init__(self, net: Module, prior: Prior, name: str = "net") -> None:
        self.net = net
        self.prior = prior
        self.name = name
        self.param_dists: "OrderedDict[str, dist.Distribution]" = OrderedDict()
        self._update_prior_dists()

    def _update_prior_dists(self) -> None:
        self.param_dists = self.prior.get_distributions(self.net)

    # ------------------------------------------------------------- bookkeeping
    def bayesian_sites(self) -> Tuple[str, ...]:
        """Names of the parameters that receive a Bayesian treatment."""
        return tuple(self.param_dists)

    def deterministic_parameters(self) -> List[Parameter]:
        """Parameters of the network that stay deterministic (ML-fitted)."""
        bayesian = set(self.param_dists)
        return [p for name, p in self.net.named_parameters()
                if name not in bayesian and getattr(p, "requires_grad", False)]

    def update_prior(self, new_prior: Prior) -> None:
        """Replace the prior over (a subset of) the Bayesian sites.

        This is the variational-continual-learning hook (Listing 6): passing a
        :class:`DictPrior` built from the current posterior turns the learned
        posterior into the prior for the next task.
        """
        new_dists = new_prior.get_distributions(self.net)
        merged = OrderedDict(self.param_dists)
        merged.update(new_dists)
        self.param_dists = merged
        self.prior = DictPrior(merged)

    # ------------------------------------------------------------ model pieces
    @contextlib.contextmanager
    def _substituted_params(self, samples: Dict[str, Tensor]):
        """Temporarily replace network parameters with sampled tensors."""
        originals: Dict[str, Tensor] = {}
        try:
            for name, value in samples.items():
                originals[name] = self.net.get_parameter(name)
                self.net.set_parameter(name, value)
            yield
        finally:
            for name, original in originals.items():
                self.net.set_parameter(name, original)

    def sample_parameters(self) -> "OrderedDict[str, Tensor]":
        """Draw every Bayesian parameter from its (prior) sample site."""
        return OrderedDict((name, ppl.sample(name, d)) for name, d in self.param_dists.items())

    def net_model(self, *args, **kwargs):
        """Forward pass with parameters drawn from their sample sites.

        Inside a vectorized replay (the particle-stacked ELBO) the inputs are
        shared by every particle and take size-1 sample axes.
        """
        samples = self.sample_parameters()
        args = _with_sample_axes(args, nn_F.sample_ndim())
        with self._substituted_params(samples):
            return self.net(*args, **kwargs)

    def prior_forward(self, *args, **kwargs):
        """Forward pass with a fresh sample from the prior (no guide)."""
        return self.net_model(*args, **kwargs)


class GuidedBNN(_BNN):
    """A BNN together with an inference procedure ("guide") over its weights."""

    def __init__(self, net: Module, prior: Prior, net_guide_builder: Optional[Callable] = None,
                 name: str = "net") -> None:
        super().__init__(net, prior, name=name)
        self._instance_id = next(_INSTANCE_COUNTER)
        self.net_guide = None
        if net_guide_builder is not None:
            self.net_guide = net_guide_builder(self.net_model)
            if hasattr(self.net_guide, "prefix"):
                self.net_guide.prefix = f"{self.name}_guide_{self._instance_id}"

    def guide_parameters(self) -> List[Parameter]:
        """Unconstrained variational parameters of the net guide (trainable only)."""
        if self.net_guide is None or not hasattr(self.net_guide, "prefix"):
            return []
        prefix = f"{self.net_guide.prefix}."
        store = get_param_store()
        return [p for name, p in store.named_parameters()
                if name.startswith(prefix) and p.requires_grad]

    def guided_forward(self, *args, guide_trace: Optional[ppl_poutine.Trace] = None, **kwargs):
        """Forward pass using a posterior sample from the guide."""
        if guide_trace is None:
            guide_trace = ppl_poutine.trace(self.net_guide).get_trace(*args, **kwargs)
        return ppl_poutine.replay(self.net_model, trace=guide_trace)(*args, **kwargs)

    # ------------------------------------------------------------ serving hooks
    def snapshot_weight_stacks(self, num_samples: int, *args, **kwargs
                               ) -> "OrderedDict[str, np.ndarray]":
        """Posterior weight stacks as plain arrays — the serving-snapshot hook.

        Draws :meth:`posterior_weight_samples` once and materializes every
        stack to a float64 array ``(num_samples, ...)``, detached from any
        graph/parameter state.  ``repro.serve.snapshot`` persists exactly
        these arrays so a server process can load the posterior once and
        answer ``predict`` requests RNG-free thereafter.
        """
        stacks = self.posterior_weight_samples(num_samples, *args, **kwargs)
        return OrderedDict(
            (name, np.array(value.data, dtype=np.float64, copy=True))
            for name, value in stacks.items())

    def snapshot_deterministic_state(self) -> "OrderedDict[str, np.ndarray]":
        """Non-Bayesian network state: ML-fitted parameters and buffers.

        Everything :meth:`snapshot_weight_stacks` does *not* carry — plain
        parameters outside ``param_dists`` plus module buffers (e.g.
        batch-norm running moments) — keyed as ``"param.<name>"`` /
        ``"buffer.<name>"`` for :meth:`load_deterministic_state`.
        """
        bayesian = set(self.param_dists)
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.net.named_parameters():
            if name not in bayesian:
                state[f"param.{name}"] = np.array(param.data, copy=True)
        for name, buffer in self.net.named_buffers():
            state[f"buffer.{name}"] = np.array(buffer, copy=True)
        return state

    def load_deterministic_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`snapshot_deterministic_state` output into the net."""
        for name, value in state.items():
            kind, _, target = name.partition(".")
            if kind == "param":
                self.net.set_parameter(target, Parameter(np.asarray(value)))
            elif kind == "buffer":
                self.net.set_buffer(target, np.asarray(value))
            else:
                raise ValueError(f"unknown deterministic-state entry {name!r} "
                                 "(expected a param./buffer. prefix)")

    def posterior_weight_samples(self, num_samples: int, *args, **kwargs
                                 ) -> "OrderedDict[str, Tensor]":
        """Stacked posterior weight draws ``{site: (num_samples, ...)}``.

        One stack per Bayesian site, RNG-identical to ``num_samples`` looped
        :meth:`guided_forward` calls.  Each of those draws the guide's sites,
        then every Bayesian site the guide leaves uncovered from its prior.
        When the guide covers every site, its ``sample_stacked`` (all
        autoguides provide one) draws the whole stack at once; otherwise the
        draws are made per sample in that same order.  The stacks can be fed
        back through ``vectorized_forward(..., samples=...)``, as
        :meth:`repro.render.VolumetricRenderer.render_posterior` does.
        """
        guide = self.net_guide
        if (hasattr(guide, "sample_stacked")
                and set(self.param_dists) <= set(guide.sample_site_names(*args, **kwargs))):
            stacks = guide.sample_stacked(num_samples, *args, **kwargs)
            return OrderedDict((name, stacks[name]) for name in self.param_dists)
        draws: "OrderedDict[str, list]" = OrderedDict((name, []) for name in self.param_dists)
        for _ in range(num_samples):
            tr = ppl_poutine.trace(guide).get_trace(*args, **kwargs)
            for name, site_dist in self.param_dists.items():
                if name in tr:
                    draws[name].append(tr[name]["value"])
                elif getattr(site_dist, "has_rsample", False):
                    draws[name].append(site_dist.rsample())
                else:
                    draws[name].append(site_dist.sample())
        return OrderedDict((name, nn_stack(values)) for name, values in draws.items())

    def _forward_stacks(self, args: Tuple, samples: Dict[str, Tensor], **kwargs):
        """The network forward with every Bayesian site set to its weight stack."""
        missing = [name for name in self.param_dists if name not in samples]
        if missing:
            raise ValueError(f"samples has no weight stack for the Bayesian site(s) "
                             f"{missing}; draw them with posterior_weight_samples")
        with self._substituted_params(samples), nn_F.vectorized_samples(1):
            return self.net(*args, **kwargs)

    def vectorized_forward(self, *args, num_samples: int = 1,
                           samples: Optional[Dict[str, Tensor]] = None, **kwargs):
        """Forward pass carrying ``num_samples`` posterior weight samples at once.

        The :meth:`posterior_weight_samples` stacks are substituted into the
        network, and one batched forward pass (leading-sample-dimension
        execution, see ``repro.nn``) returns ``(num_samples, N, ...)``,
        RNG-identical to ``num_samples`` calls of :meth:`guided_forward`.
        Refuses to run while an ``nn`` effect handler is active.

        ``samples`` optionally supplies pre-drawn stacks for every Bayesian
        site, e.g. when the caller pairs each draw with its own slice of the
        input batch, as the batched renderer and grouped prediction do.  An
        input shared by every draw broadcasts against the stacks; it needs a
        size-1 sample axis only when ``Flatten`` runs ahead of the first
        Bayesian layer, which :meth:`predict` gives it.
        """
        nn_F.refuse_effect_handlers("vectorized_forward")
        if samples is None:
            samples = self.posterior_weight_samples(num_samples, *args, **kwargs)
        elif num_samples != 1:
            raise ValueError(
                "pass either num_samples or pre-drawn samples, not both: the "
                "sample count is determined by the stacks' leading axis")
        return self._forward_stacks(args, samples, **kwargs)


class PytorchBNN(GuidedBNN):
    """Drop-in variational replacement for a deterministic ``nn.Module``.

    ``forward`` returns predictions made with a single Monte Carlo sample
    from the variational posterior and refreshes ``cached_kl_loss`` (the KL
    divergence of the approximate posterior from the prior) as a side effect,
    so a custom loss can simply add it as a regularizer (paper Listing 5).
    """

    def __init__(self, net: Module, prior: Prior, net_guide_builder: Callable,
                 name: str = "net", closed_form_kl: bool = True) -> None:
        super().__init__(net, prior, net_guide_builder, name=name)
        self.closed_form_kl = closed_form_kl
        self.cached_kl_loss: Optional[Tensor] = None

    def _kl(self, guide_trace: ppl_poutine.Trace) -> Tensor:
        total: Optional[Tensor] = None
        for site_name, prior_dist in self.param_dists.items():
            if site_name not in guide_trace:
                continue
            site = guide_trace[site_name]
            if self.closed_form_kl:
                try:
                    kl = kl_divergence(site["fn"], prior_dist).sum()
                except NotImplementedError:
                    kl = (site["fn"].log_prob(site["value"]).sum()
                          - prior_dist.log_prob(site["value"]).sum())
            else:
                kl = (site["fn"].log_prob(site["value"]).sum()
                      - prior_dist.log_prob(site["value"]).sum())
            total = kl if total is None else total + kl
        return total if total is not None else Tensor(0.0)

    def forward(self, *args, **kwargs):
        guide_trace = ppl_poutine.trace(self.net_guide).get_trace(*args, **kwargs)
        self.cached_kl_loss = self._kl(guide_trace)
        return ppl_poutine.replay(self.net_model, trace=guide_trace)(*args, **kwargs)

    __call__ = forward

    def pytorch_parameters(self, input_data) -> List[Parameter]:
        """All trainable parameters, for use with a ``repro.nn`` optimizer.

        Because guide parameters are created lazily, a batch of data is
        required to trace the network once and instantiate them — exactly the
        behaviour the paper describes for TyXe's ``pytorch_parameters``.

        The tracing forward draws from the prior (guide prototype) and the
        freshly built guide as a side effect; the global RNG state is saved
        and restored around it so that instantiating the parameters does not
        shift the sampling stream the subsequent training loop consumes.
        """
        args = _as_tuple(input_data)
        rng = ppl.get_rng()
        rng_state = rng.bit_generator.state
        try:
            self.forward(*args)
        finally:
            rng.bit_generator.state = rng_state
        return self.guide_parameters() + self.deterministic_parameters()


class _SupervisedBNN(GuidedBNN):
    """BNN + likelihood: defines the full generative model and the predict API."""

    def __init__(self, net: Module, prior: Prior, likelihood: Likelihood,
                 net_guide_builder: Optional[Callable] = None, name: str = "net") -> None:
        super().__init__(net, prior, net_guide_builder, name=name)
        self.likelihood = likelihood

    def model(self, input_data, obs=None):
        """The generative model: sample weights, forward, observe through the likelihood."""
        predictions = self.net_model(*_as_tuple(input_data))
        self.likelihood(predictions, obs)
        return predictions

    def predict(self, input_data, num_predictions: int = 1, aggregate: bool = True):
        """Posterior-predictive samples (aggregated by default, per the paper).

        Draws the ``num_predictions`` weight samples once with
        :meth:`posterior_weight_samples` and runs them through batched
        forwards over a leading sample axis (see :meth:`_predict_stacked`),
        RNG-identical to one :meth:`guided_forward` per sample.

        While an ``nn`` effect handler is active (local reparameterization,
        flipout, MC dropout) it runs one :meth:`guided_forward` per sample
        instead: those handlers draw fresh noise on every pass, which a
        batched forward cannot reproduce.
        """
        args = _as_tuple(input_data)
        with no_grad():
            if nn_F.active_effect_handlers():
                stacked = np.stack([_as_array(self.guided_forward(*args))
                                    for _ in range(num_predictions)])
            else:
                samples = self.posterior_weight_samples(num_predictions, *args)
                stacked = self._predict_stacked(args, samples, num_predictions,
                                                chunk=_PREDICT_CHUNK)
        stacked = Tensor(stacked)
        return self.likelihood.aggregate_predictions(stacked) if aggregate else stacked

    def _predict_stacked(self, args: Tuple, samples: Dict[str, Tensor], num_samples: int,
                         chunk: Optional[int] = None) -> np.ndarray:
        """``(num_samples, N, ...)`` predictions of the weight stacks ``samples``
        on inputs shared by every draw, ``chunk`` draws per forward (default
        all)."""
        nn_F.refuse_effect_handlers("batched prediction")
        args = _with_sample_axes(args, 1)
        chunk = chunk or num_samples
        parts = []
        for start in range(0, num_samples, chunk):
            stop = min(start + chunk, num_samples)
            part = samples if stop - start == num_samples else OrderedDict(
                (name, Tensor(value.data[start:stop])) for name, value in samples.items())
            out = _as_array(self._forward_stacks(args, part))
            if out.shape[0] != stop - start:
                # a net whose output no draw reaches keeps the size-1 axis
                out = np.broadcast_to(out, (stop - start,) + out.shape[1:])
            parts.append(out)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def predict_grouped(self, input_groups, num_predictions: int = 1, aggregate: bool = True):
        """Posterior-predictive samples for ``G`` stacked input groups at once.

        ``input_groups`` is a ``(G, N, ...)`` stack of per-group input batches
        (e.g. one test set per continual-learning task).  Each group gets its
        own ``num_predictions`` fresh weight draws, drawn group-major, so the
        result is RNG-identical to calling ``predict(group, num_predictions)``
        once per group in order, but the network runs a single batched
        forward pass over the ``G * num_predictions`` leading sample axis.
        Refuses to run while an ``nn`` effect handler is active.

        Returns ``(G, N, ...)`` aggregated predictions, or the raw
        ``(G, num_predictions, N, ...)`` stack with ``aggregate=False``.
        """
        data = np.asarray(input_groups.data if isinstance(input_groups, Tensor)
                          else input_groups)
        if data.ndim < 2:
            raise ValueError("input_groups must be a (G, N, ...) stack of input batches")
        num_groups = data.shape[0]
        nn_F.refuse_effect_handlers("predict_grouped")
        with no_grad():
            # sample_stacked draws iteration-major, so one stack of G*P draws
            # consumes the RNG stream exactly like G sequential stacks of P
            samples = self.posterior_weight_samples(num_groups * num_predictions,
                                                    Tensor(data[0]))
            repeated = Tensor(np.repeat(data, num_predictions, axis=0))  # (G*P, N, ...)
            raw = _as_array(self.vectorized_forward(repeated, samples=samples))
            stacked = raw.reshape((num_groups, num_predictions) + raw.shape[1:])
        if not aggregate:
            return Tensor(stacked)
        aggregated = [self.likelihood.aggregate_predictions(Tensor(group)).data
                      for group in stacked]
        return Tensor(np.stack(aggregated))

    def predict_with_samples(self, input_data, samples: Dict[str, Tensor],
                             aggregate: bool = True):
        """Posterior-predictive output from pre-drawn weight stacks, RNG-free.

        The serving hot path: ``samples`` is a ``{site: (S, ...)}`` stack (a
        loaded snapshot, or fresh :meth:`posterior_weight_samples` output)
        covering every Bayesian site, so one batched forward
        (:meth:`_predict_stacked`) computes all ``S`` per-sample predictions
        without consuming any randomness — the same stacks always produce
        byte-identical outputs.  Returns the likelihood-aggregated prediction,
        or the raw ``(S, N, ...)`` stack with ``aggregate=False``.
        """
        num_samples = next(iter(samples.values())).shape[0]
        with no_grad():
            stacked = Tensor(self._predict_stacked(_as_tuple(input_data), samples, num_samples))
        return self.likelihood.aggregate_predictions(stacked) if aggregate else stacked

    def evaluate(self, input_data, targets, num_predictions: int = 1,
                 reduction: str = "mean") -> Tuple[float, float]:
        """Return ``(log_likelihood, error)`` of the aggregated predictions."""
        aggregated = self.predict(input_data, num_predictions=num_predictions, aggregate=True)
        log_likelihood = self.likelihood.log_likelihood(aggregated, targets, reduction=reduction)
        error = self.likelihood.error(aggregated, targets, reduction=reduction)
        return log_likelihood, error


class VariationalBNN(_SupervisedBNN):
    """Variational BNN with a scikit-learn-style ``fit`` (paper Listings 1-3).

    ``net_guide_builder`` is a callable mapping a model to a guide, e.g.
    ``tyxe.guides.AutoNormal`` or ``functools.partial(AutoNormal,
    init_scale=1e-4, ...)``.  ``likelihood_guide_builder`` optionally builds a
    guide over latent variables of the likelihood (e.g. an unknown Gaussian
    noise scale).
    """

    def __init__(self, net: Module, prior: Prior, likelihood: Likelihood,
                 net_guide_builder: Callable, likelihood_guide_builder: Optional[Callable] = None,
                 name: str = "net") -> None:
        super().__init__(net, prior, likelihood, net_guide_builder, name=name)
        self.likelihood_guide = None
        if likelihood_guide_builder is not None:
            blocked_model = ppl_poutine.block(self.model, expose=self._likelihood_latent_sites())
            self.likelihood_guide = likelihood_guide_builder(blocked_model)
            if hasattr(self.likelihood_guide, "prefix"):
                self.likelihood_guide.prefix = f"{self.name}_lik_guide_{self._instance_id}"

    def _likelihood_latent_sites(self) -> List[str]:
        scale_site = f"{self.likelihood.name}.scale"
        return [scale_site]

    def guide(self, input_data, obs=None):
        """Joint guide over network weights and likelihood latents."""
        result = self.net_guide(*_as_tuple(input_data))
        if self.likelihood_guide is not None:
            self.likelihood_guide(input_data, obs)
        return result

    def likelihood_parameters(self) -> List[Parameter]:
        if self.likelihood_guide is None or not hasattr(self.likelihood_guide, "prefix"):
            return []
        prefix = f"{self.likelihood_guide.prefix}."
        store = get_param_store()
        return [p for name, p in store.named_parameters()
                if name.startswith(prefix) and p.requires_grad]

    def fit(self, data_loader: Iterable, optim, num_epochs: int,
            callback: Optional[Callable] = None, num_particles: int = 1,
            closed_form_kl: bool = True, vectorize_particles: bool = False) -> "VariationalBNN":
        """Run stochastic variational inference over ``data_loader``.

        ``data_loader`` yields length-two tuples ``(inputs, targets)`` where
        ``inputs`` may itself be a tuple of arguments to the network.
        ``callback(bnn, epoch, avg_elbo_loss)`` is invoked after every epoch
        and may return ``True`` to stop training early.

        ``vectorize_particles=True`` evaluates all ``num_particles`` ELBO
        particles through one batched model execution (leading-sample-
        dimension mode) instead of a Python-level loop; see
        :class:`repro.ppl.infer.ELBO`.
        """
        elbo_cls = TraceMeanField_ELBO if closed_form_kl else Trace_ELBO
        elbo = elbo_cls(num_particles=num_particles, vectorize_particles=vectorize_particles)
        for epoch in range(num_epochs):
            total_loss = 0.0
            num_batches = 0
            for input_data, targets in iter(data_loader):
                loss = elbo.differentiable_loss(self.model, self.guide, input_data, targets)
                params = (self.guide_parameters() + self.likelihood_parameters()
                          + self.deterministic_parameters())
                for p in params:
                    p.grad = None
                loss.backward()
                params_with_grad = [p for p in params if p.grad is not None]
                if params_with_grad:
                    optim(params_with_grad)
                for p in params_with_grad:
                    p.grad = None
                total_loss += float(loss.item())
                num_batches += 1
            avg_loss = total_loss / max(num_batches, 1)
            if callback is not None and callback(self, epoch, avg_loss):
                break
        return self


class MCMC_BNN(_SupervisedBNN):
    """BNN whose posterior is sampled with full-batch MCMC (HMC or NUTS).

    ``kernel_builder`` maps the model to a kernel, e.g. ``repro.ppl.infer.HMC``
    or ``functools.partial(NUTS, step_size=1e-3)`` — the "guide" argument of
    the paper's Listing 1 footnote.
    """

    def __init__(self, net: Module, prior: Prior, likelihood: Likelihood,
                 kernel_builder: Callable, name: str = "net") -> None:
        super().__init__(net, prior, likelihood, net_guide_builder=None, name=name)
        self.kernel_builder = kernel_builder
        self.kernel = None
        self._mcmc: Optional[MCMC] = None
        self._weight_samples: Optional[Dict[str, np.ndarray]] = None

    def fit(self, data: Union[Iterable, Tuple], num_samples: int,
            warmup_steps: int = 100, **mcmc_kwargs) -> "MCMC_BNN":
        """Run MCMC on the full dataset.

        ``data`` is either an ``(inputs, targets)`` tuple or an iterable of
        such tuples (e.g. a DataLoader), in which case all batches are
        concatenated into a single full-batch dataset first.
        """
        input_data, targets = self._assemble_full_batch(data)
        self.kernel = self.kernel_builder(self.model)
        self._mcmc = MCMC(self.kernel, num_samples=num_samples, warmup_steps=warmup_steps,
                          **mcmc_kwargs)
        self._mcmc.run(input_data, targets)
        self._weight_samples = self._mcmc.get_samples()
        return self

    @staticmethod
    def _assemble_full_batch(data) -> Tuple:
        if isinstance(data, tuple) and len(data) == 2 and not isinstance(data[0], tuple):
            return data
        batches = list(iter(data))
        if len(batches) == 1:
            return batches[0]
        inputs = [b[0] for b in batches]
        targets = [b[1] for b in batches]
        stacked_inputs = Tensor(np.concatenate([np.asarray(i.data if isinstance(i, Tensor) else i) for i in inputs]))
        stacked_targets = Tensor(np.concatenate([np.asarray(t.data if isinstance(t, Tensor) else t) for t in targets]))
        return stacked_inputs, stacked_targets

    @property
    def num_posterior_samples(self) -> int:
        if self._weight_samples is None:
            return 0
        first = next(iter(self._weight_samples.values()))
        return first.shape[0]

    def posterior_samples(self) -> Dict[str, np.ndarray]:
        if self._weight_samples is None:
            raise RuntimeError("call fit() before accessing posterior samples")
        return self._weight_samples

    def posterior_weight_samples(self, num_samples: int, *args, **kwargs):
        """Not supported: MCMC posteriors are stored sample chains, not a guide."""
        raise NotImplementedError(
            "posterior_weight_samples requires a guide-based BNN; MCMC "
            "posteriors are fixed sample chains — use predict(), which "
            "batches the stored samples directly. "
            "The serving layer (repro.serve snapshots) has the same "
            "guide-based requirement: refit with VariationalBNN (or another "
            "GuidedBNN) to snapshot and serve this model")

    def predict_grouped(self, input_groups, num_predictions: int = 1, aggregate: bool = True):
        """Not supported: MCMC posteriors are stored sample chains, not a guide.

        Grouped prediction draws fresh guide samples per group; for an MCMC
        posterior every group would reuse the same deterministic sample
        indices, so simply call ``predict(group, ...)`` per group: it
        batches the stored samples already.
        """
        raise NotImplementedError(
            "predict_grouped requires a guide-based BNN; use per-group "
            "predict(...) with MCMC posteriors. The serving "
            "layer (repro.serve) likewise refuses MCMC-backed models: "
            "snapshots need guide-drawn weight stacks")

    def guided_forward(self, *args, sample_index: Optional[int] = None, **kwargs):
        """Forward pass with one stored posterior sample of the weights."""
        samples = self.posterior_samples()
        if sample_index is None:
            sample_index = int(ppl.get_rng().integers(self.num_posterior_samples))
        values = {name: Tensor(samples[name][sample_index]) for name in self.param_dists}
        with self._substituted_params(values):
            return self.net(*args, **kwargs)

    @staticmethod
    def _prediction_indices(total: int, num_predictions: int) -> np.ndarray:
        """Evenly spaced posterior-sample indices, newest-biased for ``n=1``.

        A single prediction uses the *final* (best-mixed) sample; the old
        ``linspace(0, total-1, 1)`` behaviour silently returned index 0, the
        least-converged draw of the whole chain.
        """
        if num_predictions == 1:
            return np.array([total - 1], dtype=int)
        return np.linspace(0, total - 1, num_predictions).astype(int)

    def predict(self, input_data, num_predictions: int = 1, aggregate: bool = True):
        """Posterior-predictive estimates using evenly spaced posterior samples.

        The selected stored samples run through batched forwards over a
        leading sample axis, as in :meth:`_SupervisedBNN.predict`; no RNG is
        involved.  Refuses to run while an ``nn`` effect handler is active.
        """
        total = self.num_posterior_samples
        if total == 0:
            raise RuntimeError("call fit() before predict()")
        num_predictions = min(num_predictions, total)
        indices = self._prediction_indices(total, num_predictions)
        samples = self.posterior_samples()
        values = OrderedDict((name, Tensor(samples[name][indices])) for name in self.param_dists)
        args = _as_tuple(input_data)
        with no_grad():
            stacked = Tensor(self._predict_stacked(args, values, num_predictions,
                                                   chunk=_PREDICT_CHUNK))
        return self.likelihood.aggregate_predictions(stacked) if aggregate else stacked
