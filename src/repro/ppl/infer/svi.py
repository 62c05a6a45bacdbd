"""Stochastic variational inference: ELBO estimators and the SVI driver.

``Trace_ELBO`` estimates the evidence lower bound with reparameterized Monte
Carlo samples of the guide; ``TraceMeanField_ELBO`` replaces the latent-site
entropy/cross-entropy terms with analytic KL divergences where available
(this is what gives TyXe closed-form KLs for its factorized-Gaussian guide).

Both estimators accept ``vectorize_particles=True``: instead of running one
full model execution per particle, the guide samples are stacked along a new
leading particle dimension (see :func:`repro.ppl.poutine.stack_traces`) and
the model is replayed *once*, carrying all ``num_particles`` weight samples
through a single batched forward pass of the network.  The guide is still
sampled particle-by-particle, which keeps the estimator RNG-identical to the
looped path while removing the ``num_particles``-fold model execution — the
interpreter-bound hot loop.

The guide does not have to cover every latent site of the model.  The replay
runs inside a *sized* ``repro.nn.vectorized_samples`` context, so a latent
site absent from the stacked guide trace draws ``num_particles`` independent
prior samples stacked along the particle axis (one per particle, exactly as
the looped estimator would draw them) instead of a single shared value; its
log-density then sums over the particle axis like every other Monte-Carlo
term.  The batched draw consumes the RNG stream like ``num_particles``
sequential per-particle draws of that site, but the coarse order differs
from the looped path (all guide draws first, then the prior draws), so
partially-guided losses match the looped estimator in distribution — and
bit-for-bit whenever the guide itself consumes no randomness (e.g.
``AutoDelta``) or ``num_particles == 1``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ...nn.functional import vectorized_samples
from ...nn.tensor import Tensor
from ..distributions import Delta as _Delta, kl_divergence
from ..params import get_param_store
from ..poutine import replay, stack_traces, trace
from ..poutine.trace import Trace

__all__ = ["ELBO", "Trace_ELBO", "TraceMeanField_ELBO", "SVI"]


class ELBO:
    """Base class for evidence-lower-bound estimators.

    ``vectorize_particles`` enables the leading-particle-dimension execution
    mode described in the module docstring.  It requires a network whose
    layers broadcast over leading weight dimensions (all ``repro.nn`` linear,
    conv and norm layers do).  Latent sites the guide does not cover are
    sampled from their priors with one independent draw per particle, stacked
    on the particle axis (see the module docstring), so partially-guided
    models vectorize too.
    """

    def __init__(self, num_particles: int = 1, vectorize_particles: bool = False) -> None:
        if num_particles < 1:
            raise ValueError("num_particles must be >= 1")
        self.num_particles = num_particles
        self.vectorize_particles = vectorize_particles

    def _get_traces(self, model: Callable, guide: Callable, *args, **kwargs):
        guide_trace = trace(guide).get_trace(*args, **kwargs)
        model_trace = trace(replay(model, trace=guide_trace)).get_trace(*args, **kwargs)
        return model_trace, guide_trace

    def _get_vectorized_traces(self, model: Callable, guide: Callable, *args, **kwargs):
        """Stack ``num_particles`` guide traces and replay the model once.

        The replay runs inside a sized ``vectorized_samples`` context: latent
        sites the stacked guide trace does not cover draw ``num_particles``
        stacked per-particle prior samples instead of one shared value, so
        their log-densities sum over the particle axis exactly like the
        guide-covered sites'.
        """
        guide_traces = [trace(guide).get_trace(*args, **kwargs)
                        for _ in range(self.num_particles)]
        guide_trace = stack_traces(guide_traces)
        with vectorized_samples(1, sizes=(self.num_particles,)):
            model_trace = trace(replay(model, trace=guide_trace)).get_trace(*args, **kwargs)
        return model_trace, guide_trace

    def differentiable_loss(self, model: Callable, guide: Callable, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def loss(self, model: Callable, guide: Callable, *args, **kwargs) -> float:
        return float(self.differentiable_loss(model, guide, *args, **kwargs).item())


class Trace_ELBO(ELBO):
    """Monte Carlo ELBO: ``E_q[log p(x, z) - log q(z)]`` with reparameterized samples."""

    def differentiable_loss(self, model: Callable, guide: Callable, *args, **kwargs) -> Tensor:
        if self.vectorize_particles:
            # one batched execution: every log_prob_sum already sums over the
            # particle dimension, so a single division by K yields the average
            model_trace, guide_trace = self._get_vectorized_traces(model, guide, *args, **kwargs)
            elbo = model_trace.log_prob_sum() - guide_trace.log_prob_sum()
            return -elbo / float(self.num_particles)
        total: Optional[Tensor] = None
        for _ in range(self.num_particles):
            model_trace, guide_trace = self._get_traces(model, guide, *args, **kwargs)
            elbo = model_trace.log_prob_sum() - guide_trace.log_prob_sum()
            total = elbo if total is None else total + elbo
        return -total / float(self.num_particles)


class TraceMeanField_ELBO(ELBO):
    """ELBO using analytic KL terms for latent sites where they are available.

    ``ELBO = E_q[log p(x | z)] - sum_sites KL(q(z_site) || p(z_site))``
    Falls back to the Monte Carlo estimate (log p - log q at the sample) for
    sites without a registered analytic KL.
    """

    def differentiable_loss(self, model: Callable, guide: Callable, *args, **kwargs) -> Tensor:
        if self.vectorize_particles:
            # Monte-Carlo terms sum over the stacked particle dimension and
            # are rescaled by 1/K; the analytic KL terms are sample-independent
            # and appear exactly once, so they enter with full weight.
            model_trace, guide_trace = self._get_vectorized_traces(model, guide, *args, **kwargs)
            return -self._particle_elbo(model_trace, guide_trace,
                                        mc_weight=1.0 / float(self.num_particles))
        total: Optional[Tensor] = None
        for _ in range(self.num_particles):
            model_trace, guide_trace = self._get_traces(model, guide, *args, **kwargs)
            particle = self._particle_elbo(model_trace, guide_trace)
            total = particle if total is None else total + particle
        return -total / float(self.num_particles)

    def _particle_elbo(self, model_trace: Trace, guide_trace: Trace,
                       mc_weight: float = 1.0) -> Tensor:
        """One particle's ELBO from its model and guide traces.

        Asks each trace only for the log-densities it adds in (via
        :meth:`Trace.site_log_prob_sum`): observed sites, latent sites with
        no guide site, latent pairs with no registered KL, and guide-only or
        auxiliary guide sites.  A latent pair covered by an analytic KL
        builds no ``log_prob`` graph.  The loss and its gradients are
        bit-identical to calling ``compute_log_prob()`` on both traces
        first: the log-densities skipped never reach the loss.
        """
        elbo: Optional[Tensor] = None

        def _add(term: Tensor, is_mc: bool = True):
            nonlocal elbo
            if is_mc and mc_weight != 1.0:
                term = term * mc_weight
            elbo = term if elbo is None else elbo + term

        # observed sites: expected log likelihood
        for name in model_trace.observation_nodes():
            _add(model_trace.site_log_prob_sum(name))
        # latent sites: -KL(q || p), analytic where possible
        for name in model_trace.stochastic_nodes():
            model_site = model_trace[name]
            if name not in guide_trace:
                # latent with no guide site (e.g. sampled from the prior)
                _add(model_trace.site_log_prob_sum(name))
                continue
            guide_site = guide_trace[name]
            if guide_site.get("infer", {}).get("is_auxiliary"):
                continue
            scale = model_site.get("scale", 1.0)
            try:
                kl = kl_divergence(guide_site["fn"], model_site["fn"]).sum()
                # Delta guide fns are rebuilt around the stacked per-particle
                # values by stack_traces, so their "analytic" KL sums over the
                # particle axis and needs the Monte-Carlo 1/K weight; genuine
                # analytic KLs (e.g. Normal/Normal) are sample-independent.
                kl_is_stacked = isinstance(guide_site["fn"], _Delta)
                _add(-kl * scale if scale != 1.0 else -kl, is_mc=kl_is_stacked)
            except NotImplementedError:
                _add(model_trace.site_log_prob_sum(name)
                     - guide_trace.site_log_prob_sum(name))
        # auxiliary guide sites (e.g. the joint latent of a low-rank guide)
        for name in guide_trace.stochastic_nodes():
            guide_site = guide_trace[name]
            if name not in model_trace or guide_site.get("infer", {}).get("is_auxiliary"):
                _add(-guide_trace.site_log_prob_sum(name))
        return elbo if elbo is not None else Tensor(0.0)


class SVI:
    """Stochastic variational inference driver (``pyro.infer.SVI`` equivalent)."""

    def __init__(self, model: Callable, guide: Callable, optim, loss: Optional[ELBO] = None) -> None:
        self.model = model
        self.guide = guide
        self.optim = optim
        self.loss = loss if loss is not None else Trace_ELBO()

    def step(self, *args, **kwargs) -> float:
        """One gradient step on the negative ELBO; returns the loss value."""
        store = get_param_store()
        loss = self.loss.differentiable_loss(self.model, self.guide, *args, **kwargs)
        for p in store.values():
            p.grad = None
        loss.backward()
        params_with_grad = [p for _, p in store.named_parameters() if p.grad is not None]
        if params_with_grad:
            self.optim(params_with_grad)
        for p in store.values():
            p.grad = None
        return float(loss.item())

    def evaluate_loss(self, *args, **kwargs) -> float:
        """Compute the loss without taking a gradient step."""
        return self.loss.loss(self.model, self.guide, *args, **kwargs)
