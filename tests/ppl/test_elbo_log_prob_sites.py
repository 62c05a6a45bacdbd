"""``TraceMeanField_ELBO`` computes only the log-densities it adds in.

Latent pairs covered by an analytic KL build no ``log_prob`` graph; observed
sites, model-only latents, pairs without a registered KL and auxiliary guide
sites still do.  The loss and every parameter gradient are byte-equal to
running ``compute_log_prob()`` on both traces first.
"""

import numpy as np
import pytest

from repro import ppl
from repro.nn.tensor import Tensor
from repro.ppl import constraints
from repro.ppl import distributions as dist
from repro.ppl.infer import (SVI, AutoLowRankMultivariateNormal, AutoNormal,
                             TraceMeanField_ELBO)
from repro.ppl.params import get_param_store

_X = np.random.default_rng(1).normal(size=(12, 2))
_Y = _X @ np.array([0.7, -1.2]) + 0.3 + np.random.default_rng(2).normal(0.0, 0.2, 12)


def _predict(x, w, b=None):
    """``x @ w + b``, broadcasting over a leading particle axis of ``w``/``b``."""
    out = (Tensor(x) * w.unsqueeze(-2)).sum(axis=-1)
    return out if b is None else out + b.reshape(b.shape + (1,))


def _mean_field_model(x, y):
    w = ppl.sample("w", dist.Normal(np.zeros(2), np.ones(2)).to_event(1))
    b = ppl.sample("b", dist.Normal(0.0, 1.0))
    with ppl.plate("data", len(x)):
        ppl.sample("obs", dist.Normal(_predict(x, w, b), 0.2), obs=y)


def _model_with_prior_only_latent(x, y):
    w = ppl.sample("w", dist.Normal(np.zeros(2), np.ones(2)).to_event(1))
    u = ppl.sample("u", dist.Normal(0.0, 0.1))
    with ppl.plate("data", len(x)):
        ppl.sample("obs", dist.Normal(_predict(x, w, u), 0.2), obs=y)


def _model_without_kl(x, y):
    w = ppl.sample("w", dist.Uniform(-50.0 * np.ones(2), 50.0 * np.ones(2)).to_event(1))
    with ppl.plate("data", len(x)):
        ppl.sample("obs", dist.Normal(_predict(x, w), 0.2), obs=y)


def _w_only_guide(x, y):
    loc = ppl.param("w_loc", np.zeros(2))
    scale = ppl.param("w_scale", np.full(2, 0.1), constraint=constraints.positive)
    ppl.sample("w", dist.Normal(loc, scale).to_event(1))


GUIDES = {
    "mean-field": (_mean_field_model, lambda: AutoNormal(_mean_field_model, init_scale=0.1)),
    "prior-only-latent": (_model_with_prior_only_latent, lambda: _w_only_guide),
    "no-kl": (_model_without_kl, lambda: _w_only_guide),
    "low-rank": (_mean_field_model,
                 lambda: AutoLowRankMultivariateNormal(_mean_field_model, rank=1)),
}


def _count_log_prob_calls(monkeypatch, cls):
    calls = []
    original = cls.log_prob

    def counted(self, value):
        calls.append(self)
        return original(self, value)

    monkeypatch.setattr(cls, "log_prob", counted)
    return calls


def _loss_calls(case, monkeypatch, cls, **elbo_kwargs):
    model, make_guide = GUIDES[case]
    guide = make_guide()
    guide(_X, _Y)  # set up parameters outside the counted call
    calls = _count_log_prob_calls(monkeypatch, cls)
    TraceMeanField_ELBO(**elbo_kwargs).differentiable_loss(model, guide, _X, _Y)
    return calls


class TestLogProbSites:
    @pytest.mark.parametrize("elbo_kwargs, expected", [
        ({}, 1),
        ({"num_particles": 3}, 3),
        ({"num_particles": 3, "vectorize_particles": True}, 1),
    ])
    def test_mean_field_scores_only_the_observed_site(self, monkeypatch, elbo_kwargs, expected):
        calls = _loss_calls("mean-field", monkeypatch, dist.Normal, **elbo_kwargs)
        assert len(calls) == expected
        assert all(c.scale.data.shape == () and float(c.scale.data) == 0.2 for c in calls)

    def test_model_only_latent_is_scored(self, monkeypatch):
        calls = _loss_calls("prior-only-latent", monkeypatch, dist.Normal)
        assert sorted(float(c.scale.data.reshape(-1)[0]) for c in calls) == [0.1, 0.2]

    def test_pair_without_kl_falls_back_to_both_log_probs(self, monkeypatch):
        uniform_calls = _count_log_prob_calls(monkeypatch, dist.Uniform)
        normal_calls = _loss_calls("no-kl", monkeypatch, dist.Normal)
        assert len(uniform_calls) == 1
        assert len(normal_calls) == 2  # the observed site and the guide's w

    def test_auxiliary_site_is_scored(self, monkeypatch):
        delta_calls = _count_log_prob_calls(monkeypatch, dist.Delta)
        calls = _loss_calls("low-rank", monkeypatch, dist.LowRankMultivariateNormal)
        assert len(calls) == 1
        assert delta_calls == []  # Delta sites go through the Delta-KL instead


class _ComputeAllLogProbsELBO(TraceMeanField_ELBO):
    """The estimator as it was: every log-density computed up front."""

    def _particle_elbo(self, model_trace, guide_trace, mc_weight=1.0):
        model_trace.compute_log_prob()
        guide_trace.compute_log_prob()
        return super()._particle_elbo(model_trace, guide_trace, mc_weight)


def _loss_and_grads(case, elbo, steps=3):
    ppl.clear_param_store()
    ppl.set_rng_seed(0)
    model, make_guide = GUIDES[case]
    guide = make_guide()
    svi = SVI(model, guide, ppl.optim.Adam({"lr": 0.05}), elbo)
    for _ in range(steps):
        svi.step(_X, _Y)
    store = get_param_store()
    loss = elbo.differentiable_loss(model, guide, _X, _Y)
    loss.backward()
    grads = [p.grad.copy() for _, p in store.named_parameters()]
    for p in store.values():
        p.grad = None
    return loss.data.copy(), grads


@pytest.mark.parametrize("elbo_kwargs", [{}, {"num_particles": 2},
                                         {"num_particles": 2, "vectorize_particles": True}])
@pytest.mark.parametrize("case", sorted(GUIDES))
def test_loss_and_gradients_match_computing_every_log_prob(case, elbo_kwargs):
    loss_a, grads_a = _loss_and_grads(case, TraceMeanField_ELBO(**elbo_kwargs))
    loss_b, grads_b = _loss_and_grads(case, _ComputeAllLogProbsELBO(**elbo_kwargs))
    assert np.array_equal(loss_a, loss_b)
    assert len(grads_a) == len(grads_b) > 0
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)
