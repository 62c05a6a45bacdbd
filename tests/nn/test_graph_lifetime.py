"""Autograd graph lifetime: the tape is acyclic and retained across passes.

Every ``_backward`` closure captures only its parents and plain arrays, never
its own output tensor, so a graph is freed by reference counting the moment
its root is dropped.  With the cyclic garbage collector disabled, building a
graph (with or without ``backward``) and dropping it must leave nothing for
``gc.collect()`` to find.
"""

import gc

import numpy as np
import pytest

import repro.core as tyxe
from repro import nn, ppl
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.ppl import distributions as dist
from repro.ppl.infer import SVI, TraceMeanField_ELBO


def _cyclic_garbage(build):
    """Objects the cyclic GC reclaims after ``build()``'s result is dropped."""
    build()  # warm-up: parameter init and first-call caches stay alive
    gc.collect()
    gc.disable()
    try:
        result = build()
        del result
        return gc.collect()
    finally:
        gc.enable()


def _conv_net(rng):
    return nn.Sequential(
        nn.Conv2d(2, 4, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        nn.Conv2d(4, 4, 3, padding=1, rng=rng), nn.Tanh(), nn.AvgPool2d(2),
        nn.Flatten(), nn.Linear(4 * 2 * 2, 3, rng=rng))


class TestAcyclicTape:
    def test_conv_linear_cross_entropy_step(self):
        rng = np.random.default_rng(0)
        net = _conv_net(rng)
        x = Tensor(rng.standard_normal((5, 2, 8, 8)))
        y = np.array([0, 1, 2, 1, 0])

        def step():
            loss = F.cross_entropy(net(x), y)
            loss.backward()
            return loss

        assert _cyclic_garbage(step) == 0

    def test_grad_mode_forward_without_backward(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(0.5, 1.5, (4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        factor = Tensor(rng.standard_normal((3, 2)), requires_grad=True)

        def forward():
            h = (a * b + a / b - b) ** 2
            h = h.exp() + h.sqrt() + h.tanh() + h.sigmoid() + h.log1p()
            h = h.softplus() + h.erf() + h.sin() + h.cos() + h.abs().log()
            h = h.clamp(-5.0, 5.0).relu().clone().contiguous()
            h = h.cumsum(axis=1, exclusive=True) + h.max(axis=0) + h.mean()
            h = nn.stack([h, -h]).sum(axis=0) + nn.cat([h, h])[:4]
            h = nn.where(h.data > 0, h, h.T.T) + b.broadcast_to((4, 3))
            lowrank = dist.LowRankMultivariateNormal(b, factor, a[0].exp())
            return (h @ b).sum() + h.reshape(12).logsumexp(0) \
                + lowrank.log_prob(b.data) + lowrank.entropy()

        assert _cyclic_garbage(forward) == 0

    def test_svi_step_under_local_reparameterization(self):
        ppl.clear_param_store()
        ppl.set_rng_seed(0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 1))
        y = np.cos(x)
        net = nn.Sequential(nn.Linear(1, 8, rng=rng), nn.Tanh(),
                            nn.Linear(8, 1, rng=rng))
        bnn = tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                                  tyxe.likelihoods.HomoskedasticGaussian(8, scale=0.1),
                                  tyxe.guides.AutoNormal)
        svi = SVI(bnn.model, bnn.guide, ppl.optim.Adam({"lr": 1e-2}),
                  TraceMeanField_ELBO())
        with tyxe.poutine.local_reparameterization():
            assert _cyclic_garbage(lambda: svi.step(x, y)) == 0
        ppl.clear_param_store()


class TestRetainedGraph:
    @pytest.fixture
    def graph(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((3 * 3 * 3, 4)), requires_grad=True)
        h = F.max_pool2d(F.conv2d(x, w, padding=1).tanh(), 2)
        h = h.reshape(2, -1) @ v
        # ``h`` feeds three consumers, so interior nodes receive summed grads
        loss = (h.exp() * h.sigmoid()).sum() + (h * h + 1.0).sqrt().sum() + h.mean()
        return loss, (x, w, v)

    def test_second_backward_doubles_every_leaf_gradient(self, graph):
        loss, leaves = graph
        loss.backward()
        single = [leaf.grad.copy() for leaf in leaves]
        loss.backward()
        for leaf, once in zip(leaves, single):
            np.testing.assert_array_equal(leaf.grad, 2.0 * once)

    def test_backward_after_zero_grad_repeats_single_pass(self, graph):
        loss, leaves = graph
        loss.backward()
        single = [leaf.grad.copy() for leaf in leaves]
        for leaf in leaves:
            leaf.zero_grad()
        loss.backward()
        for leaf, once in zip(leaves, single):
            np.testing.assert_array_equal(leaf.grad, once)
