"""Pinning tests for the one-node local-reparameterized ``linear``.

The composite replaces ``mean + sqrt(var + 1e-12) * eps`` built from two
``F._linear_default`` calls.  That decomposed expression is kept here as the
reference; values, input gradients and the RNG stream must match it byte for
byte over every shape ``_linear_default`` takes, every ``requires_grad`` mix,
``no_grad`` and the lazy engine on and off.  The last test runs a short
local-reparameterized fit with all three composites swapped for their
references and compares every parameter byte for byte.
"""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from repro import nn, ppl
import repro.core as tyxe
from repro.core import poutine as bnn_poutine
from repro.nn import functional as F
from repro.nn import lazy
from repro.nn.tensor import Tensor, no_grad
from repro.ppl import distributions as dist
from repro.ppl.rng import get_rng


def _log_prob_reference(value, loc, scale):
    var = scale ** 2
    return -((value - loc) ** 2) / (2.0 * var) - scale.log() - 0.5 * math.log(2.0 * math.pi)


def _kl_reference(p_loc, p_scale, q_loc, q_scale):
    var_ratio = (p_scale / q_scale) ** 2
    t1 = ((p_loc - q_loc) / q_scale) ** 2
    return 0.5 * (var_ratio + t1 - 1.0 - var_ratio.log())


def _lr_reference(x, mu_w, sigma_w, mu_b, sigma_b):
    var_b = sigma_b ** 2 if sigma_b is not None else None
    mean = F._linear_default(x, mu_w, mu_b)
    var = F._linear_default(x ** 2, sigma_w ** 2, var_b)
    std = (var + 1e-12).sqrt()
    eps = Tensor(get_rng().standard_normal(mean.shape))
    return mean + std * eps


# name -> (x, mu_w, sigma_w, mu_b, sigma_b) shapes; None = input absent.
# A mu_b without sigma_b is a Delta (or deterministic) bias.
CASES = {
    "no-bias": [(5, 3), (2, 3), (2, 3), None, None],
    "normal-bias": [(5, 3), (2, 3), (2, 3), (2,), (2,)],
    "delta-bias": [(5, 3), (2, 3), (2, 3), (2,), None],
    "weight-sample-dim": [(5, 3), (4, 2, 3), (4, 2, 3), (4, 2), (4, 2)],
    "weight-sample-dim-delta-bias": [(5, 3), (4, 2, 3), (4, 2, 3), (4, 2), None],
    "shared-scale": [(5, 3), (4, 2, 3), (2, 3), (2,), (4, 2)],
    "input-sample-dim": [(4, 5, 3), (2, 3), (2, 3), (2,), (2,)],
    "both-sample-dims": [(4, 5, 3), (4, 2, 3), (4, 2, 3), (4, 2), (4, 2)],
    "1d-input": [(3,), (2, 3), (2, 3), (2,), (2,)],
    "1d-input-no-bias": [(3,), (2, 3), (2, 3), None, None],
}

_POSITIVE = [False, False, True, False, True]


def _arrays(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [None if shape is None
            else rng.uniform(0.2, 1.5, shape) if pos else rng.standard_normal(shape)
            for shape, pos in zip(shapes, _POSITIVE)]


def _run(fn, arrays, grads, rng_seed=11):
    tensors = [None if a is None else Tensor(a.copy(), requires_grad=g)
               for a, g in zip(arrays, grads)]
    ppl.set_rng_seed(rng_seed)
    out = fn(*tensors)
    value = out.data.copy()
    next_draw = get_rng().standard_normal()
    if out.requires_grad:
        out.backward(np.random.default_rng(5).standard_normal(out.shape))
    return value, next_draw, [None if t is None else t.grad for t in tensors]


def _assert_same(arrays, grads):
    value_a, draw_a, grads_a = _run(bnn_poutine._local_reparameterized_linear, arrays, grads)
    value_b, draw_b, grads_b = _run(_lr_reference, arrays, grads)
    assert np.array_equal(value_a, value_b) and draw_a == draw_b
    for ga, gb in zip(grads_a, grads_b):
        assert (ga is None) == (gb is None)
        if ga is not None:
            assert ga.shape == gb.shape and np.array_equal(ga, gb)


def _grad_mixes(arrays):
    present = [a is not None for a in arrays]
    for mix in itertools.product([False, True], repeat=sum(present)):
        it = iter(mix)
        yield tuple(next(it) if p else False for p in present)


class TestLocalReparameterizedLinearComposite:
    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_decomposed_expression(self, case, lazy_on):
        arrays = _arrays(CASES[case])
        with lazy.lazy_mode(lazy_on):
            for grads in _grad_mixes(arrays):
                _assert_same(arrays, grads)

    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_grad_matches_and_records_no_tape(self, case, lazy_on):
        arrays = _arrays(CASES[case])
        with lazy.lazy_mode(lazy_on), no_grad():
            value_a, draw_a, _ = _run(bnn_poutine._local_reparameterized_linear, arrays,
                                      [True] * 5)
            value_b, draw_b, _ = _run(_lr_reference, arrays, [True] * 5)
        assert np.array_equal(value_a, value_b) and draw_a == draw_b

    def test_one_node(self):
        tensors = [Tensor(a, requires_grad=True) for a in _arrays(CASES["normal-bias"])]
        out = bnn_poutine._local_reparameterized_linear(*tensors)
        assert out._op == "lr_linear" and list(out._prev) == tensors

    def test_input_feeding_another_op_is_bit_identical(self):
        """``x`` gets its two gradients (mean, then variance) in the tape's
        order, after a third from a later consumer of ``x``."""
        arrays = _arrays(CASES["normal-bias"])

        def build(fn):
            def wrapped(x, *params):
                return fn(x, *params).sum(axis=-1) * x.sum(axis=-1)
            return wrapped

        value_a, _, grads_a = _run(build(bnn_poutine._local_reparameterized_linear), arrays,
                                   [True] * 5)
        value_b, _, grads_b = _run(build(_lr_reference), arrays, [True] * 5)
        assert np.array_equal(value_a, value_b)
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)


def _register(messenger, name, value, fn):
    messenger.postprocess_message({"type": "sample", "name": name, "fn": fn,
                                   "value": value, "is_observed": False})


class TestMessengerUsesComposite:
    @pytest.mark.parametrize("bias_kind", ["none", "normal", "delta"])
    def test_messenger_linear_matches_reference(self, bias_kind, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 3))
        arrays = {"w_loc": rng.standard_normal((2, 3)), "w_scale": rng.uniform(0.2, 1, (2, 3)),
                  "b_loc": rng.standard_normal(2), "b_scale": rng.uniform(0.2, 1, 2)}

        def run():
            params = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
            messenger = tyxe.poutine.LocalReparameterizationMessenger()
            ppl.set_rng_seed(4)
            with messenger:
                weight = Tensor(arrays["w_loc"])
                _register(messenger, "w", weight,
                          dist.Normal(params["w_loc"], params["w_scale"]).to_event(2))
                bias = None
                if bias_kind == "normal":
                    bias = Tensor(arrays["b_loc"])
                    _register(messenger, "b", bias,
                              dist.Normal(params["b_loc"], params["b_scale"]).to_event(1))
                elif bias_kind == "delta":
                    bias = params["b_loc"] * 1.0
                    _register(messenger, "b", bias, dist.Delta(bias, event_dim=1))
                out = F.linear(Tensor(x), weight, bias)
            out.backward(np.ones(out.shape))
            return out.data, {k: p.grad for k, p in params.items()}

        value_a, grads_a = run()
        monkeypatch.setattr(bnn_poutine, "_local_reparameterized_linear", _lr_reference)
        value_b, grads_b = run()
        assert np.array_equal(value_a, value_b)
        for key in grads_a:
            assert (grads_a[key] is None) == (grads_b[key] is None)
            if grads_a[key] is not None:
                assert np.array_equal(grads_a[key], grads_b[key])


def _fit_parameters(vectorize):
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-1, -0.5, (20, 1)), rng.uniform(0.5, 1, (20, 1))])
    y = np.cos(4 * x + 0.8) + rng.normal(0, 0.1, x.shape)
    ppl.clear_param_store()
    ppl.set_rng_seed(0)
    net = nn.Sequential(nn.Linear(1, 8, rng=rng), nn.Tanh(), nn.Linear(8, 1, rng=rng))
    bnn = tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                              tyxe.likelihoods.HomoskedasticGaussian(len(x), 0.1),
                              partial(tyxe.guides.AutoNormal, init_scale=1e-2))
    loader = nn.DataLoader(nn.TensorDataset(x, y), batch_size=20, shuffle=True)
    with tyxe.poutine.local_reparameterization():
        bnn.fit(loader, ppl.optim.Adam({"lr": 1e-2}), 3, num_particles=2,
                vectorize_particles=vectorize)
    # guide prefixes are unique per BNN, so compare in store order
    return [p.data.copy() for _, p in ppl.get_param_store().named_parameters()]


@pytest.mark.parametrize("vectorize", [False, True])
def test_local_reparameterized_fit_is_bit_identical_to_decomposed_ops(vectorize, monkeypatch):
    composite = _fit_parameters(vectorize)

    def normal_log_prob(self, value):
        return _log_prob_reference(dist._as_tensor(value), self.loc, self.scale)

    monkeypatch.setattr(dist.Normal, "log_prob", normal_log_prob)
    monkeypatch.setitem(dist._KL_REGISTRY, (dist.Normal, dist.Normal),
                        lambda p, q: _kl_reference(p.loc, p.scale, q.loc, q.scale))
    monkeypatch.setattr(bnn_poutine, "_local_reparameterized_linear", _lr_reference)
    reference = _fit_parameters(vectorize)
    assert len(composite) == len(reference) == 8
    for a, b in zip(composite, reference):
        assert np.array_equal(a, b)
