"""Pinning tests for the one-node local-reparameterized ``conv2d``.

The composite replaces ``mean + sqrt(var + 1e-12) * eps`` built from two
``F._conv2d_default`` calls.  That decomposed expression is kept here as the
reference.  The forward (values and memory layout), the next RNG draw and
the ``mu_w``/``sigma_w``/bias gradients must match it byte for byte.  The
input gradient comes from one ``col2im`` of both paths' column gradients,
not two, and is pinned at ``RTOL``: every element within
``RTOL * max|reference|`` of the reference.

The last test runs a two-epoch, fig2-shaped local-reparameterized fit of a
batch-norm ResNet with both composites (this one and ``F.batch_norm``)
swapped for their references and compares every parameter at ``FIT_RTOL``.
"""

import itertools
import sys
from functools import partial
from pathlib import Path

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

# the batch-norm reference lives with its own pinning tests; test
# directories are not packages, so its directory goes on the path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "nn"))
from test_batch_norm_composite import _batch_norm_reference  # noqa: E402

#: input gradient: max |composite - tape| / max |tape|
RTOL = 1e-13
#: parameters after the two-epoch fit, elementwise relative
FIT_RTOL = 1e-9


def _lr_conv_reference(x, mu_w, sigma_w, mu_b, sigma_b, stride=1, padding=0):
    var_b = sigma_b ** 2 if sigma_b is not None else None
    mean = F._conv2d_default(x, mu_w, mu_b, stride=stride, padding=padding)
    var = F._conv2d_default(x ** 2, sigma_w ** 2, var_b, stride=stride, padding=padding)
    std = (var + 1e-12).sqrt()
    eps = Tensor(get_rng().standard_normal(mean.shape))
    return mean + std * eps


# name -> ((x, mu_w, sigma_w, mu_b, sigma_b) shapes, stride, padding);
# None = input absent, a mu_b without sigma_b is a Delta bias
CASES = {
    "3x3-s1-p1-normal-bias": ([(4, 3, 5, 5), (2, 3, 3, 3), (2, 3, 3, 3), (2,), (2,)], 1, 1),
    "3x3-s1-p0-no-bias": ([(4, 3, 5, 5), (2, 3, 3, 3), (2, 3, 3, 3), None, None], 1, 0),
    "3x3-s2-p1-delta-bias": ([(4, 3, 5, 5), (2, 3, 3, 3), (2, 3, 3, 3), (2,), None], 2, 1),
    "3x3-s2-p0-normal-bias": ([(4, 3, 6, 6), (2, 3, 3, 3), (2, 3, 3, 3), (2,), (2,)], 2, 0),
    "1x1-s1-p0-normal-bias": ([(4, 3, 5, 5), (2, 3, 1, 1), (2, 3, 1, 1), (2,), (2,)], 1, 0),
    "1x1-s2-p0-no-bias": ([(4, 3, 5, 5), (2, 3, 1, 1), (2, 3, 1, 1), None, None], 2, 0),
    "weight-sample-dim": ([(4, 3, 5, 5), (3, 2, 3, 3, 3), (3, 2, 3, 3, 3), (3, 2), (3, 2)],
                          1, 1),
    "input-sample-dim": ([(3, 4, 3, 5, 5), (2, 3, 3, 3), (2, 3, 3, 3), (2,), (2,)], 1, 1),
    "both-sample-dims": ([(3, 4, 3, 5, 5), (3, 2, 3, 3, 3), (3, 2, 3, 3, 3), (3, 2), None],
                         2, 1),
    "shared-scale": ([(4, 3, 5, 5), (3, 2, 3, 3, 3), (2, 3, 3, 3), (2,), (2,)], 1, 1),
}

_POSITIVE = [False, False, True, False, True]


def _arrays(case, seed=0):
    shapes, _, _ = CASES[case]
    rng = np.random.default_rng(seed)
    arrays = [None if shape is None
              else rng.uniform(0.2, 1.5, shape) if pos else rng.standard_normal(shape)
              for shape, pos in zip(shapes, _POSITIVE)]
    # the channels-last memory a conv output has, seen as NCHW
    arrays[0] = np.moveaxis(np.ascontiguousarray(np.moveaxis(arrays[0], -3, -1)), -1, -3)
    return arrays


def _run(fn, arrays, grads, stride, padding, rng_seed=11):
    tensors = [None if a is None else Tensor(a.copy(order="K"), requires_grad=g)
               for a, g in zip(arrays, grads)]
    ppl.set_rng_seed(rng_seed)
    out = fn(*tensors, stride=stride, padding=padding)
    result = {"value": out.data.copy(order="K"), "strides": out.data.strides,
              "next_draw": get_rng().standard_normal()}
    if out.requires_grad:
        out.backward(np.random.default_rng(5).standard_normal(out.shape))
    result["grads"] = [None if t is None else t.grad for t in tensors]
    return result


def _assert_matches(a, b):
    assert np.array_equal(a["value"], b["value"]) and a["strides"] == b["strides"]
    assert a["next_draw"] == b["next_draw"]
    for i, (ga, gb) in enumerate(zip(a["grads"], b["grads"])):
        assert (ga is None) == (gb is None)
        if ga is None:
            continue
        assert ga.shape == gb.shape
        if i == 0:
            assert np.max(np.abs(ga - gb)) <= RTOL * np.max(np.abs(gb))
        else:
            assert np.array_equal(ga, gb)


def _grad_mixes(arrays):
    present = [a is not None for a in arrays]
    for mix in itertools.product([False, True], repeat=sum(present)):
        it = iter(mix)
        yield tuple(next(it) if p else False for p in present)


class TestLocalReparameterizedConv2dComposite:
    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_decomposed_expression(self, case, lazy_on):
        arrays = _arrays(case)
        _, stride, padding = CASES[case]
        with lazy.lazy_mode(lazy_on):
            for grads in _grad_mixes(arrays):
                _assert_matches(
                    _run(bnn_poutine._local_reparameterized_conv2d, arrays, grads, stride,
                         padding),
                    _run(_lr_conv_reference, arrays, grads, stride, padding))

    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_grad_matches_and_records_no_tape(self, case, lazy_on):
        arrays = _arrays(case)
        _, stride, padding = CASES[case]
        with lazy.lazy_mode(lazy_on), no_grad():
            a = _run(bnn_poutine._local_reparameterized_conv2d, arrays, [True] * 5, stride,
                     padding)
            b = _run(_lr_conv_reference, arrays, [True] * 5, stride, padding)
        _assert_matches(a, b)
        assert all(g is None for g in a["grads"])

    def test_contiguous_input(self):
        arrays = _arrays("3x3-s1-p1-normal-bias")
        arrays[0] = np.ascontiguousarray(arrays[0])
        _assert_matches(
            _run(bnn_poutine._local_reparameterized_conv2d, arrays, [True] * 5, 1, 1),
            _run(_lr_conv_reference, arrays, [True] * 5, 1, 1))

    def test_one_node_and_one_gather(self, monkeypatch):
        backend = type(F.get_backend())
        calls = {"im2col": 0, "col2im": 0}
        for name in calls:
            original = getattr(backend, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(backend, name, counted)
        tensors = [Tensor(a, requires_grad=True) for a in _arrays("3x3-s1-p1-normal-bias")]
        out = bnn_poutine._local_reparameterized_conv2d(*tensors, stride=1, padding=1)
        assert out._op == "lr_conv2d" and list(out._prev) == tensors
        out.backward(np.ones(out.shape))
        assert calls == {"im2col": 1, "col2im": 1}


def _register(messenger, name, value, fn):
    messenger.postprocess_message({"type": "sample", "name": name, "fn": fn,
                                   "value": value, "is_observed": False})


@pytest.mark.parametrize("bias_kind", ["none", "normal", "delta"])
def test_messenger_conv2d_matches_reference(bias_kind, monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 5, 5))
    arrays = {"w_loc": rng.standard_normal((2, 3, 3, 3)),
              "w_scale": rng.uniform(0.2, 1, (2, 3, 3, 3)),
              "b_loc": rng.standard_normal(2), "b_scale": rng.uniform(0.2, 1, 2)}

    def run():
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
        x_t = Tensor(x, requires_grad=True)
        messenger = tyxe.poutine.LocalReparameterizationMessenger()
        ppl.set_rng_seed(4)
        with messenger:
            weight = Tensor(arrays["w_loc"])
            _register(messenger, "w", weight,
                      dist.Normal(params["w_loc"], params["w_scale"]).to_event(4))
            bias = None
            if bias_kind == "normal":
                bias = Tensor(arrays["b_loc"])
                _register(messenger, "b", bias,
                          dist.Normal(params["b_loc"], params["b_scale"]).to_event(1))
            elif bias_kind == "delta":
                bias = params["b_loc"] * 1.0
                _register(messenger, "b", bias, dist.Delta(bias, event_dim=1))
            out = F.conv2d(x_t, weight, bias, stride=2, padding=1)
        out.backward(np.ones(out.shape))
        return out.data, x_t.grad, {k: p.grad for k, p in params.items()}

    value_a, gx_a, grads_a = run()
    monkeypatch.setattr(bnn_poutine, "_local_reparameterized_conv2d", _lr_conv_reference)
    value_b, gx_b, grads_b = run()
    assert np.array_equal(value_a, value_b)
    assert np.max(np.abs(gx_a - gx_b)) <= RTOL * np.max(np.abs(gx_b))
    for key in grads_a:
        assert (grads_a[key] is None) == (grads_b[key] is None)
        if grads_a[key] is not None:
            assert np.array_equal(grads_a[key], grads_b[key])


def _fit_parameters():
    """Two epochs of a local-reparameterized mean-field fit of a batch-norm
    ResNet-8 at fig2's image size, with batch norm hidden from the prior."""
    rng = np.random.default_rng(0)
    images = rng.standard_normal((48, 3, 8, 8))
    labels = rng.integers(0, 4, 48)
    ppl.clear_param_store()
    ppl.set_rng_seed(0)
    net = nn.models.make_resnet(8, num_classes=4, in_channels=3, base_width=4,
                                rng=np.random.default_rng(1))
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), expose_all=True,
                                 hide_module_types=[nn.BatchNorm2d])
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net),
                    init_scale=1e-3, train_loc=True, max_guide_scale=0.1)
    bnn = tyxe.VariationalBNN(net, prior, tyxe.likelihoods.Categorical(len(images)), guide)
    loader = nn.DataLoader(nn.TensorDataset(images, labels), batch_size=16, shuffle=True,
                           rng=np.random.default_rng(2))
    with tyxe.poutine.local_reparameterization():
        bnn.fit(loader, ppl.optim.Adam({"lr": 1e-2}), 2)
    params = [p.data.copy() for _, p in ppl.get_param_store().named_parameters()]
    buffers = [b.copy() for _, b in net.named_buffers()]
    return params + [p.data.copy() for p in net.parameters()] + buffers


def test_fig2_shaped_fit_matches_decomposed_ops(monkeypatch):
    composite = _fit_parameters()
    monkeypatch.setattr(bnn_poutine, "_local_reparameterized_conv2d", _lr_conv_reference)
    monkeypatch.setattr(F, "batch_norm", _batch_norm_reference)
    reference = _fit_parameters()
    assert len(composite) == len(reference) > 0
    for a, b in zip(composite, reference):
        np.testing.assert_allclose(a, b, rtol=FIT_RTOL, atol=0)
