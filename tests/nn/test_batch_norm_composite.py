"""Pinning tests for the one-node ``F.batch_norm``.

The composite replaces ``(x - mean) / sqrt(var + eps) * w + b`` built from
tensor ops.  That decomposed expression is kept here as the reference.  The
forward (values and memory layout), the running statistics, the ``w``/``b``
gradients and the eval-mode input gradient must match it byte for byte.
The training-mode input gradient is a closed form and is pinned at
``RTOL``: every element within ``RTOL * max|reference|`` of the reference.

The reference always runs eagerly (``lazy_mode(False)``), the composite
under both modes.  Under the lazy engine the reference's gradient-free
intermediates are realized into fresh C-contiguous buffers, so on
channels-last input its statistics reductions sum in another order; the
composite computes eagerly in either mode and matches the eager tape.
"""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import lazy
from repro.nn.tensor import Tensor, no_grad

#: training-mode input gradient: max |composite - tape| / max |tape|
RTOL = 1e-13


def _batch_norm_reference(x, running_mean, running_var, weight, bias, training,
                          momentum=0.1, eps=1e-5):
    if x.ndim in (4, 5):
        axes = (0, 2, 3) if x.ndim == 4 else (1, 3, 4)
        view = (1, -1, 1, 1)
    else:
        axes = (0,) if x.ndim == 2 else (1,)
        view = (1, -1)
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        if running_mean is not None:
            num_features = running_mean.shape[0]
            means = mean.data.reshape(-1, num_features)
            variances = var.data.reshape(-1, num_features)
            num_updates = means.shape[0]
            decay = (1.0 - momentum) ** np.arange(num_updates - 1, -1, -1)
            running_mean *= (1 - momentum) ** num_updates
            running_mean += momentum * (decay[:, None] * means).sum(axis=0)
            running_var *= (1 - momentum) ** num_updates
            running_var += momentum * (decay[:, None] * variances).sum(axis=0)
    else:
        mean = Tensor(running_mean.reshape(view))
        var = Tensor(running_var.reshape(view))

    def _affine_view(p):
        if p.ndim == 1:
            return p.reshape(*view)
        return p.reshape(p.shape[:-1] + tuple(view))

    x_hat = (x - mean) / (var + eps).sqrt()
    if weight is not None:
        x_hat = x_hat * _affine_view(weight)
    if bias is not None:
        x_hat = x_hat + _affine_view(bias)
    return x_hat


# name -> (x, weight, bias) shapes; C = 3 channels, None = absent
CASES = {
    "2d": [(6, 3), (3,), (3,)],
    "2d-no-affine": [(6, 3), None, None],
    "3d-sampled-affine": [(4, 6, 3), (4, 3), (4, 3)],
    "3d-unsampled-affine": [(4, 6, 3), (3,), (3,)],
    "4d": [(5, 3, 4, 4), (3,), (3,)],
    "4d-weight-only": [(5, 3, 4, 4), (3,), None],
    "4d-bias-only": [(5, 3, 4, 4), None, (3,)],
    "4d-no-affine": [(5, 3, 4, 4), None, None],
    "4d-sampled-weight": [(5, 3, 4, 4), (2, 3), (3,)],
    "4d-sampled-bias": [(5, 3, 4, 4), (3,), (2, 3)],
    "4d-sampled-affine": [(5, 3, 4, 4), (2, 3), (2, 3)],
    "5d-sampled-affine": [(2, 5, 3, 4, 4), (2, 3), (2, 3)],
    "5d-unsampled-affine": [(2, 5, 3, 4, 4), (3,), (3,)],
}


def _arrays(case, seed=0):
    rng = np.random.default_rng(seed)
    x_shape, w_shape, b_shape = CASES[case]
    x = rng.standard_normal(x_shape) * 2.0 + 0.5
    if len(x_shape) >= 4:
        # the channels-last memory a conv output has, seen as NCHW
        x = np.ascontiguousarray(np.moveaxis(x, -3, -1))
        x = np.moveaxis(x, -1, -3)
    w = None if w_shape is None else rng.uniform(0.5, 1.5, w_shape)
    b = None if b_shape is None else rng.standard_normal(b_shape)
    return [x, w, b]


def _run(fn, arrays, grads, training, seed_grad=True):
    tensors = [None if a is None else Tensor(a.copy(order="K"), requires_grad=g)
               for a, g in zip(arrays, grads)]
    running_mean = np.linspace(-0.5, 0.5, 3)
    running_var = np.linspace(0.5, 2.0, 3)
    out = fn(tensors[0], running_mean, running_var, tensors[1], tensors[2], training)
    result = {"value": out.data.copy(order="K"), "strides": out.data.strides,
              "running": (running_mean, running_var)}
    if out.requires_grad and seed_grad:
        out.backward(np.random.default_rng(7).standard_normal(out.shape))
    result["grads"] = [None if t is None else t.grad for t in tensors]
    return result


def _grad_mixes(arrays):
    present = [a is not None for a in arrays]
    for mix in itertools.product([False, True], repeat=sum(present)):
        it = iter(mix)
        yield tuple(next(it) if p else False for p in present)


def _reference(arrays, grads, training):
    with lazy.lazy_mode(False):
        return _run(_batch_norm_reference, arrays, grads, training)


def _assert_matches(arrays, grads, training):
    a = _run(F.batch_norm, arrays, grads, training)
    b = _reference(arrays, grads, training)
    assert np.array_equal(a["value"], b["value"])
    assert a["strides"] == b["strides"]
    for ra, rb in zip(a["running"], b["running"]):
        assert np.array_equal(ra, rb)
    for i, (ga, gb) in enumerate(zip(a["grads"], b["grads"])):
        assert (ga is None) == (gb is None)
        if ga is None:
            continue
        assert ga.shape == gb.shape
        if i == 0 and training:
            assert np.max(np.abs(ga - gb)) <= RTOL * np.max(np.abs(gb))
        else:
            assert np.array_equal(ga, gb)


class TestBatchNormComposite:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_decomposed_expression(self, case, lazy_on, training):
        arrays = _arrays(case)
        with lazy.lazy_mode(lazy_on):
            for grads in _grad_mixes(arrays):
                _assert_matches(arrays, grads, training)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_grad_matches_and_records_no_tape(self, case, lazy_on, training):
        arrays = _arrays(case)
        with lazy.lazy_mode(lazy_on), no_grad():
            a = _run(F.batch_norm, arrays, [True] * 3, training)
            b = _reference(arrays, [True] * 3, training)
            out = F.batch_norm(Tensor(arrays[0], requires_grad=True), None, None,
                               None, None, training=True)
        assert np.array_equal(a["value"], b["value"]) and a["strides"] == b["strides"]
        for ra, rb in zip(a["running"], b["running"]):
            assert np.array_equal(ra, rb)
        assert not out.requires_grad and out._prev == ()

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_input_layouts(self, layout):
        arrays = _arrays("4d")
        if layout == "nchw":
            arrays[0] = np.ascontiguousarray(arrays[0])
        for training in (True, False):
            _assert_matches(arrays, (True, True, True), training)

    def test_one_node(self):
        x, w, b = (Tensor(a, requires_grad=True) for a in _arrays("4d"))
        out = F.batch_norm(x, np.zeros(3), np.ones(3), w, b, training=True)
        assert out._op == "batch_norm" and list(out._prev) == [x, w, b]

    def test_without_running_statistics(self):
        arrays = _arrays("4d")

        def run(fn):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = fn(x, None, None, w, b, True)
            out.backward(np.random.default_rng(1).standard_normal(out.shape))
            return out.data, w.grad, b.grad

        for got, want in zip(run(F.batch_norm), run(_batch_norm_reference)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["4d", "5d-sampled-affine", "4d-sampled-weight"])
    def test_input_feeding_another_op(self, case):
        """Gradients reaching ``x`` from batch norm and from a later consumer
        of ``x`` add up as on the tape (to ``RTOL``); ``w``/``b`` stay
        byte-equal."""
        arrays = _arrays(case)

        def run(fn):
            x, w, b = (None if a is None else Tensor(a.copy(), requires_grad=True)
                       for a in arrays)
            out = fn(x, np.zeros(3), np.ones(3), w, b, True).relu()
            (out.sum() * x.sum()).backward()
            return x.grad, w.grad, b.grad

        (gx, gw, gb), (rx, rw, rb) = run(F.batch_norm), run(_batch_norm_reference)
        assert np.max(np.abs(gx - rx)) <= RTOL * np.max(np.abs(rx))
        assert np.array_equal(gw, rw) and np.array_equal(gb, rb)

    @pytest.mark.parametrize("training", [True, False])
    def test_float32_operands(self, training):
        """Buffers are reused in place only where the result keeps their
        dtype: float32 input, affine parameters and running statistics give
        the tape's dtype and bytes."""
        x, w, b = (a.astype(np.float32) for a in _arrays("4d"))

        def run(fn):
            running = (np.linspace(-0.5, 0.5, 3, dtype=np.float32),
                       np.linspace(0.5, 2.0, 3, dtype=np.float32))
            tensors = [Tensor(a.copy(order="K"), requires_grad=True) for a in (x, w, b)]
            out = fn(tensors[0], *running, tensors[1], tensors[2], training)
            out.backward(np.random.default_rng(7).standard_normal(out.shape))
            return out.data, running, [t.grad for t in tensors]

        with lazy.lazy_mode(False):
            (value, running, grads), (ref_value, ref_running, ref_grads) = (
                run(F.batch_norm), run(_batch_norm_reference))
        assert value.dtype == ref_value.dtype and np.array_equal(value, ref_value)
        for got, want in zip(running, ref_running):
            assert np.array_equal(got, want)
        for got, want in zip(grads[1:], ref_grads[1:]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # float32 rounding: the training-mode input gradient holds to 1e-5
        rtol = 1e-5 if training else 0.0
        assert grads[0].dtype == ref_grads[0].dtype
        assert np.max(np.abs(grads[0] - ref_grads[0])) <= rtol * np.max(np.abs(ref_grads[0]))
