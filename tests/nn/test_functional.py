"""Unit tests for functional neural-network operations."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor, unbroadcast


class TestLinear:
    def test_matches_manual_computation(self, rng):
        x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3)), rng.standard_normal(5)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-12)

    def test_no_bias(self, rng):
        x, w = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        np.testing.assert_allclose(F.linear(Tensor(x), Tensor(w)).data, x @ w.T)

    def test_gradcheck_weight(self, grad_check, rng):
        x = rng.standard_normal((3, 4))
        grad_check(lambda w: (F.linear(Tensor(x), w) ** 2).sum(), rng.standard_normal((2, 4)),
                   atol=1e-4)

    def test_effect_handler_interception(self, rng):
        class Doubler:
            def process_linear_op(self, op, x, weight, bias, default_fn, **kwargs):
                return default_fn(x, weight, bias, **kwargs) * 2.0

        x, w = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((4, 3)))
        plain = F.linear(x, w)
        handler = Doubler()
        F.register_linear_op_handler(handler)
        try:
            doubled = F.linear(x, w)
        finally:
            F.unregister_linear_op_handler(handler)
        np.testing.assert_allclose(doubled.data, 2 * plain.data)
        assert not F.active_linear_op_handlers()

    def test_handler_returning_none_falls_through(self, rng):
        class Passive:
            def process_linear_op(self, *args, **kwargs):
                return None

        x, w = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((4, 3)))
        handler = Passive()
        F.register_linear_op_handler(handler)
        try:
            out = F.linear(x, w)
        finally:
            F.unregister_linear_op_handler(handler)
        np.testing.assert_allclose(out.data, x.data @ w.data.T)


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 5, 6, 6)

    def test_matches_naive_convolution(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=0).data
        # naive reference
        expected = np.zeros((1, 3, 3, 3))
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i:i + 3, j:j + 3]
                    expected[0, oc, i, j] = (patch * w[oc]).sum() + b[oc]
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_input_gradcheck(self, grad_check, rng):
        w = rng.standard_normal((2, 2, 3, 3))
        grad_check(lambda x: (F.conv2d(x, Tensor(w), stride=2, padding=1) ** 2).sum(),
                   rng.standard_normal((1, 2, 5, 5)), atol=1e-4)

    def test_weight_and_bias_gradients_populated(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()
        assert w.grad.shape == w.shape
        assert b.grad.shape == b.shape


def _direct_conv2d(x, w, b, stride, padding, g):
    """Looped direct convolution: values and the input/weight/bias
    gradients for upstream gradient ``g``, one output position at a time."""
    lead = np.broadcast_shapes(x.shape[:-4], w.shape[:-4], b.shape[:-1])
    xb = np.broadcast_to(x, lead + x.shape[-4:])
    wb = np.broadcast_to(w, lead + w.shape[-4:])
    pad = [(0, 0)] * (xb.ndim - 2) + [(padding, padding)] * 2
    xp = np.pad(xb, pad)
    kh, kw = w.shape[-2:]
    out_h = (xp.shape[-2] - kh) // stride + 1
    out_w = (xp.shape[-1] - kw) // stride + 1
    out = np.zeros(lead + (x.shape[-4], w.shape[-4], out_h, out_w))
    gxp, gw = np.zeros_like(xp), np.zeros(wb.shape)
    for i in range(out_h):
        for j in range(out_w):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            window = xp[..., rows, cols]
            out[..., i, j] = np.einsum("...nckl,...ockl->...no", window, wb)
            g_ij = g[..., i, j]
            gxp[..., rows, cols] += np.einsum("...no,...ockl->...nckl", g_ij, wb)
            gw += np.einsum("...no,...nckl->...ockl", g_ij, window)
    out += b[..., None, :, None, None]
    gx = gxp[..., padding:gxp.shape[-2] - padding, padding:gxp.shape[-1] - padding]
    gb = g.sum(axis=(-4, -2, -1))
    return out, unbroadcast(gx, x.shape), unbroadcast(gw, w.shape), unbroadcast(gb, b.shape)


_CONV_GEOMETRY = [(3, 1, 0), (3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]
_SAMPLE_LEAD = {"none": ((), ()), "weight": ((), (2,)), "input": ((2,), ()),
                "both": ((2,), (2,))}


class TestConv2dDirectReference:
    """The channels-last im2col op against a looped direct convolution.

    Reordering the window axis to ``(kh, kw, c)`` changes float rounding, so
    the comparison is at ``rtol=1e-12`` (plus ``atol=1e-12`` for values near
    zero), not byte equality.
    """

    @pytest.mark.parametrize("lead", sorted(_SAMPLE_LEAD))
    @pytest.mark.parametrize("channels_last", [False, True])
    @pytest.mark.parametrize("kernel,stride,padding", _CONV_GEOMETRY)
    def test_conv2d_matches_direct_convolution(self, rng, kernel, stride, padding,
                                               channels_last, lead):
        x_lead, w_lead = _SAMPLE_LEAD[lead]
        xv = rng.standard_normal(x_lead + (2, 3, 6, 7))
        wv = rng.standard_normal(w_lead + (4, 3, kernel, kernel))
        bv = rng.standard_normal(w_lead + (4,))
        if channels_last:  # an NCHW-shaped view of NHWC memory
            xv = np.moveaxis(np.ascontiguousarray(np.moveaxis(xv, -3, -1)), -1, -3)
        x = Tensor(xv, requires_grad=True)
        w = Tensor(wv, requires_grad=True)
        b = Tensor(bv, requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        ref, ref_gx, ref_gw, ref_gb = _direct_conv2d(xv, wv, bv, stride, padding, g)
        for actual, expected in [(out.data, ref), (x.grad, ref_gx), (w.grad, ref_gw),
                                 (b.grad, ref_gb)]:
            assert actual.shape == expected.shape
            np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)

        with nn.no_grad():
            plain = F.conv2d(x, w, b, stride=stride, padding=padding)
        assert not plain.requires_grad and plain._prev == ()
        np.testing.assert_array_equal(plain.data, out.data)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradcheck(self, grad_check, rng):
        grad_check(lambda x: (F.max_pool2d(x, 2, 2) ** 2).sum(),
                   rng.standard_normal((2, 2, 4, 4)), atol=1e-4)

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_overlapping_stride(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        out = F.avg_pool2d(Tensor(x), 3, 1)
        expected = np.zeros((2, 3, 4, 4))
        for i in range(4):
            for j in range(4):
                expected[:, :, i, j] = x[:, :, i:i + 3, j:j + 3].mean(axis=(-2, -1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_avg_pool_gradcheck(self, grad_check, rng):
        grad_check(lambda x: (F.avg_pool2d(x, 2, 2) ** 2).sum(),
                   rng.standard_normal((2, 2, 4, 4)), atol=1e-4)

    def test_avg_pool_overlapping_gradcheck(self, grad_check, rng):
        grad_check(lambda x: (F.avg_pool2d(x, 2, 1) ** 2).sum(),
                   rng.standard_normal((1, 2, 4, 4)), atol=1e-4)

    def test_avg_pool_folds_leading_sample_dims(self, rng):
        x = rng.standard_normal((3, 2, 2, 6, 6))
        pooled = F.avg_pool2d(Tensor(x), 2)
        assert pooled.shape == (3, 2, 2, 3, 3)
        for s in range(3):
            np.testing.assert_allclose(pooled.data[s], F.avg_pool2d(Tensor(x[s]), 2).data,
                                       atol=1e-12)

    def test_adaptive_avg_pool_global(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        out = F.adaptive_avg_pool2d(Tensor(x), 1)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3), keepdims=True))

    def test_adaptive_avg_pool_rejects_other_sizes(self, rng):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(Tensor(rng.standard_normal((1, 1, 4, 4))), 2)


class TestBatchNormAndDropout:
    def test_batch_norm_normalizes_in_training(self, rng):
        x = Tensor(rng.standard_normal((16, 4, 3, 3)) * 3 + 2)
        running_mean, running_var = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, running_mean, running_var, None, None, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_batch_norm_updates_running_stats(self, rng):
        x = Tensor(rng.standard_normal((16, 4, 3, 3)) + 5.0)
        running_mean, running_var = np.zeros(4), np.ones(4)
        F.batch_norm(x, running_mean, running_var, None, None, training=True, momentum=0.5)
        assert np.all(running_mean > 1.0)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 3, 3)))
        running_mean, running_var = np.full(2, 1.0), np.full(2, 4.0)
        out = F.batch_norm(x, running_mean, running_var, None, None, training=False)
        np.testing.assert_allclose(out.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5), rtol=1e-6)

    def test_batch_norm_2d_input(self, rng):
        x = Tensor(rng.standard_normal((10, 4)))
        out = F.batch_norm(x, np.zeros(4), np.ones(4), None, None, training=True)
        assert out.shape == (10, 4)

    def test_batch_norm_rejects_out_of_range_rank(self, rng):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(rng.standard_normal(4)), np.zeros(4), np.ones(4),
                         None, None, training=True)
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(rng.standard_normal((2, 2, 3, 4, 3, 3))), np.zeros(3),
                         np.ones(3), None, None, training=True)

    def test_batch_norm_vectorized_matches_per_sample_loop(self, rng):
        # a leading sample dim normalizes per sample AND applies the same
        # sequential running-buffer updates the looped path would
        x = rng.standard_normal((3, 6, 4, 2, 2)) + 2.0
        rm_vec, rv_vec = np.zeros(4), np.ones(4)
        out = F.batch_norm(Tensor(x), rm_vec, rv_vec, None, None, training=True,
                           momentum=0.1)
        rm_loop, rv_loop = np.zeros(4), np.ones(4)
        loops = [F.batch_norm(Tensor(x[s]), rm_loop, rv_loop, None, None, training=True,
                              momentum=0.1).data for s in range(3)]
        np.testing.assert_allclose(out.data, np.stack(loops), atol=1e-12)
        np.testing.assert_allclose(rm_vec, rm_loop, atol=1e-12)
        np.testing.assert_allclose(rv_vec, rv_loop, atol=1e-12)

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_training_scales_survivors(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, p=0.5, training=True, rng=np.random.default_rng(0))
        survivors = out.data[out.data > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.3 < (out.data > 0).mean() < 0.7


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.standard_normal((3, 5))))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-10)

    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-8)

    def test_softmax_stable_with_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 1, 2, 1])
        loss = F.cross_entropy(Tensor(logits), labels)
        log_probs = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
        expected = -log_probs[np.arange(4), labels].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-8)

    def test_cross_entropy_reductions(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 1])
        total = F.cross_entropy(logits, labels, reduction="sum").item()
        mean = F.cross_entropy(logits, labels, reduction="mean").item()
        assert total == pytest.approx(4 * mean, rel=1e-8)
        assert F.cross_entropy(logits, labels, reduction="none").shape == (4,)

    def test_cross_entropy_gradcheck(self, grad_check, rng):
        labels = np.array([0, 2, 1])
        grad_check(lambda t: F.cross_entropy(t, labels), rng.standard_normal((3, 4)), atol=1e-4)

    def test_mse_loss(self, rng):
        pred, target = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        assert F.mse_loss(Tensor(pred), target).item() == pytest.approx(((pred - target) ** 2).mean())
        assert F.mse_loss(Tensor(pred), target, reduction="sum").item() == pytest.approx(
            ((pred - target) ** 2).sum())

    def test_bce_with_logits_matches_reference(self, rng):
        logits = rng.standard_normal(20)
        targets = (rng.random(20) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_one_hot(self):
        oh = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(oh, [[1, 0, 0], [0, 0, 1]])

    def test_nll_loss(self, rng):
        log_probs = F.log_softmax(Tensor(rng.standard_normal((5, 4))))
        labels = np.array([0, 1, 2, 3, 0])
        assert F.nll_loss(log_probs, labels).item() > 0
