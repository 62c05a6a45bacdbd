"""Bit-identity suite for the numpy kernel module :mod:`repro.nn.backends`.

Every kernel is pinned byte for byte to the plain-numpy expression it runs,
kernels reached through the Tensor layer are pinned to the same expressions,
and autograd is pinned against hand-written numpy formulas.
"""

import numpy as np
import pytest
from scipy import special

from repro import nn
from repro.nn import functional as F, lazy
from repro.nn.backends import get_backend
from repro.nn.tensor import Tensor


@pytest.fixture(params=["numpy"])
def kernels():
    """The process-wide kernel object (the param labels the kernel set)."""
    return get_backend()


def _check(actual, expected):
    """Bit-identity: same shape, same dtype, same bytes."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


# ------------------------------------------------------- elementwise kernels
#: op id -> (input builder, plain-numpy expectation) — the expectation is the
#: literal numpy expression the kernel runs, making bit-identity explicit
def _x(rng):
    return rng.normal(size=(3, 4))


def _pos(rng):
    return np.abs(rng.normal(size=(3, 4))) + 0.5


ELEMENTWISE_CASES = {
    "add": (lambda rng: [_x(rng), _x(rng)], lambda a, b: np.add(a, b)),
    "sub": (lambda rng: [_x(rng), _x(rng)], lambda a, b: np.subtract(a, b)),
    "mul": (lambda rng: [_x(rng), _x(rng)], lambda a, b: np.multiply(a, b)),
    "div": (lambda rng: [_x(rng), _pos(rng)], lambda a, b: np.true_divide(a, b)),
    "neg": (lambda rng: [_x(rng)], lambda a: np.negative(a)),
    "abs": (lambda rng: [_x(rng)], lambda a: np.absolute(a)),
    "exp": (lambda rng: [_x(rng)], lambda a: np.exp(a)),
    "log": (lambda rng: [_pos(rng)], lambda a: np.log(a)),
    "log1p": (lambda rng: [_pos(rng)], lambda a: np.log1p(a)),
    "sqrt": (lambda rng: [_pos(rng)], lambda a: np.sqrt(a)),
    "tanh": (lambda rng: [_x(rng)], lambda a: np.tanh(a)),
    "sin": (lambda rng: [_x(rng)], lambda a: np.sin(a)),
    "cos": (lambda rng: [_x(rng)], lambda a: np.cos(a)),
    "erf": (lambda rng: [_x(rng)], lambda a: special.erf(a)),
    "sigmoid": (lambda rng: [_x(rng)], lambda a: special.expit(a)),
    "softplus": (lambda rng: [_x(rng)], lambda a: np.logaddexp(0.0, a)),
    "relu": (lambda rng: [_x(rng)], lambda a: np.maximum(a, 0.0)),
    "pow": (lambda rng: [_pos(rng)], None),    # params-taking ops below
    "clamp": (lambda rng: [_x(rng)], None),
    "clone": (lambda rng: [_x(rng)], lambda a: a.copy()),
}

_PARAMS = {"pow": {"exponent": 2.5}, "clamp": {"min": -0.5, "max": 0.5}}
_PARAM_EXPECT = {"pow": lambda a: np.power(a, 2.5),
                 "clamp": lambda a: np.clip(a, -0.5, 0.5)}


def _im2col_loop(x, kh, kw, stride, padding=0):
    """Looped channels-last im2col: one ``(kh, kw, c)`` window per position."""
    x = np.pad(x, [(0, 0), (padding, padding), (padding, padding), (0, 0)])
    n, h, w, c = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = np.empty((n, out_h, out_w, kh * kw * c), dtype=x.dtype)
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
            cols[:, i, j] = window.reshape(n, -1)
    return cols, out_h, out_w


def _col2im_loop(cols, x_shape, kh, kw, stride, padding=0):
    """Looped scatter-add of window columns: kernel rows in order, and
    within a kernel row, windows left to right."""
    n, h, w, c = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    cols = cols.reshape(n, out_h, out_w, kh, kw, c)
    grad = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    for ki in range(kh):
        for i in range(out_h):
            for j in range(out_w):
                for kj in range(kw):
                    grad[:, i * stride + ki, j * stride + kj] += cols[:, i, j, ki, kj]
    return grad[:, padding:padding + h, padding:padding + w]


def _pool_loop(x, kernel, stride, reduce):
    """``reduce`` over each ``(N, C)`` window, one output position at a time."""
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    return np.stack([np.stack([
        reduce(x[:, :, i * stride:i * stride + kernel, j * stride:j * stride + kernel])
        for j in range(out_w)], axis=-1) for i in range(out_h)], axis=-2)


class TestElementwiseConformance:
    def test_table_mirrors_elementwise_ops(self, kernels):
        assert set(kernels.elementwise) >= set(lazy.ELEMENTWISE_OPS)

    def test_cases_cover_the_whole_table(self):
        assert set(ELEMENTWISE_CASES) == set(lazy.ELEMENTWISE_OPS)

    @pytest.mark.parametrize("op", sorted(ELEMENTWISE_CASES))
    def test_kernel_matches_reference(self, kernels, op, rng):
        build, expect = ELEMENTWISE_CASES[op]
        srcs = build(rng)
        params = _PARAMS.get(op, {})
        expected = (_PARAM_EXPECT[op] if expect is None else expect)(*srcs)
        _check(kernels.elementwise[op](srcs, params), expected)

    @pytest.mark.parametrize("op", sorted(ELEMENTWISE_CASES))
    def test_out_contract_writes_in_place(self, kernels, op, rng):
        """The fusion pass hands kernels a dead buffer; they must fill it."""
        build, expect = ELEMENTWISE_CASES[op]
        srcs = build(rng)
        params = _PARAMS.get(op, {})
        expected = (_PARAM_EXPECT[op] if expect is None else expect)(*srcs)
        out = np.empty(expected.shape, dtype=expected.dtype)
        result = kernels.elementwise[op](srcs, params, out=out)
        assert result is out
        _check(out, expected)


# ----------------------------------------------------------- kernel entries
class TestKernelConformance:
    def test_matmul_2d_and_batched(self, kernels, rng):
        a2, b2 = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
        _check(kernels.matmul(a2, b2), a2 @ b2)
        ab, bb = rng.normal(size=(4, 5, 7)), rng.normal(size=(7, 3))
        _check(kernels.matmul(ab, bb), ab @ bb)

    def test_matmul_vector_contraction(self, kernels, rng):
        va, vb = rng.normal(size=9), rng.normal(size=9)
        _check(kernels.matmul(va, vb), va @ vb)

    def test_im2col_and_col2im(self, kernels, rng):
        x = rng.normal(size=(2, 6, 7, 3))  # channels-last (N, H, W, C)
        for kh, kw, stride, padding in [(3, 3, 1, 0), (3, 3, 1, 1), (3, 3, 2, 1),
                                        (2, 2, 2, 0), (1, 1, 2, 0)]:
            cols, out_h, out_w = kernels.im2col(x, kh, kw, stride, padding)
            ref_cols, ref_h, ref_w = _im2col_loop(x, kh, kw, stride, padding)
            assert (out_h, out_w) == (ref_h, ref_w)
            assert cols.flags.c_contiguous
            _check(cols, ref_cols)
            grad = rng.normal(size=ref_cols.shape)
            _check(kernels.col2im(grad, x.shape, kh, kw, stride, padding),
                   _col2im_loop(grad, x.shape, kh, kw, stride, padding))

    def test_max_pool2d_values_and_window_indices(self, kernels, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        for kernel, stride in [(2, 2), (3, 1)]:
            pooled, idx = kernels.max_pool2d(x, kernel, stride)
            _check(pooled, _pool_loop(x, kernel, stride,
                                      lambda win: win.max(axis=(-2, -1))))
            # the backward scatters through the within-window row-major
            # argmax; random floats make ties improbable
            _check(idx, _pool_loop(x, kernel, stride, lambda win: win.reshape(
                win.shape[:2] + (-1,)).argmax(axis=-1)))
            assert idx.min() >= 0 and idx.max() < kernel * kernel

    def test_avg_pool2d(self, kernels, rng):
        # a looped mean sums in a different order, so the reference is numpy's
        # own window view, reduced exactly as the kernel reduces it
        x = rng.normal(size=(2, 3, 6, 6))
        windows = np.lib.stride_tricks.sliding_window_view(x, (2, 2), axis=(2, 3))
        _check(kernels.avg_pool2d(x, 2, 2), windows[:, :, ::2, ::2].mean(axis=(-2, -1)))

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (None, True), (0, False), (1, True), ((0, 2), False),
    ])
    def test_reductions(self, kernels, rng, axis, keepdims):
        x = rng.normal(size=(3, 4, 5))
        _check(kernels.sum(x, axis=axis, keepdims=keepdims),
               np.sum(x, axis=axis, keepdims=keepdims))
        _check(kernels.mean(x, axis=axis, keepdims=keepdims),
               np.mean(x, axis=axis, keepdims=keepdims))
        if not isinstance(axis, tuple):
            _check(kernels.max(x, axis=axis, keepdims=keepdims),
                   np.max(x, axis=axis, keepdims=keepdims))

    def test_cumsum(self, kernels, rng):
        x = rng.normal(size=(3, 4, 5))
        for axis in range(x.ndim):
            _check(kernels.cumsum(x, axis), np.cumsum(x, axis=axis))

    def test_integer_sum_keeps_integer_dtype(self, kernels):
        x = np.arange(12, dtype=np.int64).reshape(3, 4)
        _check(kernels.sum(x, axis=0), x.sum(axis=0))


# -------------------------------------------------- tensor-layer integration
class TestTensorIntegration:
    def test_full_forward_chain_matches_reference(self, kernels, rng):
        """A realistic matmul+elementwise+reduction chain through Tensor."""
        a = rng.normal(size=(8, 16))
        b = rng.normal(size=(16, 4))
        z = nn.tensor(a) @ nn.tensor(b)
        actual = (((z * 0.5).tanh() + 1.0).exp().sum()).item()
        assert actual == (np.exp(np.tanh((a @ b) * 0.5) + 1.0)).sum().item()

    def test_conv_and_pool_forward(self, kernels, rng):
        xv = rng.normal(size=(2, 3, 8, 8))
        wv = rng.normal(size=(4, 3, 3, 3))
        bv = rng.normal(size=4)
        out = F.max_pool2d(F.conv2d(Tensor(xv), Tensor(wv), Tensor(bv), stride=1), 2)
        cols, out_h, out_w = _im2col_loop(np.moveaxis(xv, 1, -1), 3, 3, 1)
        w_mat = np.moveaxis(wv, 1, -1).reshape(4, 27)  # (kh, kw, c) order
        conv = cols.reshape(-1, 27) @ w_mat.T + bv
        conv = conv.reshape(2, out_h, out_w, 4).transpose(0, 3, 1, 2)
        _check(out.numpy(), _pool_loop(conv, 2, 2, lambda win: win.max(axis=(-2, -1))))

    def test_lazy_and_eager_agree_per_backend(self, kernels, rng):
        """The fusion scheduler and compute_eager run the same kernels."""
        data = rng.normal(size=257)
        x = nn.tensor(data)
        with lazy.lazy_mode(True):
            fused = ((x * 1.5).relu() + 0.25).sqrt().numpy()
        with lazy.lazy_mode(False):
            eager = ((x * 1.5).relu() + 0.25).sqrt().numpy()
        np.testing.assert_array_equal(fused, eager)


# --------------------------------------------------- autograd byte-identity
class TestReferenceAutogradByteIdentity:
    """Gradients are pinned to raw numpy formulas."""

    def test_sin_cos_erf_softplus_grads(self, rng):
        xv = rng.normal(size=(3, 4))
        for fn, expected in [
            (lambda t: t.sin(), np.cos(xv)),
            (lambda t: t.cos(), -np.sin(xv)),
            (lambda t: t.erf(),
             2.0 / np.sqrt(np.pi) * np.exp(-xv ** 2)),
            (lambda t: t.softplus(), special.expit(xv)),
        ]:
            x = Tensor(xv.copy(), requires_grad=True)
            fn(x).sum().backward()
            np.testing.assert_array_equal(x.grad, expected)

    def test_cumsum_grad_is_reversed_scan(self, rng):
        xv = rng.normal(size=(4, 5))
        x = Tensor(xv.copy(), requires_grad=True)
        (x.cumsum(axis=1) * 2.0).sum().backward()
        g = 2.0 * np.ones_like(xv)
        expected = np.flip(np.cumsum(np.flip(g, axis=1), axis=1), axis=1)
        np.testing.assert_array_equal(x.grad, expected)

    def test_matmul_grads(self, rng):
        av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        a = Tensor(av.copy(), requires_grad=True)
        b = Tensor(bv.copy(), requires_grad=True)
        (a @ b).sum().backward()
        g = np.ones((3, 2))
        np.testing.assert_array_equal(a.grad, g @ bv.T)
        np.testing.assert_array_equal(b.grad, av.T @ g)

    def test_adam_step_matches_raw_formula(self, rng):
        from repro.nn.optim import Adam

        pv = rng.normal(size=(5,))
        gv = rng.normal(size=(5,))
        p = Tensor(pv.copy(), requires_grad=True)
        p.grad = gv.copy()
        Adam([p], lr=0.1).step()
        # (1 - 0.9) etc., not 0.1: the literals differ in the last ulp
        m = (1 - 0.9) * gv
        v = (1 - 0.999) * gv ** 2
        step = 0.1 * np.sqrt(1 - 0.999) / (1 - 0.9)
        expected = pv - step * m / (np.sqrt(v) + 1e-8)
        np.testing.assert_array_equal(p.data, expected)
