"""Unit tests for the autograd tensor engine."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, unbroadcast


class TestTensorBasics:
    def test_construction_from_list(self):
        t = nn.tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert not t.requires_grad

    def test_construction_requires_grad_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]), requires_grad=True)
        assert np.issubdtype(t.dtype, np.floating)

    def test_integer_and_bool_inputs_requiring_grad_become_float64(self):
        for data in (np.array([1, 2, 3]), np.array([1, 2], dtype=np.int32),
                     np.array([True, False]), [1, 2]):
            t = Tensor(data, requires_grad=True)
            assert t.dtype == np.float64
            (t * 2.0).sum().backward()
            assert t.grad.dtype == np.float64
        # float inputs keep their precision; without grad nothing is cast
        assert Tensor(np.ones(2, dtype=np.float32), requires_grad=True).dtype == np.float32
        assert Tensor(np.array([1, 2])).dtype == np.array([1, 2]).dtype

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        d.data[0] = 5.0
        assert t.data[0] == 5.0

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len_and_size(self):
        t = nn.zeros(4, 5)
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_factory_functions(self):
        assert nn.ones(2, 3).data.sum() == 6
        assert nn.zeros((2, 2)).data.sum() == 0
        assert nn.full((2,), 3.0).data.tolist() == [3.0, 3.0]
        assert nn.eye(3).data.trace() == 3
        assert nn.arange(5).shape == (5,)

    def test_zeros_like_ones_like(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert nn.zeros_like(t).shape == (2, 3)
        assert nn.ones_like(t).data.sum() == 6


class TestArithmeticBackward:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a - b).sum().backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0
        c = Tensor([2.0], requires_grad=True)
        (-c).sum().backward()
        assert c.grad[0] == -1.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).sum().backward()
        assert a.grad[0] == pytest.approx(1 / 3)
        assert b.grad[0] == pytest.approx(-6 / 9)

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_radd_rmul_with_scalars(self):
        a = Tensor([2.0], requires_grad=True)
        (3.0 + 2.0 * a).sum().backward()
        assert a.grad[0] == pytest.approx(2.0)

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        out = 1.0 - a
        assert out.data[0] == pytest.approx(-1.0)
        out2 = 1.0 / Tensor([4.0])
        assert out2.data[0] == pytest.approx(0.25)

    def test_grad_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a + a).sum().backward()
        assert a.grad[0] == pytest.approx(2 * 2.0 + 1.0)

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()


class TestCopyFreeAccumulation:
    """The first gradient contribution is stored without a copy, so every
    case where one array reaches several places must still add correctly."""

    def test_fan_out_to_the_same_tensor_twice(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([3.0, 5.0])
        (a + a).backward(seed)
        np.testing.assert_array_equal(a.grad, [6.0, 10.0])
        np.testing.assert_array_equal(seed, [3.0, 5.0])

    def test_fan_out_through_an_identity_op(self):
        x = Tensor([1.0, -2.0, 4.0], requires_grad=True)
        y = x * 1 + x
        y.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_seed_array_is_not_aliased(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([1.0, 1.0])
        (x + 0.0).backward(seed)
        seed[:] = 7.0
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_reshape_and_transpose_view_gradients(self, rng):
        xv = rng.normal(size=(2, 3))
        c = rng.normal(size=(3, 2))
        x = Tensor(xv, requires_grad=True)
        loss = (x.T * Tensor(c)).sum() + (x.reshape(6) * 2.0).sum() + x.T.reshape(6).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, c.T + 2.0 + 1.0)
        # a single view contribution is stored as given and still reads right
        z = Tensor(xv, requires_grad=True)
        (z.T * Tensor(c)).sum().backward()
        np.testing.assert_array_equal(z.grad, c.T)
        assert z.grad.shape == (2, 3)

    def test_broadcast_view_gradient_then_second_contribution(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        first = x.sum()
        first.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])
        x.grad = None
        (x.sum() + (x * 3.0).sum()).backward()
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_retained_graph_second_backward(self, rng):
        av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        a = Tensor(av, requires_grad=True)
        b = Tensor(bv, requires_grad=True)
        h = (a @ b).tanh()
        loss = (h * h).sum() + h.reshape(6).sum()
        loss.backward()
        first_a, first_b = a.grad, b.grad
        snapshot_a, snapshot_b = first_a.copy(), first_b.copy()
        loss.backward()
        # each pass adds exactly one single-pass gradient
        np.testing.assert_array_equal(a.grad, snapshot_a + snapshot_a)
        np.testing.assert_array_equal(b.grad, snapshot_b + snapshot_b)
        # and arrays read after the first pass are left untouched
        np.testing.assert_array_equal(first_a, snapshot_a)
        np.testing.assert_array_equal(first_b, snapshot_b)
        g_h = 2.0 * np.tanh(av @ bv) + 1.0
        g_pre = g_h * (1.0 - np.tanh(av @ bv) ** 2)
        np.testing.assert_allclose(snapshot_a, g_pre @ bv.T, rtol=1e-12)
        np.testing.assert_allclose(snapshot_b, av.T @ g_pre, rtol=1e-12)


class TestBroadcasting:
    def test_unbroadcast_sums_new_axes(self):
        grad = np.ones((4, 3))
        assert unbroadcast(grad, (3,)).tolist() == [4.0, 4.0, 4.0]

    def test_unbroadcast_sums_expanded_axes(self):
        grad = np.ones((4, 3))
        np.testing.assert_allclose(unbroadcast(grad, (4, 1)), np.full((4, 1), 3.0))

    def test_broadcast_add_backward(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_broadcast_mul_scalar_tensor(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (a * s).sum().backward()
        assert s.grad == pytest.approx(4.0)

    def test_broadcast_to_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        a.broadcast_to((5, 3)).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0, 5.0])


class TestMatmul:
    def test_matmul_2d(self, grad_check, rng):
        w = rng.standard_normal((4, 3))
        grad_check(lambda x: (x @ Tensor(w)).sum(), rng.standard_normal((2, 4)))

    def test_matmul_vector_matrix(self, rng):
        v = Tensor(rng.standard_normal(3), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        (v @ m).sum().backward()
        assert v.grad.shape == (3,)
        assert m.grad.shape == (3, 2)

    def test_matmul_vector_vector(self, rng):
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        (a @ b).backward()
        np.testing.assert_allclose(a.grad, b.data)

    def test_matmul_batched(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_rmatmul(self, rng):
        m = rng.standard_normal((2, 3))
        t = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = m @ t
        assert out.shape == (2, 4)


class TestElementwiseOps:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid", "softplus",
                                    "sin", "cos", "erf", "log1p", "abs"])
    def test_gradcheck_elementwise(self, op, grad_check, rng):
        x = rng.uniform(0.2, 2.0, size=(3, 4))  # positive domain for log/sqrt
        grad_check(lambda t: getattr(t, op)().sum(), x, atol=1e-4)

    def test_relu_gradient_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_clamp_gradient_mask(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        x.clamp(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_logsumexp_matches_numpy(self, rng):
        x = rng.standard_normal((4, 6))
        t = Tensor(x)
        expected = np.log(np.exp(x).sum(axis=-1))
        np.testing.assert_allclose(t.logsumexp(axis=-1).data, expected, rtol=1e-10)

    def test_logsumexp_gradcheck(self, grad_check, rng):
        grad_check(lambda t: t.logsumexp(axis=-1).sum(), rng.standard_normal((3, 4)), atol=1e-4)


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_sum_negative_axis(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        x.sum(axis=-1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_gradient_scaled(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 1 / 8))

    def test_var_and_std(self, rng):
        data = rng.standard_normal((5, 10))
        t = Tensor(data)
        np.testing.assert_allclose(t.var(axis=1).data, data.var(axis=1), rtol=1e-10)
        np.testing.assert_allclose(t.std(axis=1).data, data.std(axis=1), rtol=1e-10)

    def test_max_with_ties_splits_gradient(self):
        x = Tensor([2.0, 2.0, 1.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])

    def test_max_axis_gradcheck(self, grad_check, rng):
        grad_check(lambda t: (t.max(axis=1) ** 2).sum(), rng.standard_normal((3, 5)), atol=1e-4)

    def test_min(self, rng):
        data = rng.standard_normal((3, 4))
        np.testing.assert_allclose(Tensor(data).min(axis=0).data, data.min(axis=0))

    def test_argmax(self, rng):
        data = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(Tensor(data).argmax(axis=1), data.argmax(axis=1))


class TestCumsum:
    def test_inclusive_matches_numpy(self, rng):
        data = rng.standard_normal((3, 5, 7))
        for axis in (-1, 0, 1, 2):
            np.testing.assert_allclose(Tensor(data).cumsum(axis=axis).data,
                                       np.cumsum(data, axis=axis))

    def test_exclusive_matches_triangular_matmul(self, rng):
        # the renderer's transmittance used to be built from this O(n^2) matmul
        data = rng.standard_normal((4, 6))
        lower = np.tril(np.ones((6, 6)), k=-1).T
        np.testing.assert_allclose(Tensor(data).cumsum(axis=-1, exclusive=True).data,
                                   data @ lower, atol=1e-12)

    def test_exclusive_starts_at_zero(self, rng):
        out = Tensor(rng.standard_normal((2, 5))).cumsum(axis=-1, exclusive=True)
        np.testing.assert_allclose(out.data[:, 0], 0.0)

    def test_inclusive_gradcheck(self, grad_check, rng):
        grad_check(lambda t: (t.cumsum(axis=-1) ** 2).sum(),
                   rng.standard_normal((3, 6)), atol=1e-4)

    def test_exclusive_gradcheck(self, grad_check, rng):
        grad_check(lambda t: (t.cumsum(axis=-1, exclusive=True) ** 2).sum(),
                   rng.standard_normal((3, 6)), atol=1e-4)

    def test_gradient_matches_triangular_matmul_reference(self, rng):
        data = rng.standard_normal((4, 8))
        seed = rng.standard_normal((4, 8))
        x = Tensor(data, requires_grad=True)
        x.cumsum(axis=-1, exclusive=True).backward(seed)
        ref = Tensor(data, requires_grad=True)
        (ref @ Tensor(np.tril(np.ones((8, 8)), k=-1).T)).backward(seed)
        np.testing.assert_allclose(x.grad, ref.grad, atol=1e-12)

    def test_axis_out_of_bounds_raises(self, rng):
        with pytest.raises(ValueError):
            Tensor(rng.standard_normal((2, 3))).cumsum(axis=2)

    def test_middle_axis_gradient(self, rng):
        data = rng.standard_normal((2, 4, 3))
        x = Tensor(data, requires_grad=True)
        x.cumsum(axis=1).sum().backward()
        # d/dx_j sum_i out_i = number of outputs j contributes to
        expected = np.broadcast_to(np.arange(4, 0, -1.0)[None, :, None], (2, 4, 3))
        np.testing.assert_allclose(x.grad, expected)


class TestShaping:
    def test_reshape_backward(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        x.reshape(3, 4).sum().backward()
        assert x.grad.shape == (2, 6)

    def test_transpose_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = x.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_torch_style_transpose_two_dims(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        assert x.transpose(0, 1).shape == (3, 2)

    def test_T_property(self, rng):
        assert Tensor(rng.standard_normal((2, 5))).T.shape == (5, 2)

    def test_squeeze_unsqueeze(self):
        x = Tensor(np.ones((1, 3, 1)))
        assert x.squeeze().shape == (3,)
        assert x.squeeze(0).shape == (3, 1)
        assert Tensor(np.ones(3)).unsqueeze(0).shape == (1, 3)

    def test_flatten(self):
        assert Tensor(np.ones((2, 3, 4))).flatten(1).shape == (2, 12)

    def test_getitem_backward_scatter(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_getitem_slice(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        x[:, 1:3].sum().backward()
        expected = np.zeros((4, 5))
        expected[:, 1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestCombinators:
    def test_stack_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = nn.stack([a, b])
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = nn.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_where_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        nn.where(np.array([True, False]), x, y).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0])
        np.testing.assert_allclose(y.grad, [0.0, 1.0])

    def test_maximum_minimum(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        np.testing.assert_allclose(nn.maximum(a, b).data, [3.0, 5.0])
        np.testing.assert_allclose(nn.minimum(a, b).data, [1.0, 2.0])


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            out = x * 2.0
        assert not out.requires_grad

    def test_enable_grad_restores(self):
        with nn.no_grad():
            with nn.enable_grad():
                assert nn.is_grad_enabled()
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_comparisons_return_arrays(self):
        x = Tensor([1.0, 3.0])
        assert (x > 2.0).dtype == bool
        assert (x <= 3.0).all()
        assert (x.eq(np.array([1.0, 0.0]))).tolist() == [True, False]

    def test_clone_backward(self):
        x = Tensor([2.0], requires_grad=True)
        (x.clone() * 3.0).sum().backward()
        assert x.grad[0] == pytest.approx(3.0)

    def test_copy_inplace(self):
        x = Tensor([1.0, 2.0])
        x.copy_(np.array([5.0, 6.0]))
        np.testing.assert_allclose(x.data, [5.0, 6.0])
