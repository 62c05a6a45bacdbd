"""Pinning tests for the one-node composites ``Normal.log_prob`` and the
Normal-Normal KL.

Each composite replaces an expression of about ten tensor ops.  The
decomposed expressions are kept here as references, and the composites must
match them byte for byte (``np.array_equal``): values and every input
gradient, for scalar, broadcast and full-shape parameters, every
``requires_grad`` mix, under ``no_grad`` and with the lazy engine on and off.
"""

import itertools
import math

import numpy as np
import pytest

from repro.nn import lazy
from repro.nn.tensor import Tensor, no_grad
from repro.ppl import distributions as dist

_LOG_2PI = math.log(2.0 * math.pi)


def _log_prob_reference(value, loc, scale):
    var = scale ** 2
    return -((value - loc) ** 2) / (2.0 * var) - scale.log() - 0.5 * _LOG_2PI


def _kl_reference(p_loc, p_scale, q_loc, q_scale):
    var_ratio = (p_scale / q_scale) ** 2
    t1 = ((p_loc - q_loc) / q_scale) ** 2
    return 0.5 * (var_ratio + t1 - 1.0 - var_ratio.log())


def _log_prob_composite(value, loc, scale):
    return dist.Normal(loc, scale).log_prob(value)


def _kl_composite(p_loc, p_scale, q_loc, q_scale):
    return dist.kl_divergence(dist.Normal(p_loc, p_scale), dist.Normal(q_loc, q_scale))


def _arrays(shapes, positive, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.3, 2.0, shape) if pos else rng.standard_normal(shape)
            for shape, pos in zip(shapes, positive)]


def _run(fn, arrays, grads):
    """Evaluate ``fn`` on fresh tensors; backprop a fixed random seed
    gradient if any input requires grad.  Returns ``(value, [input grads])``."""
    tensors = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, grads)]
    out = fn(*tensors)
    value = out.data.copy()
    if out.requires_grad:
        out.backward(np.random.default_rng(7).standard_normal(out.shape))
    return value, [t.grad for t in tensors]


def _assert_same(fn_a, fn_b, arrays, grads):
    value_a, grads_a = _run(fn_a, arrays, grads)
    value_b, grads_b = _run(fn_b, arrays, grads)
    assert value_a.dtype == value_b.dtype and np.array_equal(value_a, value_b)
    for ga, gb in zip(grads_a, grads_b):
        assert (ga is None) == (gb is None)
        if ga is not None:
            assert ga.shape == gb.shape and np.array_equal(ga, gb)


# (value, loc, scale) shapes: scalar parameters, broadcast parameters,
# full shape, parameters wider than the value (a sample axis), and a scale
# wider than value and loc (the gradient into value and loc is summed at
# the shape of ``value - loc`` before it is multiplied by it)
LOG_PROB_SHAPES = {
    "scalar": [(5,), (), ()],
    "broadcast": [(4, 3), (3,), (4, 1)],
    "full": [(4, 3), (4, 3), (4, 3)],
    "wide-params": [(3,), (2, 3), (2, 1)],
    "wide-scale": [(3,), (), (2, 3)],
}

# (p.loc, p.scale, q.loc, q.scale) shapes; in "wide-loc" the two terms of
# ``r + z²`` have different shapes, so ``r``'s gradient is unbroadcast
KL_SHAPES = {
    "scalar-prior": [(4, 3), (4, 3), (), ()],
    "broadcast": [(4, 3), (1, 3), (3,), (4, 1)],
    "full": [(2, 3), (2, 3), (2, 3), (2, 3)],
    "wide-prior": [(3,), (3,), (2, 3), (2, 1)],
    "wide-loc": [(2, 3), (3,), (3,), ()],
}

GRAD_MIXES = list(itertools.product([False, True], repeat=4))


class TestNormalLogProbComposite:
    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("grads", list(itertools.product([False, True], repeat=3)))
    @pytest.mark.parametrize("case", sorted(LOG_PROB_SHAPES))
    def test_matches_decomposed_expression(self, case, grads, lazy_on):
        arrays = _arrays(LOG_PROB_SHAPES[case], [False, False, True])
        with lazy.lazy_mode(lazy_on):
            _assert_same(_log_prob_composite, _log_prob_reference, arrays, grads)

    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(LOG_PROB_SHAPES))
    def test_no_grad_matches_and_records_no_tape(self, case, lazy_on):
        arrays = _arrays(LOG_PROB_SHAPES[case], [False, False, True])
        with lazy.lazy_mode(lazy_on), no_grad():
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = _log_prob_composite(*tensors)
            ref = _log_prob_reference(*tensors)
            assert not out.requires_grad and out._prev == ()
            assert np.array_equal(out.data, ref.data)

    def test_array_value_and_one_node(self):
        loc = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        scale = Tensor(np.array([1.5, 0.7]), requires_grad=True)
        out = dist.Normal(loc, scale).log_prob(np.array([0.1, 0.2]))
        assert out._op == "normal_log_prob"
        assert [p for p in out._prev if p.requires_grad] == [loc, scale]
        ref = _log_prob_reference(Tensor(np.array([0.1, 0.2])), loc, scale)
        assert np.array_equal(out.data, ref.data)

    def test_shared_value_and_loc(self):
        """The same tensor as value and loc gets its two gradients separately."""
        arrays = _arrays([(4,), (4,)], [False, True])
        _assert_same(lambda v, s: _log_prob_composite(v, v, s),
                     lambda v, s: _log_prob_reference(v, v, s), arrays, [True, True])

    def test_lognormal_and_delta_kl_inherit(self):
        arrays = _arrays([(3,), (3,), (3,)], [True, False, True])

        def lognormal(v, m, s):
            return dist.LogNormal(m, s).log_prob(v)

        def lognormal_ref(v, m, s):
            return _log_prob_reference(v.log(), m, s) - v.log()

        _assert_same(lognormal, lognormal_ref, arrays, [True, True, True])

        def kl_delta(v, m, s):
            return dist.kl_divergence(dist.Delta(v), dist.Normal(m, s))

        def kl_delta_ref(v, m, s):
            return -_log_prob_reference(v, m, s) + Tensor(np.asarray(0.0))

        _assert_same(kl_delta, kl_delta_ref, arrays, [True, True, True])

    def test_outside_gradient_arriving_first_is_bit_identical(self):
        """``scale`` also feeds a consumer of the log-density; its gradient
        reaches ``scale`` before the expression's two on the tape and in the
        composite alike."""
        arrays = _arrays([(6,), (6,), (6,)], [False, False, True], seed=3)

        def build(fn):
            return lambda v, m, s: (fn(v, m, s) * s).sum()

        _assert_same(build(_log_prob_composite), build(_log_prob_reference), arrays,
                     [True, True, True])

    @pytest.mark.parametrize("seed", range(20))
    def test_sample_scored_by_its_own_density_matches_to_rounding(self, seed):
        """The one declared tolerance.  Scoring a reparameterized sample
        ``z = loc + scale * eps`` under its own Normal (``Trace_ELBO``'s
        guide term) gives ``scale`` three gradients.  On the tape the one
        through ``z`` arrives first, because ``z``'s node runs before the
        expression's ``scale²`` and ``log scale`` nodes; the composite's two
        arrive before it.  So the three are summed in another order:
        ``scale.grad`` agrees to rtol 1e-14 (2.2e-16 is the largest
        difference seen), and every other value and gradient is byte-equal.
        """
        arrays = _arrays([(6,), (6,)], [False, True], seed=seed)
        eps = Tensor(np.linspace(-1.0, 1.0, 6))

        def build(fn):
            return lambda m, s: fn(m + s * eps, m, s).sum()

        value_a, (loc_a, scale_a) = _run(build(_log_prob_composite), arrays, [True, True])
        value_b, (loc_b, scale_b) = _run(build(_log_prob_reference), arrays, [True, True])
        assert np.array_equal(value_a, value_b) and np.array_equal(loc_a, loc_b)
        np.testing.assert_allclose(scale_a, scale_b, rtol=1e-14, atol=0)


class TestKLNormalNormalComposite:
    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("grads", GRAD_MIXES)
    @pytest.mark.parametrize("case", sorted(KL_SHAPES))
    def test_matches_decomposed_expression(self, case, grads, lazy_on):
        arrays = _arrays(KL_SHAPES[case], [False, True, False, True])
        with lazy.lazy_mode(lazy_on):
            _assert_same(_kl_composite, _kl_reference, arrays, grads)

    @pytest.mark.parametrize("lazy_on", [True, False])
    @pytest.mark.parametrize("case", sorted(KL_SHAPES))
    def test_no_grad_matches_and_records_no_tape(self, case, lazy_on):
        arrays = _arrays(KL_SHAPES[case], [False, True, False, True])
        with lazy.lazy_mode(lazy_on), no_grad():
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = _kl_composite(*tensors)
            assert not out.requires_grad and out._prev == ()
            assert np.array_equal(out.data, _kl_reference(*tensors).data)

    def test_one_node(self):
        tensors = [Tensor(a, requires_grad=True)
                   for a in _arrays(KL_SHAPES["full"], [False, True, False, True])]
        out = _kl_composite(*tensors)
        assert out._op == "kl_normal_normal" and list(out._prev) == tensors

    def test_independent_wrappers_sum_the_composite(self):
        arrays = _arrays(KL_SHAPES["full"], [False, True, False, True])

        def independent(pl, ps, ql, qs):
            return dist.kl_divergence(dist.Normal(pl, ps).to_event(2),
                                      dist.Normal(ql, qs).to_event(2))

        def independent_ref(pl, ps, ql, qs):
            return _kl_reference(pl, ps, ql, qs).sum(axis=(0, 1))

        _assert_same(independent, independent_ref, arrays, [True, True, True, True])
