"""Equivalence suite for the leading-sample-dimension (vectorized) engine.

The batched paths are required to be *numerically equivalent* to the looped
references under the same RNG seed, not merely statistically similar: guide
samples are drawn in the identical stream order, and the batched forward
pass computes the same per-sample arithmetic.  The looped references live in
``loop_oracles``.  These tests pin that contract for

* ``VariationalBNN.predict`` / ``evaluate`` (byte-equal to the loop oracle),
* ``MCMC_BNN.predict``        (byte-equal to the loop oracle),
* ``Trace_ELBO`` / ``TraceMeanField_ELBO``
  (``num_particles``-looped vs ``vectorize_particles=True``), including the
  gradients reaching the variational parameters,

for both a regression (HomoskedasticGaussian) and a classification
(Categorical) likelihood, for MLPs and for a conv net exercising the
``Conv2d``/``MaxPool2d``/``Flatten`` sample-dimension support.
"""

from functools import partial

import numpy as np
import pytest

from loop_oracles import (looped_evaluate, looped_mcmc_predict, looped_predict,
                          looped_task_accuracies)
from repro import nn, ppl
import repro.core as tyxe
from repro.nn.tensor import Tensor
from repro.ppl import distributions as dist
from repro.ppl.infer import Trace_ELBO, TraceMeanField_ELBO


def _mlp(rng, in_dim=1, hidden=16, out_dim=1):
    return nn.Sequential(nn.Linear(in_dim, hidden, rng=rng), nn.Tanh(),
                         nn.Linear(hidden, out_dim, rng=rng))


def _regression_bnn(rng, n, guide_kwargs=None):
    net = _mlp(rng)
    return tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                               tyxe.likelihoods.HomoskedasticGaussian(n, 0.1),
                               partial(tyxe.guides.AutoNormal, init_scale=0.05,
                                       **(guide_kwargs or {})))


def _classification_bnn(rng, n, num_classes=3):
    net = _mlp(rng, in_dim=2, hidden=12, out_dim=num_classes)
    return tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                               tyxe.likelihoods.Categorical(n),
                               partial(tyxe.guides.AutoNormal, init_scale=0.05))


class TestVariationalPredictEquivalence:
    def test_regression_predict_matches_looped(self, rng):
        x = rng.standard_normal((40, 1))
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)  # instantiate guide parameters
        ppl.set_rng_seed(123)
        looped = looped_predict(bnn, x, num_predictions=16, aggregate=False)
        ppl.set_rng_seed(123)
        vectorized = bnn.predict(x, num_predictions=16, aggregate=False)
        assert vectorized.shape == looped.shape == (16, 40, 1)
        np.testing.assert_array_equal(vectorized.data, looped.data)

    def test_regression_aggregated_and_evaluate_match(self, rng):
        x = rng.standard_normal((25, 1))
        y = np.sin(2 * x)
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(7)
        agg_looped = looped_predict(bnn, x, num_predictions=8)
        ppl.set_rng_seed(7)
        agg_vec = bnn.predict(x, num_predictions=8)
        np.testing.assert_array_equal(agg_vec.data, agg_looped.data)
        ppl.set_rng_seed(7)
        ll_l, err_l = looped_evaluate(bnn, x, y, num_predictions=8)
        ppl.set_rng_seed(7)
        ll_v, err_v = bnn.evaluate(x, y, num_predictions=8)
        assert ll_v == ll_l
        assert err_v == err_l

    def test_classification_predict_matches_looped(self, rng):
        x = rng.standard_normal((30, 2))
        bnn = _classification_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(5)
        looped = looped_predict(bnn, x, num_predictions=12, aggregate=False)
        ppl.set_rng_seed(5)
        vectorized = bnn.predict(x, num_predictions=12, aggregate=False)
        np.testing.assert_array_equal(vectorized.data, looped.data)
        ppl.set_rng_seed(5)
        agg_l = looped_predict(bnn, x, num_predictions=12)
        ppl.set_rng_seed(5)
        agg_v = bnn.predict(x, num_predictions=12)
        np.testing.assert_array_equal(agg_v.data, agg_l.data)

    def test_fresh_guide_first_call_matches_looped(self, rng):
        # the very first predict also instantiates the variational parameters;
        # the vectorized path must reproduce the looped path's interleaved
        # init-draw/sample-draw RNG stream on that cold start
        x = rng.standard_normal((10, 1))

        def fresh(seed):
            ppl.clear_param_store()
            ppl.set_rng_seed(seed)
            return _regression_bnn(np.random.default_rng(2), len(x))

        looped = looped_predict(fresh(9), x, num_predictions=4, aggregate=False)
        vectorized = fresh(9).predict(x, num_predictions=4, aggregate=False)
        np.testing.assert_array_equal(vectorized.data, looped.data)

    def test_frozen_loc_guide_matches_looped(self, rng):
        # the TyXe "sd only" guide configuration goes through the same path
        x = rng.standard_normal((10, 1))
        bnn = _regression_bnn(rng, len(x), guide_kwargs={"train_loc": False,
                                                         "max_guide_scale": 0.1})
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(3)
        looped = looped_predict(bnn, x, num_predictions=4, aggregate=False)
        ppl.set_rng_seed(3)
        vectorized = bnn.predict(x, num_predictions=4, aggregate=False)
        np.testing.assert_array_equal(vectorized.data, looped.data)


class TestVectorizedGuideCoverage:
    def test_latent_likelihood_scale_matches_looped(self, rng):
        # a guide-covered latent observation scale is replayed as a (K,)
        # stack; it must score each particle's predictions with that
        # particle's scale only (regression: it used to broadcast (K,) vs
        # (K, N, 1) into (K, N, K) and silently compute a wrong loss)
        x = rng.standard_normal((20, 1))
        y = np.sin(2 * x)
        net = _mlp(rng)
        bnn = tyxe.VariationalBNN(
            net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(len(x), dist.Normal(1.0, 0.1)),
            partial(tyxe.guides.AutoNormal, init_scale=0.05),
            likelihood_guide_builder=partial(tyxe.guides.AutoNormal, init_scale=0.05))
        bnn.predict(x, num_predictions=1)
        bnn.guide(x, y)  # instantiate the likelihood guide's parameters too
        ppl.set_rng_seed(13)
        loss_looped = Trace_ELBO(num_particles=4).loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(13)
        loss_vec = Trace_ELBO(num_particles=4, vectorize_particles=True).loss(
            bnn.model, bnn.guide, x, y)
        assert loss_vec == pytest.approx(loss_looped, rel=1e-10)

    def _latent_scale_bnn(self, rng, x):
        net = _mlp(rng)
        return tyxe.VariationalBNN(
            net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(len(x), dist.Normal(1.0, 0.1)),
            partial(tyxe.guides.AutoNormal, init_scale=0.05))

    @pytest.mark.parametrize("elbo_cls", [Trace_ELBO, TraceMeanField_ELBO])
    def test_uncovered_latent_site_single_particle_matches_exactly(self, rng, elbo_cls):
        # a latent scale sampled from the prior (no likelihood guide) used to
        # make the vectorized estimator refuse; it now draws per-particle
        # prior samples inside the replay.  With one particle the batched
        # draw consumes the RNG stream exactly like the looped draw, so the
        # losses — and the guide-parameter gradients — agree bit-for-bit.
        x = rng.standard_normal((10, 1))
        y = np.sin(x)
        bnn = self._latent_scale_bnn(rng, x)
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(11)
        loss_looped = elbo_cls(num_particles=1).differentiable_loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(11)
        loss_vec = elbo_cls(num_particles=1, vectorize_particles=True).differentiable_loss(
            bnn.model, bnn.guide, x, y)
        assert float(loss_vec.item()) == pytest.approx(float(loss_looped.item()), rel=1e-12)
        params = bnn.guide_parameters()
        assert params
        for p in params:
            p.grad = None
        loss_looped.backward()
        grads = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        loss_vec.backward()
        for g, p in zip(grads, params):
            np.testing.assert_allclose(p.grad, g, atol=1e-12, rtol=1e-12)

    @pytest.mark.parametrize("elbo_cls", [Trace_ELBO, TraceMeanField_ELBO])
    def test_uncovered_latent_site_deterministic_guide_matches_exactly(self, rng, elbo_cls):
        # with an AutoDelta guide the guide stack consumes no randomness, so
        # the only RNG the estimator touches is the uncovered site's prior
        # draws — which the batched (K,) draw consumes exactly like K looped
        # per-particle draws.  Multi-particle losses therefore match exactly.
        x = rng.standard_normal((8, 1))
        y = np.sin(x)
        net = _mlp(rng)
        bnn = tyxe.VariationalBNN(
            net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(len(x), dist.Normal(1.0, 0.1)),
            tyxe.guides.AutoDelta)
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(29)
        loss_looped = elbo_cls(num_particles=5).loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(29)
        loss_vec = elbo_cls(num_particles=5, vectorize_particles=True).loss(
            bnn.model, bnn.guide, x, y)
        assert loss_vec == pytest.approx(loss_looped, rel=1e-12)

    def test_uncovered_latent_site_matches_looped_in_expectation(self, rng):
        # with a stochastic guide the coarse draw order differs (all guide
        # draws, then the prior stack), so multi-particle losses agree in
        # distribution rather than bit-for-bit: compare the estimators'
        # means over repeated evaluations against their standard errors
        x = rng.standard_normal((10, 1))
        y = np.sin(x)
        bnn = self._latent_scale_bnn(rng, x)
        bnn.predict(x, num_predictions=1)
        repeats = 60
        ppl.set_rng_seed(101)
        looped = np.array([Trace_ELBO(num_particles=3).loss(bnn.model, bnn.guide, x, y)
                           for _ in range(repeats)])
        ppl.set_rng_seed(202)
        vectorized = np.array([
            Trace_ELBO(num_particles=3, vectorize_particles=True).loss(bnn.model, bnn.guide, x, y)
            for _ in range(repeats)])
        stderr = np.hypot(looped.std(ddof=1), vectorized.std(ddof=1)) / np.sqrt(repeats)
        assert abs(looped.mean() - vectorized.mean()) < 5 * stderr

    def test_uncovered_bayesian_site_vectorized_predict(self, rng):
        # a Bayesian weight site hidden from the guide used to make
        # vectorized_forward refuse; it now draws stacked per-sample prior
        # values.  With an AutoDelta guide (no guide randomness) the
        # predictions are bit-identical to the looped path.
        x = rng.standard_normal((6, 1))
        net = _mlp(rng)
        bnn = tyxe.VariationalBNN(
            net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(6, 0.1),
            lambda model: tyxe.guides.AutoDelta(
                ppl.poutine.block(model, hide=["0.bias"])))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(17)
        looped = looped_predict(bnn, x, num_predictions=4, aggregate=False)
        ppl.set_rng_seed(17)
        vectorized = bnn.predict(x, num_predictions=4, aggregate=False)
        np.testing.assert_array_equal(vectorized.data, looped.data)
        # the uncovered site's prior draws must differ per sample: the
        # predictions may not collapse onto one shared weight draw
        assert float(vectorized.data.std(axis=0).mean()) > 0

    def test_uncovered_bayesian_site_stochastic_guide_predicts(self, rng):
        # with a stochastic (AutoNormal) partial guide, posterior_weight_samples
        # draws per sample in the loop's order (guide sites, then the
        # uncovered prior site), so the batched predict is byte-equal to the
        # loop and leaves the RNG in the same state
        x = rng.standard_normal((6, 1))
        net = _mlp(rng)
        bnn = tyxe.VariationalBNN(
            net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(6, 0.1),
            lambda model: tyxe.guides.AutoNormal(
                ppl.poutine.block(model, hide=["0.bias"]), init_scale=0.05))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(23)
        looped = looped_predict(bnn, x, num_predictions=16, aggregate=False)
        looped_state = ppl.get_rng().bit_generator.state
        ppl.set_rng_seed(23)
        batched = bnn.predict(x, num_predictions=16, aggregate=False)
        np.testing.assert_array_equal(batched.data, looped.data)
        assert ppl.get_rng().bit_generator.state == looped_state
        assert float(batched.data.std(axis=0).mean()) > 0
        # posterior_weight_samples completes uncovered sites from the prior
        draws = bnn.posterior_weight_samples(3, Tensor(x))
        assert set(draws) == set(bnn.param_dists)
        assert draws["0.bias"].shape[0] == 3
        assert float(draws["0.bias"].data.std(axis=0).mean()) > 0

    def test_partially_guided_stacks_follow_loop_order(self, rng):
        # the stacks themselves are the values the looped guided_forward
        # substitutes: one guide draw, then the uncovered prior draw, per pass
        x = Tensor(rng.standard_normal((4, 1)))
        bnn = tyxe.VariationalBNN(
            _mlp(rng), tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(4, 0.1),
            lambda model: tyxe.guides.AutoNormal(
                ppl.poutine.block(model, hide=["2.weight"]), init_scale=0.05))
        bnn.predict(x, num_predictions=1)
        assert "2.weight" in bnn.param_dists and "2.weight" not in bnn.net_guide.latent_names
        ppl.set_rng_seed(5)
        looped = {name: [] for name in bnn.param_dists}
        for _ in range(5):
            tr = ppl.poutine.trace(ppl.poutine.replay(
                bnn.net_model, trace=ppl.poutine.trace(bnn.net_guide).get_trace(x))).get_trace(x)
            for name in looped:
                looped[name].append(tr[name]["value"].data)
        ppl.set_rng_seed(5)
        stacks = bnn.posterior_weight_samples(5, x)
        assert list(stacks) == list(bnn.param_dists)
        for name, values in looped.items():
            np.testing.assert_array_equal(stacks[name].data, np.stack(values))


class TestConvNetPredictEquivalence:
    def test_convnet_with_pool_and_flatten_matches_looped(self, rng):
        x = rng.standard_normal((4, 1, 8, 8))
        net = nn.models.small_convnet(in_channels=1, image_size=8, num_classes=3,
                                      width=4, rng=rng)
        bnn = tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                                  tyxe.likelihoods.Categorical(4),
                                  partial(tyxe.guides.AutoNormal, init_scale=0.05))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(21)
        looped = looped_predict(bnn, x, num_predictions=6, aggregate=False)
        ppl.set_rng_seed(21)
        vectorized = bnn.predict(x, num_predictions=6, aggregate=False)
        assert vectorized.shape == (6, 4, 3)
        np.testing.assert_array_equal(vectorized.data, looped.data)


class TestPytorchBNNVectorizedForward:
    def _pytorch_bnn(self, rng):
        net = _mlp(rng, in_dim=3, hidden=10, out_dim=4)
        return tyxe.PytorchBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                               partial(tyxe.guides.AutoNormal, init_scale=0.05))

    def test_vectorized_forward_matches_looped_forwards(self, rng):
        bnn = self._pytorch_bnn(rng)
        x = Tensor(rng.standard_normal((7, 3)))
        bnn.pytorch_parameters(x)
        ppl.set_rng_seed(4)
        looped = np.stack([bnn(x).data.copy() for _ in range(5)])
        ppl.set_rng_seed(4)
        with nn.no_grad():
            vectorized = bnn.vectorized_forward(x, num_samples=5)
        assert vectorized.shape == (5, 7, 4)
        np.testing.assert_array_equal(vectorized.data, looped)

    def test_precomputed_samples_match_internal_draws(self, rng):
        bnn = self._pytorch_bnn(rng)
        x = Tensor(rng.standard_normal((5, 3)))
        bnn.pytorch_parameters(x)
        with nn.no_grad():
            ppl.set_rng_seed(8)
            internal = bnn.vectorized_forward(x, num_samples=3)
            ppl.set_rng_seed(8)
            draws = bnn.posterior_weight_samples(3, x)
            external = bnn.vectorized_forward(x, samples=draws)
        np.testing.assert_array_equal(external.data, internal.data)

    def test_conflicting_num_samples_and_samples_rejected(self, rng):
        bnn = self._pytorch_bnn(rng)
        x = Tensor(rng.standard_normal((4, 3)))
        bnn.pytorch_parameters(x)
        with nn.no_grad():
            draws = bnn.posterior_weight_samples(2, x)
            with pytest.raises(ValueError, match="not both"):
                bnn.vectorized_forward(x, num_samples=5, samples=draws)

    def test_samples_missing_a_bayesian_site_rejected(self, rng):
        # a site without a stack would silently keep its deterministic value
        bnn = self._pytorch_bnn(rng)
        x = Tensor(rng.standard_normal((4, 3)))
        bnn.pytorch_parameters(x)
        with nn.no_grad():
            draws = bnn.posterior_weight_samples(2, x)
            del draws["0.bias"]
            with pytest.raises(ValueError, match="0.bias"):
                bnn.vectorized_forward(x, samples=draws)

    def test_pytorch_parameters_preserves_rng_stream(self, rng):
        # parameter instantiation used to consume RNG draws as a side effect,
        # shifting the sampling stream before training even started
        x = Tensor(rng.standard_normal((4, 3)))
        ppl.set_rng_seed(123)
        bnn = self._pytorch_bnn(np.random.default_rng(0))
        params = bnn.pytorch_parameters(x)
        assert params  # the trace did run and created the guide parameters
        after = ppl.get_rng().standard_normal(8)
        ppl.set_rng_seed(123)
        np.testing.assert_array_equal(after, ppl.get_rng().standard_normal(8))


class TestPredictGroupedEquivalence:
    def test_matches_per_group_looped_predict(self, rng):
        x = rng.standard_normal((3, 12, 2))
        bnn = _classification_bnn(rng, 12)
        bnn.predict(x[0], num_predictions=1)
        ppl.set_rng_seed(6)
        looped = [looped_predict(bnn, x[g], num_predictions=5, aggregate=False).data
                  for g in range(3)]
        ppl.set_rng_seed(6)
        grouped = bnn.predict_grouped(x, num_predictions=5, aggregate=False)
        assert grouped.shape == (3, 5, 12, 3)
        np.testing.assert_array_equal(grouped.data, np.stack(looped))

    def test_aggregated_matches_per_group_predict(self, rng):
        x = rng.standard_normal((4, 9, 1))
        bnn = _regression_bnn(rng, 9)
        bnn.predict(x[0], num_predictions=1)
        ppl.set_rng_seed(14)
        looped = [looped_predict(bnn, x[g], num_predictions=6).data for g in range(4)]
        ppl.set_rng_seed(14)
        grouped = bnn.predict_grouped(x, num_predictions=6)
        np.testing.assert_array_equal(grouped.data, np.stack(looped))

    def test_rejects_non_grouped_input(self, rng):
        bnn = _regression_bnn(rng, 5)
        bnn.predict(rng.standard_normal((5, 1)), num_predictions=1)
        with pytest.raises(ValueError):
            bnn.predict_grouped(np.zeros(3), num_predictions=2)


class TestContinualEvaluationEquivalence:
    def _tasks_and_bnn(self, suite, rng_seed=0, single_head=True):
        from repro.experiments.continual import ContinualConfig, _make_net, _make_tasks

        config = ContinualConfig.fast(suite)
        config.single_head = single_head
        config.train_per_class = 4
        config.test_per_class = 3
        config.image_size = 8 if suite == "cifar" else 4
        tasks = _make_tasks(config)
        net = _make_net(config, np.random.default_rng(rng_seed))
        bnn = tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                                  tyxe.likelihoods.Categorical(len(tasks[0].train_inputs)),
                                  partial(tyxe.guides.AutoNormal, init_scale=0.05))
        bnn.predict(tasks[0].test_inputs, num_predictions=1)
        return tasks, net, bnn

    @pytest.mark.parametrize("suite", ["mnist", "cifar"])
    def test_vectorized_accuracies_match_looped(self, suite):
        from repro.experiments.continual import _evaluate_task_accuracies

        tasks, net, bnn = self._tasks_and_bnn(suite)
        ppl.set_rng_seed(9)
        looped = looped_task_accuracies(bnn, net, tasks, 4)
        ppl.set_rng_seed(9)
        vectorized = _evaluate_task_accuracies(bnn, net, tasks, 4)
        assert looped == vectorized

    def test_mismatched_test_set_sizes_fall_back_to_per_task(self):
        from repro.experiments.continual import _evaluate_task_accuracies

        tasks, net, bnn = self._tasks_and_bnn("mnist")
        tasks[0].test_inputs = tasks[0].test_inputs[:-1]
        tasks[0].test_labels = tasks[0].test_labels[:-1]
        ppl.set_rng_seed(21)
        looped = looped_task_accuracies(bnn, net, tasks, 3)
        ppl.set_rng_seed(21)
        vectorized = _evaluate_task_accuracies(bnn, net, tasks, 3)
        assert looped == vectorized

    def test_multi_head_shares_one_batched_forward(self):
        # single_head=False: the head-indexed batched forward (task schedule)
        # must agree with the looped reference and with one batched predict
        # per task exactly, logits included
        from repro.experiments.continual import _evaluate_task_accuracies

        tasks, net, bnn = self._tasks_and_bnn("mnist", single_head=False)
        assert len(net.heads) == len(tasks) > 1
        ppl.set_rng_seed(33)
        looped = looped_task_accuracies(bnn, net, tasks, 4)
        ppl.set_rng_seed(33)
        vectorized = _evaluate_task_accuracies(bnn, net, tasks, 4)
        assert looped == vectorized

        ppl.set_rng_seed(33)
        per_task = []
        for task in tasks:
            net.set_active_task(task.task_id)
            per_task.append(bnn.predict(nn.Tensor(task.test_inputs), num_predictions=4,
                                        aggregate=False).data)
        ppl.set_rng_seed(33)
        net.set_task_schedule(np.repeat([t.task_id for t in tasks], 4))
        try:
            grouped = bnn.predict_grouped(np.stack([t.test_inputs for t in tasks]),
                                          num_predictions=4, aggregate=False)
        finally:
            net.set_task_schedule(None)
        np.testing.assert_array_equal(grouped.data, np.stack(per_task))

    def test_task_schedule_validates_length(self):
        tasks, net, bnn = self._tasks_and_bnn("mnist", single_head=False)
        net.set_task_schedule([0, 1])
        try:
            with pytest.raises(ValueError, match="schedule"):
                with nn.no_grad():
                    net(nn.Tensor(np.stack([t.test_inputs for t in tasks])))
        finally:
            net.set_task_schedule(None)


class TestMCMCPredictEquivalence:
    def _bnn_with_samples(self, rng, total=9):
        net = _mlp(rng, in_dim=2, hidden=6, out_dim=2)
        bnn = tyxe.MCMC_BNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                            tyxe.likelihoods.Categorical(10),
                            kernel_builder=lambda model: None)
        bnn._weight_samples = {name: rng.standard_normal((total,) + bnn.net.get_parameter(name).shape)
                               for name in bnn.param_dists}
        return bnn

    def test_predict_matches_looped(self, rng):
        bnn = self._bnn_with_samples(rng)
        x = rng.standard_normal((15, 2))
        looped = looped_mcmc_predict(bnn, x, num_predictions=5, aggregate=False)
        vectorized = bnn.predict(x, num_predictions=5, aggregate=False)
        np.testing.assert_array_equal(vectorized.data, looped.data)
        agg_l = looped_mcmc_predict(bnn, x, num_predictions=5)
        agg_v = bnn.predict(x, num_predictions=5)
        np.testing.assert_array_equal(agg_v.data, agg_l.data)


class TestVectorizedELBOEquivalence:
    @pytest.mark.parametrize("elbo_cls", [Trace_ELBO, TraceMeanField_ELBO])
    def test_regression_loss_and_grads_match(self, rng, elbo_cls):
        x = rng.standard_normal((20, 1))
        y = np.sin(2 * x) + 0.1 * rng.standard_normal((20, 1))
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(99)
        loss_looped = elbo_cls(num_particles=4).differentiable_loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(99)
        loss_vec = elbo_cls(num_particles=4, vectorize_particles=True).differentiable_loss(
            bnn.model, bnn.guide, x, y)
        assert float(loss_vec.item()) == pytest.approx(float(loss_looped.item()), rel=1e-10)
        params = bnn.guide_parameters()
        assert params
        for p in params:
            p.grad = None
        loss_looped.backward()
        grads_looped = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        loss_vec.backward()
        for g_looped, p in zip(grads_looped, params):
            np.testing.assert_allclose(p.grad, g_looped, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("elbo_cls", [Trace_ELBO, TraceMeanField_ELBO])
    def test_classification_loss_matches(self, rng, elbo_cls):
        x = rng.standard_normal((18, 2))
        y = rng.integers(0, 3, 18)
        bnn = _classification_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(31)
        loss_looped = elbo_cls(num_particles=3).loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(31)
        loss_vec = elbo_cls(num_particles=3, vectorize_particles=True).loss(
            bnn.model, bnn.guide, x, y)
        assert loss_vec == pytest.approx(loss_looped, rel=1e-10)

    def test_single_particle_vectorized_matches(self, rng):
        x = rng.standard_normal((10, 1))
        y = np.sin(x)
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(17)
        loss_looped = Trace_ELBO(num_particles=1).loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(17)
        loss_vec = Trace_ELBO(num_particles=1, vectorize_particles=True).loss(
            bnn.model, bnn.guide, x, y)
        assert loss_vec == pytest.approx(loss_looped, rel=1e-10)

    def test_fit_with_vectorized_particles_reduces_loss(self, rng):
        x = rng.standard_normal((24, 1))
        y = np.sin(2 * x)
        bnn = _regression_bnn(rng, len(x))
        loader = nn.DataLoader(nn.TensorDataset(x, y), batch_size=12, rng=rng)
        losses = []
        bnn.fit(loader, ppl.optim.Adam({"lr": 1e-2}), num_epochs=15, num_particles=2,
                vectorize_particles=True,
                callback=lambda b, e, l: losses.append(l) or False)
        assert losses[-1] < losses[0]


class TestPartlyBayesianPredict:
    """Last-layer-only priors: the deterministic trunk's activations carry no
    stacked weight, so ``Flatten`` must still find the sample axis there."""

    def _last_layer_bnn(self, rng, guide, num_classes=3):
        resnet = nn.models.resnet8(num_classes=num_classes, base_width=4, rng=rng)
        prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), expose_all=False,
                                     expose_modules=[resnet.fc])
        bnn = tyxe.VariationalBNN(resnet, prior, tyxe.likelihoods.Categorical(8), guide)
        assert set(bnn.bayesian_sites()) == {"fc.weight", "fc.bias"}
        bnn.net.eval()
        return bnn

    @pytest.mark.parametrize("guide", [
        partial(tyxe.guides.AutoNormal, init_scale=0.05),
        partial(tyxe.guides.AutoLowRankMultivariateNormal, rank=2),
    ], ids=["ll_mf", "ll_lowrank"])
    @pytest.mark.parametrize("num_predictions", [4, 3], ids=["samples_eq_batch", "samples_ne_batch"])
    def test_matches_loop_oracle(self, rng, guide, num_predictions):
        x = rng.standard_normal((4, 3, 8, 8))
        bnn = self._last_layer_bnn(rng, guide)
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(41)
        looped = looped_predict(bnn, x, num_predictions=num_predictions, aggregate=False)
        looped_state = ppl.get_rng().bit_generator.state
        ppl.set_rng_seed(41)
        batched = bnn.predict(x, num_predictions=num_predictions, aggregate=False)
        assert batched.shape == (num_predictions, 4, 3)
        np.testing.assert_array_equal(batched.data, looped.data)
        assert ppl.get_rng().bit_generator.state == looped_state

    @pytest.mark.parametrize("elbo_cls", [Trace_ELBO, TraceMeanField_ELBO])
    def test_vectorized_particle_elbo_matches_looped(self, rng, elbo_cls):
        # the particle-stacked replay shares the inputs too: the model gives
        # them a size-1 sample axis, so Flatten finds it ahead of the fc layer
        x = rng.standard_normal((4, 3, 8, 8))
        y = np.array([0, 1, 2, 0])
        bnn = self._last_layer_bnn(rng, partial(tyxe.guides.AutoNormal, init_scale=0.05))
        bnn.predict(x, num_predictions=1)
        ppl.set_rng_seed(8)
        looped = elbo_cls(num_particles=4).loss(bnn.model, bnn.guide, x, y)
        ppl.set_rng_seed(8)
        batched = elbo_cls(num_particles=4, vectorize_particles=True).loss(
            bnn.model, bnn.guide, x, y)
        assert batched == pytest.approx(looped, rel=1e-12)

    def test_net_without_bayesian_sites_matches_loop_oracle(self, rng):
        # no draw reaches the output: the size-1 sample axis is broadcast to
        # one identical prediction per draw, as the loop gives
        net = _mlp(rng, in_dim=2, hidden=4, out_dim=3)
        bnn = tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0),
                                                            expose_all=False),
                                  tyxe.likelihoods.Categorical(5),
                                  partial(tyxe.guides.AutoNormal, init_scale=0.05))
        assert bnn.bayesian_sites() == ()
        x = rng.standard_normal((5, 2))
        batched = bnn.predict(x, num_predictions=3, aggregate=False)
        assert batched.shape == (3, 5, 3)
        np.testing.assert_array_equal(batched.data,
                                      looped_predict(bnn, x, 3, aggregate=False).data)

    def test_flatten_counts_the_size_one_sample_axis(self):
        x = Tensor(np.arange(24.0).reshape(1, 2, 3, 2, 2))  # (1, N, C, H, W)
        with nn.vectorized_samples(1):
            assert nn.Flatten()(x).shape == (1, 2, 12)


class TestEffectHandlerContexts:
    """Local reparameterization, flipout and MC dropout draw per forward pass:
    ``predict`` loops under them, the batched calls refuse them."""

    HANDLERS = [tyxe.poutine.local_reparameterization, tyxe.poutine.flipout,
                tyxe.poutine.mc_dropout]

    @pytest.mark.parametrize("handler", HANDLERS)
    def test_predict_loops_under_a_handler(self, rng, handler):
        x = rng.standard_normal((9, 1))
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        with handler():
            ppl.set_rng_seed(2)
            looped = looped_predict(bnn, x, num_predictions=6, aggregate=False)
            ppl.set_rng_seed(2)
            predicted = bnn.predict(x, num_predictions=6, aggregate=False)
        np.testing.assert_array_equal(predicted.data, looped.data)

    def test_local_reparameterization_decorrelates_grid_points(self, rng):
        # per-datapoint pre-activation noise: neighbouring grid points are
        # nearly uncorrelated across draws under the handler, strongly
        # correlated with shared weight draws
        x = np.linspace(-1.0, 1.0, 40).reshape(-1, 1)
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)

        def neighbour_correlation(stack):
            centred = stack[:, :, 0] - stack[:, :, 0].mean(axis=0)
            return float(np.mean([np.corrcoef(centred[:, i], centred[:, i + 1])[0, 1]
                                  for i in range(stack.shape[1] - 1)]))

        with tyxe.poutine.local_reparameterization():
            local = bnn.predict(x, num_predictions=64, aggregate=False).data
        shared = bnn.predict(x, num_predictions=64, aggregate=False).data
        assert neighbour_correlation(local) < 0.5 < neighbour_correlation(shared)

    @pytest.mark.parametrize("handler", HANDLERS)
    def test_batched_calls_refuse_a_handler(self, rng, handler):
        from repro.render import VolumetricRenderer

        x = rng.standard_normal((5, 1))
        bnn = _regression_bnn(rng, len(x))
        bnn.predict(x, num_predictions=1)
        renderer = VolumetricRenderer(image_size=2, num_samples_per_ray=2)
        mcmc = TestMCMCPredictEquivalence()._bnn_with_samples(rng)
        with handler():
            state = ppl.get_rng().bit_generator.state
            with pytest.raises(RuntimeError, match="vectorized_forward"):
                bnn.vectorized_forward(Tensor(x), num_samples=2)
            with pytest.raises(RuntimeError, match="predict_grouped"):
                bnn.predict_grouped(np.stack([x, x]), num_predictions=2)
            with pytest.raises(RuntimeError, match="render_posterior"):
                renderer.render_posterior([0.0], bnn, 2)
            with pytest.raises(RuntimeError, match="batched prediction"):
                mcmc.predict(rng.standard_normal((3, 2)), num_predictions=2)
            # refused before drawing any weights
            assert ppl.get_rng().bit_generator.state == state
