"""Smoke tests for the per-table/figure experiment harnesses (fast configs).

These confirm that every experiment the benchmark suite runs at full size can
execute end to end through the registry (``get_experiment(id).run(config)``)
and produces outputs of the right structure.  Qualitative (shape-of-result)
assertions are kept loose because the fast configurations are deliberately
tiny.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.api import get_experiment
from repro.experiments.continual import ContinualConfig
from repro.experiments.gnn_classification import GNNConfig, table2_rows
from repro.experiments.image_classification import (ImageClassificationConfig, figure2_curves,
                                                    table1_rows)
from repro.experiments.nerf import NeRFConfig
from repro.experiments.regression import RegressionConfig
from repro.datasets import make_image_classification_data


def _run(experiment_id, config, **overrides):
    """The experiment's raw results for ``config`` with ``overrides`` applied."""
    return get_experiment(experiment_id).run(config.with_overrides(overrides)).raw


@pytest.fixture(scope="module")
def fast_regression_config():
    return RegressionConfig(n_per_cluster=15, hidden_units=20, num_epochs=30,
                            num_predictions=8, hmc_num_samples=10, hmc_warmup=10,
                            hmc_num_steps=5)


class TestRegressionExperiment:
    def test_variational_run_structure(self, fast_regression_config):
        result = _run("fig1-regression", fast_regression_config,
                      panels="local_reparameterization")["local_reparameterization"]
        assert result.method == "local_reparameterization"
        assert result.predictive_mean.shape == result.predictive_std.shape
        assert np.all(result.predictive_std > 0)
        assert np.isfinite(result.train_log_likelihood)

    def test_shared_sample_variant(self, fast_regression_config):
        results = _run("fig1-regression", fast_regression_config,
                       panels="shared_weight_samples")
        assert list(results) == ["shared_weight_samples"]
        assert results["shared_weight_samples"].method == "shared_weight_samples"

    def test_hmc_run_structure(self, fast_regression_config):
        result = _run("fig1-regression", fast_regression_config, panels="hmc")["hmc"]
        assert result.method == "hmc"
        assert 0.0 <= result.extra["mean_accept_prob"] <= 1.0
        assert result.summary()["in_between_std"] > 0


class TestImageClassificationExperiment:
    def test_fast_comparison_all_methods(self):
        results = _run("table1-resnet", ImageClassificationConfig.fast())
        assert set(results) == {"ml", "map", "mf_sd_only", "mf", "ll_mf", "ll_lowrank"}
        rows = table1_rows(results)
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 <= row["ece"] <= 1.0
            assert 0.0 <= row["ood_auroc"] <= 1.0
            assert row["nll"] >= 0.0

    def test_subset_of_methods(self):
        results = _run("table1-resnet", ImageClassificationConfig.fast(), methods="ml,mf")
        assert set(results) == {"ml", "mf"}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            _run("table1-resnet", ImageClassificationConfig.fast(), methods="svi")

    def test_figure2_curves_structure(self):
        config = ImageClassificationConfig.fast().with_overrides({"methods": "ml,mf"})
        results = _run("table1-resnet", config)
        data = make_image_classification_data(
            num_classes=config.num_classes, image_size=config.image_size,
            channels=config.channels, train_per_class=config.train_per_class,
            test_per_class=config.test_per_class, noise_scale=config.noise_scale,
            seed=config.seed)
        curves = figure2_curves(results, labels=data.test_labels)
        for method in ("ml", "mf"):
            entry = curves[method]
            assert np.all(np.diff(entry["test_entropy_cdf"]) >= -1e-12)
            assert entry["bin_confidence"].shape == (10,)


class TestGNNExperiment:
    def test_fast_comparison(self):
        rows = table2_rows(_run("table2-gnn", GNNConfig.fast()))
        assert [r["method"] for r in rows] == ["ml", "map", "mf"]
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["nll"] > 0.0
            assert row["accuracy_2se"] >= 0.0

    def test_method_subset_and_validation(self):
        assert set(_run("table2-gnn", GNNConfig.fast(), methods="ml")) == {"ml"}
        with pytest.raises(ValueError):
            _run("table2-gnn", GNNConfig.fast(), methods="hmc")


class TestNeRFExperiment:
    def test_fast_run_structure(self):
        result = _run("fig3-nerf", NeRFConfig.fast())
        summary = result.summary()
        for key, value in summary.items():
            assert np.isfinite(value), key
        assert result.train_uncertainty > 0
        assert result.heldout_uncertainty > 0
        assert len(result.extra["uncertainty_maps_heldout"]) == 3


class TestContinualExperiment:
    def test_vcl_and_ml_runs(self):
        config = ContinualConfig.fast("mnist")
        pair = _run("fig4-vcl", config)["mnist"]
        vcl, ml = pair["vcl"], pair["ml"]
        assert len(vcl.mean_accuracies) == config.num_tasks
        assert len(ml.mean_accuracies) == config.num_tasks
        assert all(0.0 <= a <= 1.0 for a in vcl.mean_accuracies)
        assert vcl.accuracy_matrix.shape == (config.num_tasks, config.num_tasks)

    def test_cifar_suite_runs(self):
        config = ContinualConfig.fast("cifar")
        results = _run("fig4-vcl", config)
        assert list(results) == ["cifar"]
        for result in results["cifar"].values():
            assert result.suite == "cifar"
            assert len(result.mean_accuracies) == config.num_tasks

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            _run("fig4-vcl", dataclasses.replace(ContinualConfig.fast(), suite="imagenet"))
