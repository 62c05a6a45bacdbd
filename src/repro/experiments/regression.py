"""Experiment E1 — Figure 1: Bayesian nonlinear regression.

Reproduces the three panels of the paper's Figure 1 on the Foong et al.
two-cluster dataset with a 1-50-1 tanh network, a standard-normal prior and a
``HomoskedasticGaussian(scale=0.1)`` likelihood:

* (a) mean-field variational inference trained *and predicted* under local
  reparameterization,
* (b) the same posterior with shared weight samples per batch (prediction
  outside the local-reparameterization context),
* (c) HMC.

The quantity of interest is the shape of the predictive uncertainty: small on
the two data clusters, larger in between and outside, with HMC giving the
widest in-between error bars.

Registered as ``fig1-regression``; run it with
``repro run fig1-regression [--fast] [--set panels=hmc]`` or
:func:`repro.experiments.api.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Tuple

import numpy as np

from .. import nn, ppl
from .. import core as tyxe
from ..datasets.regression import foong_regression, regression_grid, true_function
from ..ppl import distributions as dist
from .api import BaseExperimentConfig, parse_name_list, register

__all__ = ["RegressionConfig", "RegressionResult"]

#: panel-selector names accepted by ``RegressionConfig.panels``
PANELS = ("local_reparameterization", "shared_weight_samples", "hmc")


@dataclass
class RegressionConfig(BaseExperimentConfig):
    """Sizes and hyper-parameters for the Figure-1 experiment."""

    n_per_cluster: int = 40
    noise_scale: float = 0.1
    hidden_units: int = 50
    num_epochs: int = 800
    learning_rate: float = 1e-2
    init_scale: float = 0.05
    num_predictions: int = 32
    batch_size: int = 80
    hmc_num_samples: int = 80
    hmc_warmup: int = 80
    hmc_step_size: float = 5e-4
    hmc_num_steps: int = 15
    seed: int = 42
    # comma-separated subset of PANELS, or "all" (the full figure)
    panels: str = "all"

    @classmethod
    def fast(cls) -> "RegressionConfig":
        """A tiny configuration for smoke tests."""
        return cls(n_per_cluster=15, hidden_units=20, num_epochs=30, num_predictions=8,
                   hmc_num_samples=10, hmc_warmup=10, hmc_num_steps=5, fast=True)

    def selected_panels(self) -> Tuple[str, ...]:
        return parse_name_list(self.panels, PANELS, PANELS, "panels")


@dataclass
class RegressionResult:
    """Predictive statistics on the evaluation grid plus summary scalars."""

    method: str
    x_grid: np.ndarray
    predictive_mean: np.ndarray
    predictive_std: np.ndarray
    train_log_likelihood: float
    train_squared_error: float
    in_between_std: float
    on_data_std: float
    extra: Dict = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "train_log_likelihood": self.train_log_likelihood,
            "train_squared_error": self.train_squared_error,
            "in_between_std": self.in_between_std,
            "on_data_std": self.on_data_std,
        }


def _region_stds(x_grid: np.ndarray, std: np.ndarray) -> Dict[str, float]:
    x = x_grid.squeeze()
    in_between = std[(x > -0.5) & (x < 0.3)].mean()
    on_data = std[((x >= -1.0) & (x <= -0.7)) | ((x >= 0.5) & (x <= 1.0))].mean()
    return {"in_between": float(in_between), "on_data": float(on_data)}


def _build_net(config: RegressionConfig, rng: np.random.Generator) -> nn.Sequential:
    return nn.Sequential(nn.Linear(1, config.hidden_units, rng=rng), nn.Tanh(),
                         nn.Linear(config.hidden_units, 1, rng=rng))


def _make_variational_bnn(config: RegressionConfig, n_data: int,
                          rng: np.random.Generator) -> "tyxe.VariationalBNN":
    """The untrained panel-(a/b) model skeleton (shared with the serve target)."""
    net = _build_net(config, rng)
    likelihood = tyxe.likelihoods.HomoskedasticGaussian(n_data, scale=config.noise_scale)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide_factory = partial(tyxe.guides.AutoNormal, init_scale=config.init_scale,
                            init_loc_fn=tyxe.guides.init_to_normal("radford"))
    return tyxe.VariationalBNN(net, prior, likelihood, guide_factory)


def _fit_variational_bnn(config: RegressionConfig):
    """Seed, build and train the mean-field VI posterior.

    Returns ``(bnn, x, y, losses)`` with the global RNG stream positioned
    exactly where the looped experiment path expects it — the experiment
    panels and the ``fig1-regression`` serve target both train through here.
    """
    rng = config.seed_all()
    x, y = foong_regression(config.n_per_cluster, config.noise_scale, seed=config.seed)
    bnn = _make_variational_bnn(config, len(x), rng)
    loader = nn.DataLoader(nn.TensorDataset(x, y), batch_size=config.batch_size, shuffle=True,
                           rng=np.random.default_rng(config.seed))
    optim = ppl.optim.Adam({"lr": config.learning_rate})
    losses = []
    with tyxe.poutine.local_reparameterization():
        bnn.fit(loader, optim, config.num_epochs,
                callback=lambda b, e, l: losses.append(l) and False)
    return bnn, x, y, losses


def _variational_regression(config: RegressionConfig,
                            local_reparam_predict: bool = True) -> RegressionResult:
    """Panels (a)/(b): mean-field VI with/without local reparameterization at test time."""
    bnn, x, y, losses = _fit_variational_bnn(config)
    x_grid = regression_grid()
    if local_reparam_predict:
        with tyxe.poutine.local_reparameterization():
            grid_preds = bnn.predict(x_grid, num_predictions=config.num_predictions, aggregate=False)
    else:
        grid_preds = bnn.predict(x_grid, num_predictions=config.num_predictions, aggregate=False)

    mean = grid_preds.data.mean(axis=0).squeeze()
    std = bnn.likelihood.predictive_stddev(grid_preds).squeeze()
    regions = _region_stds(x_grid, std)
    ll, err = bnn.evaluate(x, y, num_predictions=config.num_predictions)
    method = "local_reparameterization" if local_reparam_predict else "shared_weight_samples"
    return RegressionResult(method=method, x_grid=x_grid, predictive_mean=mean,
                            predictive_std=std, train_log_likelihood=ll,
                            train_squared_error=err, in_between_std=regions["in_between"],
                            on_data_std=regions["on_data"], extra={"losses": losses})


def _hmc_regression(config: RegressionConfig) -> RegressionResult:
    """Panel (c): the same model with HMC as the inference procedure."""
    rng = config.seed_all()
    x, y = foong_regression(config.n_per_cluster, config.noise_scale, seed=config.seed)
    x_grid = regression_grid()

    net = _build_net(config, rng)
    likelihood = tyxe.likelihoods.HomoskedasticGaussian(len(x), scale=config.noise_scale)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    kernel_builder = partial(ppl.infer.HMC, step_size=config.hmc_step_size,
                             num_steps=config.hmc_num_steps)
    bnn = tyxe.MCMC_BNN(net, prior, likelihood, kernel_builder)
    bnn.fit((x, y), num_samples=config.hmc_num_samples, warmup_steps=config.hmc_warmup)

    grid_preds = bnn.predict(x_grid, num_predictions=config.num_predictions, aggregate=False)
    mean = grid_preds.data.mean(axis=0).squeeze()
    std = bnn.likelihood.predictive_stddev(grid_preds).squeeze()
    regions = _region_stds(x_grid, std)
    agg = bnn.predict(x, num_predictions=config.num_predictions, aggregate=True)
    ll = bnn.likelihood.log_likelihood(agg, nn.Tensor(y))
    err = bnn.likelihood.error(agg, nn.Tensor(y))
    accept = float(np.mean([d["accept_prob"] for d in bnn._mcmc.diagnostics]))
    return RegressionResult(method="hmc", x_grid=x_grid, predictive_mean=mean,
                            predictive_std=std, train_log_likelihood=ll,
                            train_squared_error=err, in_between_std=regions["in_between"],
                            on_data_std=regions["on_data"],
                            extra={"mean_accept_prob": accept})


def _figure1(config: RegressionConfig) -> Dict[str, RegressionResult]:
    """Run the selected panels and return their results keyed by method name."""
    runners = {
        "local_reparameterization": partial(_variational_regression,
                                            local_reparam_predict=True),
        "shared_weight_samples": partial(_variational_regression,
                                         local_reparam_predict=False),
        "hmc": _hmc_regression,
    }
    return {panel: runners[panel](config) for panel in config.selected_panels()}


def _validation_targets(config: RegressionConfig):
    """Untrained model/guide pairs for ``repro check-model`` (no training data)."""
    from ..analysis import ValidationTarget

    rng = np.random.default_rng(config.seed)
    net = _build_net(config, rng)
    likelihood = tyxe.likelihoods.HomoskedasticGaussian(8, scale=config.noise_scale)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide_factory = partial(tyxe.guides.AutoNormal, init_scale=config.init_scale,
                            init_loc_fn=tyxe.guides.init_to_normal("radford"))
    bnn = tyxe.VariationalBNN(net, prior, likelihood, guide_factory)
    x = nn.Tensor(np.zeros((8, 1)))
    y = nn.Tensor(np.zeros((8, 1)))
    return [ValidationTarget("mean-field-vi", bnn.model, bnn.guide, args=(x, y))]


def _serve_target(config: RegressionConfig):
    """The mean-field VI posterior as a ``repro snapshot``/``repro serve`` model."""
    from ..serve import ServeTarget

    def build():
        rng = np.random.default_rng(config.seed)
        return _make_variational_bnn(config, 2 * config.n_per_cluster, rng)

    def fit():
        return _fit_variational_bnn(config)[0]

    return ServeTarget("mean-field-vi", build, regression_grid()[:8], fit=fit)


@register("fig1-regression", config_cls=RegressionConfig, number="E1", artefact="Figure 1",
          title="Bayesian nonlinear regression: mean-field VI (x2) vs. HMC",
          validation_targets=_validation_targets, serve_target=_serve_target)
def _figure1_experiment(config: RegressionConfig):
    results = _figure1(config)
    metrics = {f"{method}_{key}": value
               for method, result in results.items()
               for key, value in result.summary().items() if key != "method"}
    return metrics, results
