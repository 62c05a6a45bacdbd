"""Experiments E2/E3 — Table 1 and Figure 2: Bayesian ResNet image classification.

Compares inference strategies for a residual network on a synthetic CIFAR-like
dataset, with a synthetic OOD set standing in for SVHN:

* ``ml``          — maximum likelihood (plain training),
* ``map``         — maximum a-posteriori (AutoDelta guide under the N(0,1) prior),
* ``mf_sd_only``  — mean-field VI with means frozen at the pre-trained weights,
* ``mf``          — mean-field VI with learned means (std clipped at 0.1),
* ``ll_mf``       — mean-field VI over the final linear layer only,
* ``ll_lowrank``  — low-rank-plus-diagonal VI over the final linear layer only.

BatchNorm parameters are always excluded from the Bayesian treatment
(``hide_module_types=[nn.BatchNorm2d]``), variational methods start from the
ML solution and are trained with local reparameterization — mirroring the
paper's Listing 3 and Appendix A.1.  Reported metrics are NLL, accuracy, ECE
and OOD AUROC (Table 1) plus calibration curves and test/OOD entropy CDFs
(Figure 2).

Registered as ``table1-resnet`` (E2) and ``fig2-calibration`` (E3); run with
``repro run table1-resnet [--fast] [--set methods=ml,mf]`` or
:func:`repro.experiments.api.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import core as tyxe
from .. import metrics, nn, ppl
from ..datasets.images import make_image_classification_data, make_ood_images
from ..nn import functional as F
from ..ppl import distributions as dist
from .api import BaseExperimentConfig, parse_name_list, register

__all__ = ["ImageClassificationConfig", "MethodResult", "table1_rows", "figure2_curves",
           "ALL_METHODS"]

ALL_METHODS = ("ml", "map", "mf_sd_only", "mf", "ll_mf", "ll_lowrank")


@dataclass
class ImageClassificationConfig(BaseExperimentConfig):
    """Sizes and hyper-parameters of the ResNet comparison."""

    num_classes: int = 10
    image_size: int = 8
    channels: int = 3
    train_per_class: int = 40
    test_per_class: int = 20
    num_ood: int = 200
    noise_scale: float = 1.0
    base_width: int = 8
    resnet_depth: int = 8
    batch_size: int = 64
    ml_epochs: int = 30
    vi_epochs: int = 15
    learning_rate: float = 1e-3
    vi_learning_rate: float = 1e-3
    init_scale: float = 1e-3
    max_guide_scale: float = 0.1
    low_rank: int = 5
    num_predictions: int = 16
    # comma-separated subset of ALL_METHODS; empty = all of them
    methods: str = ""

    @classmethod
    def fast(cls) -> "ImageClassificationConfig":
        """A tiny configuration for smoke tests."""
        return cls(num_classes=4, image_size=6, train_per_class=10, test_per_class=6,
                   num_ood=24, base_width=4, ml_epochs=3, vi_epochs=2, num_predictions=4,
                   batch_size=32, low_rank=2, fast=True)

    def selected_methods(self) -> Tuple[str, ...]:
        return parse_name_list(self.methods, ALL_METHODS, ALL_METHODS, "methods")


@dataclass
class MethodResult:
    """Per-method predictive metrics (one row of Table 1)."""

    method: str
    nll: float
    accuracy: float
    ece: float
    ood_auroc: float
    test_probs: np.ndarray = field(repr=False, default=None)
    ood_probs: np.ndarray = field(repr=False, default=None)

    def row(self) -> Dict[str, float]:
        return {"method": self.method, "nll": self.nll, "accuracy": self.accuracy,
                "ece": self.ece, "ood_auroc": self.ood_auroc}


def _make_data(config: ImageClassificationConfig):
    """The train/test image dataset for ``config`` (deterministic in the seed)."""
    return make_image_classification_data(
        num_classes=config.num_classes, image_size=config.image_size, channels=config.channels,
        train_per_class=config.train_per_class, test_per_class=config.test_per_class,
        noise_scale=config.noise_scale, seed=config.seed)


def _make_net(config: ImageClassificationConfig, seed_offset: int = 0):
    rng = np.random.default_rng(config.seed + seed_offset)
    return nn.models.make_resnet(config.resnet_depth, num_classes=config.num_classes,
                                 in_channels=config.channels, base_width=config.base_width,
                                 rng=rng)


def _evaluate_probs(probs_test: np.ndarray, labels_test: np.ndarray,
                    probs_ood: np.ndarray, method: str) -> MethodResult:
    return MethodResult(
        method=method,
        nll=metrics.nll(probs_test, labels_test),
        accuracy=metrics.accuracy(probs_test, labels_test),
        ece=metrics.expected_calibration_error(probs_test, labels_test),
        ood_auroc=metrics.ood_auroc_max_prob(probs_test, probs_ood),
        test_probs=probs_test,
        ood_probs=probs_ood,
    )


def _deterministic_probs(net, images: np.ndarray, batch_size: int) -> np.ndarray:
    net.eval()
    probs = []
    with nn.no_grad():
        for start in range(0, len(images), batch_size):
            logits = net(nn.Tensor(images[start:start + batch_size]))
            probs.append(metrics.as_probs(logits, from_logits=True))
    net.train()
    return np.concatenate(probs)


def _bnn_probs(bnn, images: np.ndarray, batch_size: int, num_predictions: int) -> np.ndarray:
    bnn.net.eval()
    probs = []
    for start in range(0, len(images), batch_size):
        batch = images[start:start + batch_size]
        agg = bnn.predict(nn.Tensor(batch), num_predictions=num_predictions, aggregate=True)
        probs.append(metrics.as_probs(agg, from_logits=True))
    bnn.net.train()
    return np.concatenate(probs)


def _pretrain_ml(net, data, config: ImageClassificationConfig) -> List[float]:
    """Plain maximum-likelihood training; returns the per-epoch losses."""
    loader = nn.DataLoader(nn.TensorDataset(data.train_images, data.train_labels),
                           batch_size=config.batch_size, shuffle=True,
                           rng=np.random.default_rng(config.seed))
    optim = nn.Adam(net.parameters(), lr=config.learning_rate)
    losses = []
    for _ in range(config.ml_epochs):
        epoch_loss = 0.0
        for x, y in loader:
            optim.zero_grad()
            loss = F.cross_entropy(net(x), y.data.astype(np.int64))
            loss.backward()
            optim.step()
            epoch_loss += loss.item()
        losses.append(epoch_loss / len(loader))
    return losses


def _fit_variational(net, data, config: ImageClassificationConfig, guide_factory,
                     prior: tyxe.priors.Prior, epochs: int) -> tyxe.VariationalBNN:
    likelihood = tyxe.likelihoods.Categorical(len(data.train_images))
    bnn = tyxe.VariationalBNN(net, prior, likelihood, guide_factory)
    loader = nn.DataLoader(nn.TensorDataset(data.train_images, data.train_labels),
                           batch_size=config.batch_size, shuffle=True,
                           rng=np.random.default_rng(config.seed + 1))
    optim = ppl.optim.Adam({"lr": config.vi_learning_rate})
    with tyxe.poutine.local_reparameterization():
        bnn.fit(loader, optim, epochs)
    return bnn


def _inference_comparison(config: ImageClassificationConfig,
                          data=None) -> Dict[str, MethodResult]:
    """Run the configured inference strategies and return one result per method.

    ``data`` optionally supplies a pre-built dataset (as returned by
    ``_make_data(config)``) so callers that also need the labels do not
    generate it twice.
    """
    methods = config.selected_methods()
    config.seed_all()
    if data is None:
        data = _make_data(config)
    ood_images = make_ood_images(config.num_ood, image_size=config.image_size,
                                 channels=config.channels, noise_scale=config.noise_scale,
                                 seed=config.seed + 1000, num_classes=config.num_classes)

    # ---------------------------------------------------------------- ML base
    ml_net = _make_net(config)
    _pretrain_ml(ml_net, data, config)
    pretrained_state = ml_net.state_dict()
    results: Dict[str, MethodResult] = {}

    if "ml" in methods:
        probs_test = _deterministic_probs(ml_net, data.test_images, config.batch_size)
        probs_ood = _deterministic_probs(ml_net, ood_images, config.batch_size)
        results["ml"] = _evaluate_probs(probs_test, data.test_labels, probs_ood, "ml")

    def _fresh_pretrained_net():
        net = _make_net(config)
        net.load_state_dict(pretrained_state)
        return net

    full_prior_kwargs = dict(expose_all=True, hide_module_types=[nn.BatchNorm2d])

    # ---------------------------------------------------------------- MAP
    if "map" in methods:
        net = _fresh_pretrained_net()
        prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), **full_prior_kwargs)
        guide = partial(tyxe.guides.AutoDelta,
                        init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net))
        bnn = _fit_variational(net, data, config, guide, prior, config.vi_epochs)
        probs_test = _bnn_probs(bnn, data.test_images, config.batch_size, 1)
        probs_ood = _bnn_probs(bnn, ood_images, config.batch_size, 1)
        results["map"] = _evaluate_probs(probs_test, data.test_labels, probs_ood, "map")

    # ------------------------------------------------------- mean-field variants
    def _mf_guide(net, train_loc: bool):
        return partial(tyxe.guides.AutoNormal,
                       init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net),
                       init_scale=config.init_scale,
                       train_loc=train_loc,
                       max_guide_scale=config.max_guide_scale)

    if "mf_sd_only" in methods:
        net = _fresh_pretrained_net()
        prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), **full_prior_kwargs)
        bnn = _fit_variational(net, data, config, _mf_guide(net, train_loc=False), prior,
                               config.vi_epochs)
        probs_test = _bnn_probs(bnn, data.test_images, config.batch_size, config.num_predictions)
        probs_ood = _bnn_probs(bnn, ood_images, config.batch_size, config.num_predictions)
        results["mf_sd_only"] = _evaluate_probs(probs_test, data.test_labels, probs_ood,
                                                "mf_sd_only")

    if "mf" in methods:
        net = _fresh_pretrained_net()
        prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), **full_prior_kwargs)
        bnn = _fit_variational(net, data, config, _mf_guide(net, train_loc=True), prior,
                               config.vi_epochs)
        probs_test = _bnn_probs(bnn, data.test_images, config.batch_size, config.num_predictions)
        probs_ood = _bnn_probs(bnn, ood_images, config.batch_size, config.num_predictions)
        results["mf"] = _evaluate_probs(probs_test, data.test_labels, probs_ood, "mf")

    # ------------------------------------------------------- last-layer variants
    if "ll_mf" in methods or "ll_lowrank" in methods:
        def _ll_prior(net):
            return tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), expose_all=False,
                                        expose_modules=[net.fc])

        if "ll_mf" in methods:
            net = _fresh_pretrained_net()
            bnn = _fit_variational(net, data, config, _mf_guide(net, train_loc=True),
                                   _ll_prior(net), config.vi_epochs)
            probs_test = _bnn_probs(bnn, data.test_images, config.batch_size,
                                    config.num_predictions)
            probs_ood = _bnn_probs(bnn, ood_images, config.batch_size, config.num_predictions)
            results["ll_mf"] = _evaluate_probs(probs_test, data.test_labels, probs_ood, "ll_mf")

        if "ll_lowrank" in methods:
            net = _fresh_pretrained_net()
            guide = partial(tyxe.guides.AutoLowRankMultivariateNormal,
                            init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net),
                            init_scale=config.init_scale, rank=config.low_rank)
            bnn = _fit_variational(net, data, config, guide, _ll_prior(net), config.vi_epochs)
            probs_test = _bnn_probs(bnn, data.test_images, config.batch_size,
                                    config.num_predictions)
            probs_ood = _bnn_probs(bnn, ood_images, config.batch_size, config.num_predictions)
            results["ll_lowrank"] = _evaluate_probs(probs_test, data.test_labels, probs_ood,
                                                    "ll_lowrank")

    return results


def _make_mf_bnn(config: ImageClassificationConfig, net=None) -> tyxe.VariationalBNN:
    """The Table-1 "mf" model skeleton around ``net`` (freshly built if None)."""
    if net is None:
        net = _make_net(config)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), expose_all=True,
                                 hide_module_types=[nn.BatchNorm2d])
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net),
                    init_scale=config.init_scale, train_loc=True,
                    max_guide_scale=config.max_guide_scale)
    n_train = config.num_classes * config.train_per_class
    return tyxe.VariationalBNN(net, prior, tyxe.likelihoods.Categorical(n_train), guide)


def _fit_mf_bnn(config: ImageClassificationConfig) -> tyxe.VariationalBNN:
    """Train the Table-1 "mf" posterior end to end: ML pretrain + mean-field VI."""
    config.seed_all()
    data = _make_data(config)
    ml_net = _make_net(config)
    _pretrain_ml(ml_net, data, config)
    net = _make_net(config)
    net.load_state_dict(ml_net.state_dict())
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), expose_all=True,
                                 hide_module_types=[nn.BatchNorm2d])
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net),
                    init_scale=config.init_scale, train_loc=True,
                    max_guide_scale=config.max_guide_scale)
    return _fit_variational(net, data, config, guide, prior, config.vi_epochs)


def _serve_target(config: ImageClassificationConfig):
    """The mean-field ResNet posterior as a ``repro snapshot``/``repro serve`` model.

    Exercises the classification branch of the serving stats (mean/std over
    class probabilities) and BatchNorm buffer round-tripping through
    snapshots.
    """
    from ..serve import ServeTarget

    example = np.zeros((2, config.channels, config.image_size, config.image_size))
    return ServeTarget("mean-field", lambda: _make_mf_bnn(config), example,
                       fit=lambda: _fit_mf_bnn(config))


def _validation_targets(config: ImageClassificationConfig):
    """Untrained model/guide pairs for ``repro check-model``: MAP and mean-field."""
    from ..analysis import ValidationTarget

    images = nn.Tensor(np.zeros((2, config.channels, config.image_size, config.image_size)))
    labels = nn.Tensor(np.zeros(2))
    prior_kwargs = dict(expose_all=True, hide_module_types=[nn.BatchNorm2d])
    targets = []

    map_net = _make_net(config)
    map_guide = partial(tyxe.guides.AutoDelta,
                        init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(map_net))
    map_bnn = tyxe.VariationalBNN(
        map_net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), **prior_kwargs),
        tyxe.likelihoods.Categorical(2), map_guide)
    targets.append(ValidationTarget("map", map_bnn.model, map_bnn.guide,
                                    args=(images, labels)))

    mf_net = _make_net(config)
    mf_guide = partial(tyxe.guides.AutoNormal,
                       init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(mf_net),
                       init_scale=config.init_scale,
                       max_guide_scale=config.max_guide_scale)
    mf_bnn = tyxe.VariationalBNN(
        mf_net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0), **prior_kwargs),
        tyxe.likelihoods.Categorical(2), mf_guide)
    targets.append(ValidationTarget("mean-field", mf_bnn.model, mf_bnn.guide,
                                    args=(images, labels)))
    return targets


@register("table1-resnet", config_cls=ImageClassificationConfig, number="E2",
          artefact="Table 1",
          title="Bayesian ResNet inference comparison: NLL / accuracy / ECE / OOD AUROC",
          validation_targets=_validation_targets, serve_target=_serve_target)
def _table1_experiment(config: ImageClassificationConfig):
    results = _inference_comparison(config)
    metrics = {f"{row['method']}_{key}": value
               for row in table1_rows(results)
               for key, value in row.items() if key != "method"}
    return metrics, results


@register("fig2-calibration", config_cls=ImageClassificationConfig, number="E3",
          artefact="Figure 2",
          title="Calibration curves and test/OOD predictive-entropy CDFs",
          base_overrides={"methods": "ml,mf"},
          validation_targets=_validation_targets, serve_target=_serve_target)
def _figure2_experiment(config: ImageClassificationConfig):
    data = _make_data(config)
    results = _inference_comparison(config, data=data)
    curves = figure2_curves(results, labels=data.test_labels)
    summary: Dict[str, float] = {}
    for method, result in results.items():
        entry = curves[method]
        valid = entry["bin_count"] > 0
        gap = float(np.nanmean(np.abs(entry["bin_confidence"][valid]
                                      - entry["bin_accuracy"][valid])))
        summary[f"{method}_ece"] = result.ece
        summary[f"{method}_calibration_gap"] = gap
        summary[f"{method}_mean_test_entropy"] = float(
            metrics.predictive_entropy(result.test_probs).mean())
        summary[f"{method}_mean_ood_entropy"] = float(
            metrics.predictive_entropy(result.ood_probs).mean())
    raw = {"results": results, "curves": curves, "test_labels": data.test_labels}
    return summary, raw


def table1_rows(results: Dict[str, MethodResult]) -> List[Dict[str, float]]:
    """Format results as the rows of the paper's Table 1."""
    order = [m for m in ALL_METHODS if m in results]
    return [results[m].row() for m in order]


def figure2_curves(results: Dict[str, MethodResult], num_bins: int = 10,
                   entropy_grid: Optional[np.ndarray] = None,
                   labels: Optional[np.ndarray] = None) -> Dict[str, Dict[str, np.ndarray]]:
    """Calibration curves and test/OOD entropy CDFs (the two panels of Figure 2).

    ``labels`` must be the test labels used to produce the stored
    ``test_probs`` (needed for the calibration curve).
    """
    if entropy_grid is None:
        entropy_grid = np.linspace(0.0, 2.5, 26)
    curves: Dict[str, Dict[str, np.ndarray]] = {}
    for method, result in results.items():
        entry: Dict[str, np.ndarray] = {
            "entropy_grid": entropy_grid,
            "test_entropy_cdf": metrics.entropy_cdf(result.test_probs, entropy_grid),
            "ood_entropy_cdf": metrics.entropy_cdf(result.ood_probs, entropy_grid),
        }
        if labels is not None:
            conf, acc, count = metrics.calibration_curve(result.test_probs, labels,
                                                         num_bins=num_bins)
            entry.update({"bin_confidence": conf, "bin_accuracy": acc, "bin_count": count})
        curves[method] = entry
    return curves
