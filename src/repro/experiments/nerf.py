"""Experiment E5 — Figure 3: deterministic vs. Bayesian neural radiance fields.

Reproduces the paper's Section 4.2 workflow: a NeRF-style field is trained to
render views of a procedural object from angles covering most of the circle,
with a held-out angular sector as out-of-distribution views.  The Bayesian
variant wraps the field in :class:`repro.core.bnn.PytorchBNN` and adds the
(annealed) KL term to the image + silhouette loss, trained with a plain
``repro.nn`` optimizer — the loss is a custom error, not a likelihood, so the
model is "pseudo-Bayesian" exactly as the paper discusses.  Reported
quantities: held-out-view error of both models and the mean predictive
uncertainty (pixel-wise standard deviation across posterior samples) on
training vs. held-out views.

Registered as ``fig3-nerf``; run it with ``repro run fig3-nerf [--fast]``
or :func:`repro.experiments.api.run_experiment`.  Posterior views are
rendered in batched forwards (:meth:`VolumetricRenderer.render_posterior`),
RNG-identical to one render per angle and posterior sample.  Training can
likewise render a minibatch of views per optimizer step through one batched
field evaluation: ``--set batched_train_views=4`` (the default
``None`` keeps the reference one-view-per-step loop, and ``1`` reproduces it
bit-for-bit through ``render_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from .. import core as tyxe
from .. import nn
from ..metrics.regression import image_error
from ..nn import functional as F
from ..ppl import distributions as dist
from ..render import VolumetricRenderer, make_nerf_field, make_scene_dataset, train_test_angles
from .api import BaseExperimentConfig, register

__all__ = ["NeRFConfig", "NeRFResult"]


@dataclass
class NeRFConfig(BaseExperimentConfig):
    """Sizes and hyper-parameters of the NeRF experiment."""

    image_size: int = 12
    num_samples_per_ray: int = 12
    num_train_views: int = 20
    num_test_views: int = 8
    hidden: int = 48
    depth: int = 3
    num_frequencies: int = 4
    det_iterations: int = 400
    bayes_iterations: int = 400
    learning_rate: float = 1e-3
    init_scale: float = 1e-2
    kl_anneal_iterations: int = 200
    num_posterior_samples: int = 8
    silhouette_weight: float = 0.5
    # training views rendered per optimizer step through ONE batched field
    # evaluation (``VolumetricRenderer.render_batch``); ``None`` keeps the
    # reference one-view-per-step loop.  ``batched_train_views=1`` is
    # RNG-identical to that reference (same view-index draws, same field
    # queries); larger minibatches average the per-view losses and — for the
    # Bayesian variant — share the step's single posterior weight draw
    # across the minibatch, exactly like the per-view loop within one
    # ``PytorchBNN`` forward would.
    batched_train_views: Optional[int] = None

    @classmethod
    def fast(cls) -> "NeRFConfig":
        return cls(image_size=8, num_samples_per_ray=8, num_train_views=6, num_test_views=3,
                   hidden=24, depth=2, det_iterations=40, bayes_iterations=40,
                   kl_anneal_iterations=20, num_posterior_samples=3, fast=True)


@dataclass
class NeRFResult:
    """Held-out errors and uncertainty statistics (the content of Figure 3)."""

    deterministic_heldout_error: float
    bayesian_heldout_error: float
    deterministic_train_error: float
    bayesian_train_error: float
    train_uncertainty: float
    heldout_uncertainty: float
    extra: Dict = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        return {
            "deterministic_heldout_error": self.deterministic_heldout_error,
            "bayesian_heldout_error": self.bayesian_heldout_error,
            "deterministic_train_error": self.deterministic_train_error,
            "bayesian_train_error": self.bayesian_train_error,
            "train_uncertainty": self.train_uncertainty,
            "heldout_uncertainty": self.heldout_uncertainty,
        }


def _view_loss(image: nn.Tensor, silhouette: nn.Tensor, target: Dict[str, np.ndarray],
               silhouette_weight: float) -> nn.Tensor:
    image_loss = F.mse_loss(image, nn.Tensor(target["image"]))
    silhouette_loss = F.mse_loss(silhouette, nn.Tensor(target["silhouette"]))
    return image_loss + silhouette_weight * silhouette_loss


def _minibatch_view_loss(images: nn.Tensor, silhouettes: nn.Tensor, targets: List[Dict],
                         silhouette_weight: float) -> nn.Tensor:
    """Loss of a ``(B, H, W, ...)`` stack of rendered views against its targets.

    ``mse_loss`` means over every element, so this equals the average of the
    per-view :func:`_view_loss` values (and is identical to it for ``B=1``).
    """
    target_images = nn.Tensor(np.stack([t["image"] for t in targets]))
    target_silhouettes = nn.Tensor(np.stack([t["silhouette"] for t in targets]))
    return (F.mse_loss(images, target_images)
            + silhouette_weight * F.mse_loss(silhouettes, target_silhouettes))


def _train_step_loss(renderer: VolumetricRenderer, field, train_set: List[Dict],
                     config: NeRFConfig, rng: np.random.Generator) -> nn.Tensor:
    """Data loss of one training step: sample view(s), render, compare.

    ``config.batched_train_views=None`` is the one-view-per-step reference;
    an integer ``B`` samples ``B`` views (consuming the view-index RNG stream
    exactly like ``B`` sequential reference draws) and renders them through
    one :meth:`VolumetricRenderer.render_batch` field evaluation.
    """
    batch = config.batched_train_views
    if batch is None:
        target = train_set[int(rng.integers(len(train_set)))]
        image, silhouette = renderer(target["angle"], field)
        return _view_loss(image, silhouette, target, config.silhouette_weight)
    if batch < 1:
        raise ValueError("batched_train_views must be a positive view count or None")
    targets = [train_set[int(rng.integers(len(train_set)))] for _ in range(batch)]
    images, silhouettes = renderer.render_batch([t["angle"] for t in targets], field)
    return _minibatch_view_loss(images, silhouettes, targets, config.silhouette_weight)


def _train_deterministic(renderer: VolumetricRenderer, train_set: List[Dict],
                         config: NeRFConfig, rng: np.random.Generator):
    field_net = make_nerf_field(num_frequencies=config.num_frequencies, hidden=config.hidden,
                                depth=config.depth, rng=rng)
    optim = nn.Adam(field_net.parameters(), lr=config.learning_rate)
    for _ in range(config.det_iterations):
        optim.zero_grad()
        loss = _train_step_loss(renderer, field_net, train_set, config, rng)
        loss.backward()
        optim.step()
    return field_net


def _train_bayesian(renderer: VolumetricRenderer, train_set: List[Dict], config: NeRFConfig,
                    rng: np.random.Generator, pretrained_field=None):
    field_net = make_nerf_field(num_frequencies=config.num_frequencies, hidden=config.hidden,
                                depth=config.depth, rng=rng)
    if pretrained_field is not None:
        field_net.load_state_dict(pretrained_field.state_dict())
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(field_net),
                    init_scale=config.init_scale)
    nerf_bnn = tyxe.PytorchBNN(field_net, prior, guide)

    # the KL weight is annealed to 1 / (number of observed pixel values)
    total_pixels = len(train_set) * config.image_size ** 2 * 4  # rgb + silhouette
    dummy_points = nn.Tensor(np.zeros((4, 3)))
    optim = nn.Adam(nerf_bnn.pytorch_parameters(dummy_points), lr=config.learning_rate)
    for iteration in range(config.bayes_iterations):
        optim.zero_grad()
        data_loss = _train_step_loss(renderer, nerf_bnn, train_set, config, rng)
        anneal = min(1.0, (iteration + 1) / max(config.kl_anneal_iterations, 1))
        loss = data_loss + anneal / total_pixels * nerf_bnn.cached_kl_loss
        loss.backward()
        optim.step()
    return nerf_bnn


def _render_views(renderer: VolumetricRenderer, field, angles) -> List[np.ndarray]:
    images = []
    with nn.no_grad():
        for angle in angles:
            image, _ = renderer(float(angle), field)
            images.append(image.data.copy())
    return images


def _render_posterior_views(renderer: VolumetricRenderer, bnn: tyxe.PytorchBNN, angles,
                            num_samples: int) -> Dict[str, List[np.ndarray]]:
    """Posterior mean/std images per angle.

    Renders every ``angles x num_samples`` view in a few batched forward
    passes via :meth:`VolumetricRenderer.render_posterior`; weight draws are
    consumed angle-major, so the maps are RNG-identical to rendering one view
    per angle and sample.
    """
    images, _ = renderer.render_posterior(angles, bnn, num_samples)  # (A, S, H, W, 3)
    return {"mean": [stack.mean(axis=0) for stack in images],
            "std": [stack.std(axis=0) for stack in images]}


def _nerf_experiment_impl(config: NeRFConfig) -> NeRFResult:
    """Train both NeRF variants and evaluate held-out-view error and uncertainty."""
    rng = config.seed_all()

    renderer = VolumetricRenderer(image_size=config.image_size,
                                  num_samples_per_ray=config.num_samples_per_ray)
    train_angles, test_angles = train_test_angles(config.num_train_views, config.num_test_views)
    train_set = make_scene_dataset(renderer, train_angles)
    test_set = make_scene_dataset(renderer, test_angles)

    det_field = _train_deterministic(renderer, train_set, config, rng)
    bayes_bnn = _train_bayesian(renderer, train_set, config, rng, pretrained_field=det_field)

    # deterministic errors
    det_train = _render_views(renderer, det_field, [t["angle"] for t in train_set])
    det_test = _render_views(renderer, det_field, [t["angle"] for t in test_set])
    det_train_err = float(np.mean([image_error(img, t["image"])
                                   for img, t in zip(det_train, train_set)]))
    det_test_err = float(np.mean([image_error(img, t["image"])
                                  for img, t in zip(det_test, test_set)]))

    # Bayesian posterior-mean errors and uncertainty maps
    bayes_train = _render_posterior_views(renderer, bayes_bnn, [t["angle"] for t in train_set],
                                          config.num_posterior_samples)
    bayes_test = _render_posterior_views(renderer, bayes_bnn, [t["angle"] for t in test_set],
                                         config.num_posterior_samples)
    bayes_train_err = float(np.mean([image_error(img, t["image"])
                                     for img, t in zip(bayes_train["mean"], train_set)]))
    bayes_test_err = float(np.mean([image_error(img, t["image"])
                                    for img, t in zip(bayes_test["mean"], test_set)]))
    train_uncertainty = float(np.mean([s.mean() for s in bayes_train["std"]]))
    heldout_uncertainty = float(np.mean([s.mean() for s in bayes_test["std"]]))

    return NeRFResult(
        deterministic_heldout_error=det_test_err,
        bayesian_heldout_error=bayes_test_err,
        deterministic_train_error=det_train_err,
        bayesian_train_error=bayes_train_err,
        train_uncertainty=train_uncertainty,
        heldout_uncertainty=heldout_uncertainty,
        extra={"uncertainty_maps_heldout": bayes_test["std"],
               "train_angles": train_angles, "test_angles": test_angles},
    )


def _validation_targets(config: NeRFConfig):
    """The untrained Bayesian field for ``repro check-model`` (no rendering)."""
    from ..analysis import ValidationTarget

    rng = np.random.default_rng(config.seed)
    field_net = make_nerf_field(num_frequencies=config.num_frequencies, hidden=config.hidden,
                                depth=config.depth, rng=rng)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(field_net),
                    init_scale=config.init_scale)
    nerf_bnn = tyxe.PytorchBNN(field_net, prior, guide)
    points = nn.Tensor(np.zeros((4, 3)))
    return [ValidationTarget("field", nerf_bnn.net_model, nerf_bnn.net_guide,
                             args=(points,))]


@register("fig3-nerf", config_cls=NeRFConfig, number="E5", artefact="Figure 3",
          title="Deterministic vs. Bayesian NeRF: held-out-view error and uncertainty",
          validation_targets=_validation_targets)
def _figure3_experiment(config: NeRFConfig):
    result = _nerf_experiment_impl(config)
    return result.summary(), result
