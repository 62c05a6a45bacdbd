"""Perf benchmarks for the vectorized rendering & evaluation engine.

Two workloads of the Figure-3 Bayesian NeRF (a ``PytorchBNN``-wrapped field
rendered by :class:`VolumetricRenderer`), both recorded as entries of
``artifacts/BENCH_render.json``:

* **Posterior-view rendering** (``bayesian_nerf_posterior_views``): the
  batched engine (one forward per view over the stacked posterior-sample
  axis, one batched compositing pass for all views, O(n) cumulative-sum
  transmittance) must be at least 3x faster than the loop oracle
  (``tests/loop_oracles.py``) that renders each of the ``angles x samples``
  scenes through its own traced pass, and both must produce identical
  posterior mean/std maps under the same RNG seed — the draws are consumed
  in the same order.
* **Batched training step** (``bayesian_nerf_batched_training_step``): the
  training-path minibatch (``NeRFConfig.batched_train_views``) renders a
  step's views through ONE ``render_batch`` field evaluation + one backward
  instead of one traced render + backward per view; the batched step must be
  at least 1.5x faster at 6 views per step at the default-config training
  resolution (``image_size=12``), and ``batched_train_views=1`` must
  reproduce the one-view-per-step reference loss bit-for-bit.

The field is the fast-config NeRF shape with the canonical L=10 positional
encoding; ray sampling is kept coarse so the gates measure the engine's
per-scene overhead rather than raw gemm throughput (which is identical in
both modes).  Looped and vectorized runs are timed in interleaved rounds and
compared via the median per-round ratio, so machine-load drift hits both
paths equally instead of biasing the gates.
"""

import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
from _harness import record, record_bench_entry, run_once

from repro import nn, ppl
import repro.core as tyxe
from repro.experiments.nerf import (NeRFConfig, _minibatch_view_loss,
                                    _render_posterior_views, _train_step_loss,
                                    _view_loss)
from repro.nn.tensor import Tensor
from repro.ppl import distributions as dist
from repro.render import VolumetricRenderer, make_nerf_field, make_scene_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from loop_oracles import looped_posterior_views  # noqa: E402

NUM_POSTERIOR_SAMPLES = 8
IMAGE_SIZE = 16
NUM_SAMPLES_PER_RAY = 4
NUM_ANGLES = 6
MIN_SPEEDUP = 3.0
TRAIN_VIEWS_PER_STEP = 6
TRAIN_IMAGE_SIZE = 12  # the fig3-nerf default-config training resolution
MIN_TRAIN_SPEEDUP = 1.5
_ROUNDS = 5


def _make_nerf_bnn(rng):
    # the Figure-3 fast-config field shape with the original NeRF's L=10
    # positional-encoding frequencies
    field = make_nerf_field(num_frequencies=10, hidden=24, depth=2, rng=rng)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide = partial(tyxe.guides.AutoNormal, init_scale=1e-2,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(field))
    bnn = tyxe.PytorchBNN(field, prior, guide)
    bnn.pytorch_parameters(Tensor(np.zeros((4, 3))))  # instantiate guide parameters
    return bnn


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_vectorized_render_speedup(benchmark, speedup_gate):
    rng = np.random.default_rng(0)
    renderer = VolumetricRenderer(image_size=IMAGE_SIZE,
                                  num_samples_per_ray=NUM_SAMPLES_PER_RAY)
    angles = np.linspace(0.0, 360.0, NUM_ANGLES, endpoint=False)
    bnn = _make_nerf_bnn(rng)

    # numerical equivalence under a shared seed (same angle-major draw order)
    ppl.set_rng_seed(42)
    looped = looped_posterior_views(renderer, bnn, angles, NUM_POSTERIOR_SAMPLES)
    ppl.set_rng_seed(42)
    vectorized = _render_posterior_views(renderer, bnn, angles, NUM_POSTERIOR_SAMPLES)
    for key in ("mean", "std"):
        for vec, ref in zip(vectorized[key], looped[key]):
            np.testing.assert_array_equal(vec, ref)

    # interleaved wall-clock rounds; the median ratio damps load drift
    looped_times, vectorized_times = [], []
    for _ in range(_ROUNDS):
        looped_times.append(_time(lambda: looped_posterior_views(
            renderer, bnn, angles, NUM_POSTERIOR_SAMPLES)))
        vectorized_times.append(_time(lambda: _render_posterior_views(
            renderer, bnn, angles, NUM_POSTERIOR_SAMPLES)))
    ratios = [lo / vec for lo, vec in zip(looped_times, vectorized_times)]
    speedup = float(np.median(ratios))
    t_looped = float(np.median(looped_times))
    t_vectorized = float(np.median(vectorized_times))

    run_once(benchmark, _render_posterior_views, renderer, bnn, angles,
             NUM_POSTERIOR_SAMPLES)
    record(benchmark, looped_ms=t_looped * 1e3, vectorized_ms=t_vectorized * 1e3,
           speedup=speedup, num_posterior_samples=NUM_POSTERIOR_SAMPLES,
           num_angles=NUM_ANGLES, image_size=IMAGE_SIZE)

    # gate first: the record must only hold gate-passing numbers
    speedup_gate(speedup, MIN_SPEEDUP,
                 detail=f"looped {t_looped * 1e3:.1f}ms, vectorized {t_vectorized * 1e3:.1f}ms")

    record_bench_entry("render", "bayesian_nerf_posterior_views", {
        "num_posterior_samples": NUM_POSTERIOR_SAMPLES,
        "num_angles": NUM_ANGLES,
        "image_size": IMAGE_SIZE,
        "num_samples_per_ray": NUM_SAMPLES_PER_RAY,
        "looped_seconds": t_looped,
        "vectorized_seconds": t_vectorized,
        "speedup": speedup,
        # median of per-round ratios (interleaved rounds), NOT the quotient of
        # the median times above — the two can differ slightly under load
        "speedup_definition": "median_of_interleaved_round_ratios",
        "min_required_speedup": MIN_SPEEDUP,
    })


def test_batched_training_step_speedup(benchmark, speedup_gate):
    rng = np.random.default_rng(0)
    renderer = VolumetricRenderer(image_size=TRAIN_IMAGE_SIZE,
                                  num_samples_per_ray=NUM_SAMPLES_PER_RAY)
    angles = np.linspace(0.0, 360.0, TRAIN_VIEWS_PER_STEP, endpoint=False)
    train_set = make_scene_dataset(renderer, angles)
    bnn = _make_nerf_bnn(rng)
    params = bnn.guide_parameters() + bnn.deterministic_parameters()
    config = NeRFConfig(image_size=TRAIN_IMAGE_SIZE,
                        num_samples_per_ray=NUM_SAMPLES_PER_RAY)

    # RNG equivalence: a one-view minibatch reproduces the reference
    # one-view-per-step loss bit-for-bit (same view draw, same field queries)
    config.batched_train_views = None
    ppl.set_rng_seed(42)
    loss_reference = float(_train_step_loss(renderer, bnn, train_set, config,
                                            np.random.default_rng(9)).item())
    config.batched_train_views = 1
    ppl.set_rng_seed(42)
    loss_batched = float(_train_step_loss(renderer, bnn, train_set, config,
                                          np.random.default_rng(9)).item())
    np.testing.assert_allclose(loss_batched, loss_reference, atol=1e-12, rtol=0)

    def _zero_grads():
        for p in params:
            p.grad = None

    def looped_step():
        # the reference training path's per-step work for B views: one traced
        # render + loss per view, one backward on the averaged loss
        _zero_grads()
        total = None
        for target in train_set:
            image, silhouette = renderer(target["angle"], bnn)
            loss = _view_loss(image, silhouette, target, config.silhouette_weight)
            total = loss if total is None else total + loss
        (total / float(len(train_set))).backward()

    def batched_step():
        _zero_grads()
        images, silhouettes = renderer.render_batch([t["angle"] for t in train_set], bnn)
        _minibatch_view_loss(images, silhouettes, train_set,
                             config.silhouette_weight).backward()

    # interleaved wall-clock rounds; the median ratio damps load drift
    looped_times, batched_times = [], []
    for _ in range(_ROUNDS):
        looped_times.append(_time(looped_step))
        batched_times.append(_time(batched_step))
    ratios = [lo / bat for lo, bat in zip(looped_times, batched_times)]
    speedup = float(np.median(ratios))
    t_looped = float(np.median(looped_times))
    t_batched = float(np.median(batched_times))

    run_once(benchmark, batched_step)
    record(benchmark, looped_ms=t_looped * 1e3, batched_ms=t_batched * 1e3,
           speedup=speedup, train_views_per_step=TRAIN_VIEWS_PER_STEP,
           image_size=TRAIN_IMAGE_SIZE)

    # gate first: the record must only hold gate-passing numbers
    speedup_gate(speedup, MIN_TRAIN_SPEEDUP,
                 detail=f"looped {t_looped * 1e3:.1f}ms, batched {t_batched * 1e3:.1f}ms")

    record_bench_entry("render", "bayesian_nerf_batched_training_step", {
        "train_views_per_step": TRAIN_VIEWS_PER_STEP,
        "image_size": TRAIN_IMAGE_SIZE,
        "num_samples_per_ray": NUM_SAMPLES_PER_RAY,
        "looped_seconds": t_looped,
        "vectorized_seconds": t_batched,
        "speedup": speedup,
        # median of per-round ratios (interleaved rounds), NOT the quotient of
        # the median times above — the two can differ slightly under load
        "speedup_definition": "median_of_interleaved_round_ratios",
        "min_required_speedup": MIN_TRAIN_SPEEDUP,
    })
