"""Differentiable volumetric renderer (the Pytorch3D substitute).

Implements emission-absorption ray marching: the field network is queried at
stratified points along each camera ray, densities are converted to per-
segment opacities and colours are alpha-composited front to back.  The
renderer accepts any callable mapping ``(N, 3)`` points to ``(N, 4)`` raw
field values — in particular a :class:`repro.core.bnn.PytorchBNN` wrapping a
:class:`~repro.render.nerf.NeRFField`, which is exactly how the paper's
Listing 5 drops the Bayesian NeRF into the Pytorch3D renderer.

The compositing pipeline is sample-dimension aware end to end: ``composite``
broadcasts over arbitrary leading axes of the raw field values (e.g. the
``(S, ...)`` stack produced by a vectorized BNN forward), multiple azimuth
angles can be folded into one field evaluation (:meth:`render_batch`), and
:meth:`render_posterior` renders ``angles x posterior_samples`` full scenes
through a handful of batched forward passes while consuming the RNG stream in
exactly the order the per-angle/per-sample Python loops would.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, no_grad

__all__ = ["VolumetricRenderer", "clear_geometry_cache"]

# Ray-point grids above this many bytes are recomputed on demand instead of
# cached: the lru entries live for the process lifetime, and a dense sweep of
# high-resolution views would otherwise pin gigabytes (256 entries x ~25 MB at
# image_size=128 / 64 samples per ray).
_CACHE_ENTRY_BYTE_LIMIT = 2 * 1024 * 1024

# render_posterior defers compositing to batch it across views, but flushes
# the accumulated raw field outputs once they reach this many bytes so a
# large sweep (many views x samples x ray points) never holds the whole
# uncomposited block in memory at once.  (The flush's concatenate transiently
# doubles this, so the true raw-block peak is ~2x the cap.)
_RAW_FLUSH_BYTE_LIMIT = 64 * 1024 * 1024


# Camera geometry is a pure function of the orbit parameters, yet the NeRF
# experiment re-derives it for every one of thousands of training iterations;
# memoize it at module level (keys are plain floats/ints, values are marked
# read-only since they are shared across calls).
def _compute_rays(azimuth_deg: float, image_size: int, fov_deg: float,
                  elevation_deg: float, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    from .cameras import camera_rays

    origins, directions = camera_rays(azimuth_deg, image_size=image_size, fov_deg=fov_deg,
                                      elevation_deg=elevation_deg, radius=radius)
    origins.flags.writeable = False
    directions.flags.writeable = False
    return origins, directions


_cached_rays = functools.lru_cache(maxsize=256)(_compute_rays)


def _rays(azimuth_deg: float, image_size: int, fov_deg: float, elevation_deg: float,
          radius: float) -> Tuple[np.ndarray, np.ndarray]:
    entry_bytes = 2 * image_size ** 2 * 3 * 8  # origins + directions
    fn = _compute_rays if entry_bytes > _CACHE_ENTRY_BYTE_LIMIT else _cached_rays
    return fn(azimuth_deg, image_size, fov_deg, elevation_deg, radius)


def _compute_points(azimuth_deg: float, image_size: int, fov_deg: float, elevation_deg: float,
                    radius: float, near: float, far: float, num_samples: int
                    ) -> Tuple[np.ndarray, float]:
    from .cameras import ray_grid

    origins, directions = _rays(azimuth_deg, image_size, fov_deg, elevation_deg, radius)
    points, deltas = ray_grid(origins, directions, near, far, num_samples)
    points.flags.writeable = False
    return points, float(deltas[0])


_cached_points = functools.lru_cache(maxsize=256)(_compute_points)


def clear_geometry_cache() -> None:
    """Release every memoized camera-ray / ray-point grid."""
    _cached_rays.cache_clear()
    _cached_points.cache_clear()


class VolumetricRenderer:
    """Emission-absorption renderer over a fixed ray-sampling schedule."""

    def __init__(self, image_size: int = 16, num_samples_per_ray: int = 16,
                 near: float = 1.0, far: float = 4.0, fov_deg: float = 45.0,
                 elevation_deg: float = 20.0, radius: float = 2.5) -> None:
        self.image_size = image_size
        self.num_samples_per_ray = num_samples_per_ray
        self.near = near
        self.far = far
        self.fov_deg = fov_deg
        self.elevation_deg = elevation_deg
        self.radius = radius

    # ------------------------------------------------------------------ rays
    def rays_for_angle(self, azimuth_deg: float) -> Tuple[np.ndarray, np.ndarray]:
        return _rays(float(azimuth_deg), self.image_size, self.fov_deg,
                     self.elevation_deg, self.radius)

    def sample_points(self, azimuth_deg: float) -> Tuple[np.ndarray, float]:
        """Cached ``(points (rays, samples, 3), delta)`` for one azimuth.

        The returned array is shared and read-only; downstream consumers only
        ever read it (Tensor ops allocate fresh outputs).  Grids too large to
        pin for the process lifetime are recomputed instead of cached (see
        ``_CACHE_ENTRY_BYTE_LIMIT``); :func:`clear_geometry_cache` releases
        everything explicitly.
        """
        entry_bytes = self.image_size ** 2 * self.num_samples_per_ray * 3 * 8
        fn = _compute_points if entry_bytes > _CACHE_ENTRY_BYTE_LIMIT else _cached_points
        return fn(float(azimuth_deg), self.image_size, self.fov_deg,
                  self.elevation_deg, self.radius, self.near, self.far,
                  self.num_samples_per_ray)

    # -------------------------------------------------------------- rendering
    def composite(self, raw: Tensor, delta: float, num_rays: int) -> Tuple[Tensor, Tensor]:
        """Alpha-composite raw field values into per-ray colour and opacity.

        ``raw``: ``(..., num_rays * samples, 4)`` -> ``(colours (..., num_rays, 3),
        silhouette (..., num_rays))``.  Any leading axes (vectorized posterior
        samples, batched views) broadcast through unchanged.
        """
        samples = self.num_samples_per_ray
        raw = raw.reshape(raw.shape[:-2] + (num_rays, samples, 4))
        density = raw[..., 0].softplus()
        rgb = raw[..., 1:].sigmoid()
        alpha = 1.0 - (-density * delta).exp()  # (..., rays, samples)
        # transmittance T_i = exp(sum_{j<i} log(1 - alpha_j)), kept differentiable
        log_transmittance = (1.0 - alpha + 1e-10).log().cumsum(axis=-1, exclusive=True)
        weights = alpha * log_transmittance.exp()  # (..., rays, samples)
        colour = (weights.unsqueeze(-1) * rgb).sum(axis=-2)  # (..., rays, 3)
        silhouette = weights.sum(axis=-1)  # (..., rays)
        return colour, silhouette

    def __call__(self, azimuth_deg: float, field: Callable[[Tensor], Tensor]
                 ) -> Tuple[Tensor, Tensor]:
        """Render one view: returns ``(image (H, W, 3), silhouette (H, W))``."""
        points, delta = self.sample_points(azimuth_deg)
        num_rays = points.shape[0]
        flat_points = Tensor(points.reshape(-1, 3))
        raw = field(flat_points)
        colour, silhouette = self.composite(raw, delta, num_rays)
        h = w = self.image_size
        lead = colour.shape[:-2]
        return colour.reshape(lead + (h, w, 3)), silhouette.reshape(lead + (h, w))

    render = __call__

    def render_batch(self, azimuth_degs: Sequence[float], field: Callable[[Tensor], Tensor]
                     ) -> Tuple[Tensor, Tensor]:
        """Render several views through ONE field evaluation.

        All angles' ray points are concatenated into a single query batch, so
        the field (deterministic net, analytic scene, or vectorized BNN
        forward) runs once instead of once per view.  Returns
        ``(images (..., A, H, W, 3), silhouettes (..., A, H, W))`` where the
        leading axes are whatever sample axes the field output carries.
        """
        angles = [float(a) for a in azimuth_degs]
        if not angles:
            raise ValueError("render_batch requires at least one azimuth angle")
        per_angle = [self.sample_points(a) for a in angles]
        points = np.concatenate([pts for pts, _ in per_angle])  # (A*rays, s, 3)
        delta = per_angle[0][1]
        num_rays = points.shape[0]
        raw = field(Tensor(points.reshape(-1, 3)))
        colour, silhouette = self.composite(raw, delta, num_rays)
        h = w = self.image_size
        lead = colour.shape[:-2]
        return (colour.reshape(lead + (len(angles), h, w, 3)),
                silhouette.reshape(lead + (len(angles), h, w)))

    def render_posterior(self, azimuth_degs: Sequence[float], bnn, num_samples: int,
                         chunk_size: Optional[int] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Render ``num_samples`` posterior draws of every view in batched passes.

        ``bnn`` must expose the vectorized-BNN interface
        (``posterior_weight_samples`` / ``vectorized_forward``, e.g.
        :class:`repro.core.bnn.PytorchBNN`).  Weight samples are drawn
        angle-major (``num_samples`` fresh draws per angle, in angle order) so
        the RNG stream — and therefore the result — is identical to the looped
        reference ``for angle: for sample: renderer(angle, bnn)``; the forward
        passes and compositing run batched over the ``angles x samples``
        leading axis instead.

        ``chunk_size=None`` (the default) renders one angle per batched
        forward: all ``num_samples`` draws share that angle's ray points, so
        the network sees a single 2-D query batch against ``(S, ...)``-stacked
        weights (the fastest leading-sample-dimension layout: the positional
        encoding and the first-layer input are computed once instead of once
        per sample, and activations stay cache-sized), and every view's raw
        field output is composited in one batched pass at the end.  An
        explicit ``chunk_size`` instead folds that many angles into one
        forward (pairing every draw with its own copy of the angle's query
        points) and composites per chunk, bounding peak memory by the chunk
        rather than the whole sweep.  Draw order — and therefore the result —
        is unaffected either way.

        Refuses to run while an ``nn`` effect handler is active, since a
        batched forward cannot reproduce its per-pass draws.

        Returns numpy arrays ``(images (A, S, H, W, 3),
        silhouettes (A, S, H, W))``.
        """
        F.refuse_effect_handlers("render_posterior")
        angles = [float(a) for a in np.atleast_1d(np.asarray(azimuth_degs, dtype=np.float64))]
        if not angles:
            raise ValueError("render_posterior requires at least one azimuth angle")
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        h = w = self.image_size
        per_angle = chunk_size is None
        chunk = 1 if per_angle else chunk_size
        if chunk < 1:
            raise ValueError("chunk_size must be positive")
        raws, images, silhouettes = [], [], []
        raw_bytes = 0

        def _flush_raws():
            # batched compositing: same arithmetic as per-view compositing, a
            # fraction of the op dispatches
            nonlocal raw_bytes
            if not raws:
                return
            stacked_raw = Tensor(np.concatenate(raws))  # (A', S, rays*samples, 4)
            colour, silhouette = self.composite(stacked_raw, delta, num_rays)
            flushed = stacked_raw.shape[0]
            images.append(colour.data.reshape(flushed, num_samples, h, w, 3))
            silhouettes.append(silhouette.data.reshape(flushed, num_samples, h, w))
            raws.clear()
            raw_bytes = 0

        with no_grad():
            first_points, delta = self.sample_points(angles[0])
            proto = Tensor(np.asarray(first_points).reshape(-1, 3))
            num_rays = self.image_size ** 2
            all_draws = None
            if per_angle:
                # the speed path hoists one stacked draw covering every angle:
                # sample_stacked draws iteration-major, so a single stack of
                # A*S draws consumes the stream exactly like A sequential
                # per-angle stacks of S (explicit chunking instead draws per
                # chunk inside the loop, bounding weight-stack memory too)
                all_draws = bnn.posterior_weight_samples(len(angles) * num_samples, proto)
            for start in range(0, len(angles), chunk):
                group = angles[start:start + chunk]
                if per_angle:
                    # shared 2-D queries (a zero-copy view of the cached grid)
                    # against (S, ...) weight stacks; defer compositing to
                    # batch it, flushing at the byte cap
                    block = slice(start * num_samples, (start + 1) * num_samples)
                    draws = OrderedDict((name, stack[block])
                                        for name, stack in all_draws.items())
                    points = np.asarray(self.sample_points(group[0])[0]).reshape(-1, 3)
                    raw = bnn.vectorized_forward(Tensor(points), samples=draws)
                    raws.append(raw.data.reshape(1, num_samples, -1, 4))
                    raw_bytes += raws[-1].nbytes
                    if raw_bytes >= _RAW_FLUSH_BYTE_LIMIT:
                        _flush_raws()
                else:
                    # explicit chunking bounds peak memory: draw per chunk,
                    # composite now, and keep only the (chunk, S, H, W, 3)
                    # images, not the raws (the chunk-sequential draws consume
                    # the RNG stream exactly like the hoisted stack would)
                    pts = np.stack([self.sample_points(a)[0] for a in group])
                    num_angles = pts.shape[0]
                    flat = pts.reshape(num_angles, num_rays * self.num_samples_per_ray, 3)
                    draws = bnn.posterior_weight_samples(num_angles * num_samples,
                                                         Tensor(flat[0]))
                    queries = Tensor(np.repeat(flat, num_samples, axis=0))  # (A*S, n_pts, 3)
                    raw = bnn.vectorized_forward(queries, samples=draws)
                    colour, silhouette = self.composite(raw, delta, num_rays)
                    images.append(colour.data.reshape(num_angles, num_samples, h, w, 3))
                    silhouettes.append(silhouette.data.reshape(num_angles, num_samples, h, w))
            _flush_raws()
        return np.concatenate(images), np.concatenate(silhouettes)
