"""Tests for the batched (sample-dimension-aware) rendering engine.

Covers the PR-2 surface: broadcast-aware ``composite`` (including gradients),
the O(n) cumulative-sum transmittance, the per-angle geometry cache,
multi-angle ``render_batch``, and the RNG-identical ``render_posterior``
fast path against the looped per-angle/per-sample reference.
"""

from functools import partial

import numpy as np
import pytest

from loop_oracles import looped_posterior_views
from repro import nn, ppl
import repro.core as tyxe
from repro.experiments.nerf import _render_posterior_views
from repro.nn.tensor import Tensor
from repro.ppl import distributions as dist
from repro.render import VolumetricRenderer, make_nerf_field, two_sphere_field


def _make_nerf_bnn(rng, renderer):
    field = make_nerf_field(num_frequencies=3, hidden=16, depth=2, rng=rng)
    guide = partial(tyxe.guides.AutoNormal, init_scale=1e-2,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(field))
    bnn = tyxe.PytorchBNN(field, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)), guide)
    bnn.pytorch_parameters(Tensor(np.zeros((4, 3))))
    return bnn


class TestBatchedComposite:
    def _random_raw(self, rng, lead, num_rays=9, samples=6):
        return rng.standard_normal(lead + (num_rays * samples, 4))

    def test_batched_matches_per_item_loop(self, rng):
        renderer = VolumetricRenderer(image_size=3, num_samples_per_ray=6)
        raw = self._random_raw(rng, (4, 5))
        colour, silhouette = renderer.composite(Tensor(raw), 0.2, 9)
        assert colour.shape == (4, 5, 9, 3)
        assert silhouette.shape == (4, 5, 9)
        for i in range(4):
            for j in range(5):
                c_ij, s_ij = renderer.composite(Tensor(raw[i, j]), 0.2, 9)
                np.testing.assert_allclose(colour.data[i, j], c_ij.data, atol=1e-12)
                np.testing.assert_allclose(silhouette.data[i, j], s_ij.data, atol=1e-12)

    def test_batched_gradients_match_per_item_loop(self, rng):
        renderer = VolumetricRenderer(image_size=3, num_samples_per_ray=6)
        raw = self._random_raw(rng, (3,))
        batched = Tensor(raw, requires_grad=True)
        colour, silhouette = renderer.composite(batched, 0.2, 9)
        ((colour ** 2).sum() + silhouette.sum()).backward()
        for i in range(3):
            single = Tensor(raw[i], requires_grad=True)
            c_i, s_i = renderer.composite(single, 0.2, 9)
            ((c_i ** 2).sum() + s_i.sum()).backward()
            np.testing.assert_allclose(batched.grad[i], single.grad, atol=1e-10)

    def test_transmittance_gradcheck_through_cumsum(self, grad_check, rng):
        renderer = VolumetricRenderer(image_size=2, num_samples_per_ray=4)

        def loss(raw):
            colour, silhouette = renderer.composite(raw, 0.3, 4)
            return (colour ** 2).sum() + (silhouette ** 2).sum()

        grad_check(loss, rng.standard_normal((16, 4)), atol=1e-4)


class TestGeometryCache:
    def test_sample_points_cached_per_angle(self):
        renderer = VolumetricRenderer(image_size=6, num_samples_per_ray=6)
        p1, d1 = renderer.sample_points(33.0)
        p2, d2 = renderer.sample_points(33.0)
        assert p1 is p2 and d1 == d2
        assert not p1.flags.writeable

    def test_cache_respects_geometry_parameters(self):
        a = VolumetricRenderer(image_size=6, num_samples_per_ray=6)
        b = VolumetricRenderer(image_size=8, num_samples_per_ray=6)
        assert a.sample_points(10.0)[0].shape != b.sample_points(10.0)[0].shape
        # mutating renderer geometry keys a fresh cache entry
        a.fov_deg = 60.0
        p_wide, _ = a.sample_points(10.0)
        a.fov_deg = 45.0
        p_narrow, _ = a.sample_points(10.0)
        assert not np.allclose(p_wide, p_narrow)

    def test_oversized_grids_bypass_cache_and_clear_releases(self):
        from repro.render import clear_geometry_cache
        from repro.render.renderer import _CACHE_ENTRY_BYTE_LIMIT, _cached_points

        big = VolumetricRenderer(image_size=64, num_samples_per_ray=32)
        assert big.image_size ** 2 * big.num_samples_per_ray * 3 * 8 > _CACHE_ENTRY_BYTE_LIMIT
        p1, _ = big.sample_points(5.0)
        p2, _ = big.sample_points(5.0)
        assert p1 is not p2  # recomputed, not pinned for the process lifetime
        np.testing.assert_array_equal(p1, p2)
        small = VolumetricRenderer(image_size=4, num_samples_per_ray=4)
        small.sample_points(5.0)
        assert _cached_points.cache_info().currsize > 0
        clear_geometry_cache()
        assert _cached_points.cache_info().currsize == 0

    def test_rays_cached_and_consistent_with_uncached(self):
        from repro.render.cameras import camera_rays

        renderer = VolumetricRenderer(image_size=5)
        origins, directions = renderer.rays_for_angle(77.0)
        o_ref, d_ref = camera_rays(77.0, image_size=5, fov_deg=renderer.fov_deg,
                                   elevation_deg=renderer.elevation_deg,
                                   radius=renderer.radius)
        np.testing.assert_allclose(origins, o_ref)
        np.testing.assert_allclose(directions, d_ref)


class TestRenderBatch:
    def test_matches_per_angle_renders(self):
        renderer = VolumetricRenderer(image_size=6, num_samples_per_ray=8)
        angles = [0.0, 45.0, 220.0]
        images, silhouettes = renderer.render_batch(angles, two_sphere_field)
        assert images.shape == (3, 6, 6, 3)
        assert silhouettes.shape == (3, 6, 6)
        for i, angle in enumerate(angles):
            image, silhouette = renderer(angle, two_sphere_field)
            np.testing.assert_allclose(images.data[i], image.data, atol=1e-12)
            np.testing.assert_allclose(silhouettes.data[i], silhouette.data, atol=1e-12)

    def test_gradients_flow_through_batched_render(self, rng):
        renderer = VolumetricRenderer(image_size=4, num_samples_per_ray=4)
        field = make_nerf_field(num_frequencies=2, hidden=8, depth=2, rng=rng)
        images, silhouettes = renderer.render_batch([0.0, 90.0], field)
        ((images ** 2).mean() + (silhouettes ** 2).mean()).backward()
        assert all(p.grad is not None for p in field.parameters())

    def test_empty_angle_list_rejected(self):
        renderer = VolumetricRenderer(image_size=4, num_samples_per_ray=4)
        with pytest.raises(ValueError):
            renderer.render_batch([], two_sphere_field)


class TestRenderPosterior:
    ANGLES = [0.0, 72.0, 144.0, 290.0]

    def test_rng_identical_to_looped_reference(self, rng):
        renderer = VolumetricRenderer(image_size=6, num_samples_per_ray=6)
        bnn = _make_nerf_bnn(rng, renderer)
        num_samples = 5
        ppl.set_rng_seed(7)
        looped = []
        with nn.no_grad():
            for angle in self.ANGLES:
                looped.append(np.stack([renderer(angle, bnn)[0].data.copy()
                                        for _ in range(num_samples)]))
        ppl.set_rng_seed(7)
        images, silhouettes = renderer.render_posterior(self.ANGLES, bnn, num_samples)
        assert images.shape == (4, num_samples, 6, 6, 3)
        assert silhouettes.shape == (4, num_samples, 6, 6)
        np.testing.assert_allclose(images, np.stack(looped), atol=1e-8, rtol=0)

    def test_chunked_matches_unchunked(self, rng):
        renderer = VolumetricRenderer(image_size=6, num_samples_per_ray=6)
        bnn = _make_nerf_bnn(rng, renderer)
        ppl.set_rng_seed(3)
        full, _ = renderer.render_posterior(self.ANGLES, bnn, 4)
        for chunk_size in (1, 2, 3):
            ppl.set_rng_seed(3)
            chunked, _ = renderer.render_posterior(self.ANGLES, bnn, 4,
                                                   chunk_size=chunk_size)
            np.testing.assert_allclose(chunked, full, atol=1e-8, rtol=0)

    def test_experiment_helper_matches_loop_oracle(self, rng):
        renderer = VolumetricRenderer(image_size=6, num_samples_per_ray=6)
        bnn = _make_nerf_bnn(rng, renderer)
        ppl.set_rng_seed(11)
        looped = looped_posterior_views(renderer, bnn, self.ANGLES, 4)
        looped_state = ppl.get_rng().bit_generator.state
        ppl.set_rng_seed(11)
        batched = _render_posterior_views(renderer, bnn, self.ANGLES, 4)
        assert ppl.get_rng().bit_generator.state == looped_state
        for key in ("mean", "std"):
            assert len(batched[key]) == len(looped[key])
            for vec, ref in zip(batched[key], looped[key]):
                np.testing.assert_array_equal(vec, ref)

    def test_rejects_bad_arguments(self, rng):
        renderer = VolumetricRenderer(image_size=4, num_samples_per_ray=4)
        bnn = _make_nerf_bnn(rng, renderer)
        with pytest.raises(ValueError):
            renderer.render_posterior([], bnn, 2)
        with pytest.raises(ValueError):
            renderer.render_posterior([0.0], bnn, 0)
        with pytest.raises(ValueError):
            renderer.render_posterior([0.0], bnn, 2, chunk_size=0)

    def test_single_angle_render_supports_vectorized_field(self, rng):
        # __call__ passes leading sample dims through composite and reshaping
        renderer = VolumetricRenderer(image_size=5, num_samples_per_ray=5)
        bnn = _make_nerf_bnn(rng, renderer)
        with nn.no_grad():
            image, silhouette = renderer(
                30.0, lambda pts: bnn.vectorized_forward(pts, num_samples=3))
        assert image.shape == (3, 5, 5, 3)
        assert silhouette.shape == (3, 5, 5)


class TestRenderPosteriorPartialGuide:
    def _partial_bnn(self, rng, hidden_site="backbone.0.weight"):
        # a PytorchBNN whose guide hides one Bayesian site: the batched
        # renderer must complete it with stacked per-sample prior draws
        # instead of refusing (the lifted vectorized-mode limitation)
        field = make_nerf_field(num_frequencies=3, hidden=16, depth=2, rng=rng)
        guide = lambda model: tyxe.guides.AutoNormal(
            ppl.poutine.block(model, hide=[hidden_site]), init_scale=1e-2,
            init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(field))
        bnn = tyxe.PytorchBNN(field, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)), guide)
        bnn.pytorch_parameters(Tensor(np.zeros((4, 3))))
        return bnn, hidden_site

    def test_partially_guided_bnn_renders_with_per_sample_prior_draws(self, rng):
        renderer = VolumetricRenderer(image_size=4, num_samples_per_ray=4)
        bnn, hidden_site = self._partial_bnn(rng)
        # sanity: the guide really does not cover the hidden site
        assert hidden_site in bnn.param_dists
        assert hidden_site not in bnn.net_guide.latent_names
        num_samples = 4
        ppl.set_rng_seed(13)
        images, silhouettes = renderer.render_posterior([0.0, 120.0], bnn, num_samples)
        assert images.shape == (2, num_samples, 4, 4, 3)
        assert silhouettes.shape == (2, num_samples, 4, 4)
        assert np.isfinite(images).all()
        # the uncovered site's prior (a wide standard normal over first-layer
        # weights) must vary across posterior samples: the per-sample images
        # may not collapse onto one shared draw
        assert float(images.std(axis=1).mean()) > 1e-4

    def test_partially_guided_bnn_matches_loop_oracle(self, rng):
        # the stacks are drawn in the loop's order (guide sites, then the
        # uncovered prior site, per sample), so the views are byte-equal
        renderer = VolumetricRenderer(image_size=4, num_samples_per_ray=4)
        bnn, _ = self._partial_bnn(rng)
        angles = [0.0, 120.0]
        ppl.set_rng_seed(17)
        looped = looped_posterior_views(renderer, bnn, angles, 3)
        ppl.set_rng_seed(17)
        batched = _render_posterior_views(renderer, bnn, angles, 3)
        for key in ("mean", "std"):
            for vec, ref in zip(batched[key], looped[key]):
                np.testing.assert_array_equal(vec, ref)
