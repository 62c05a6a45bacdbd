"""Snapshot round-trip, integrity and servability-rejection coverage."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (PredictionEngine, Snapshot, SnapshotError,
                         create_snapshot, load_snapshot, snapshot_from_bnn)

REPO_ROOT = Path(__file__).resolve().parents[2]

# must match the session fixture in conftest.py
TINY_NUM_SAMPLES = 8


class TestRoundTrip:
    def test_save_load_preserves_everything(self, fig1_snapshot_dir):
        loaded = load_snapshot(fig1_snapshot_dir)
        assert loaded.experiment_id == "fig1-regression"
        assert loaded.num_samples == TINY_NUM_SAMPLES
        assert loaded.config["n_per_cluster"] == 6
        assert set(loaded.sites) == {"0.weight", "0.bias", "2.weight", "2.bias"}
        for stack in loaded.sites.values():
            assert stack.shape[0] == TINY_NUM_SAMPLES

    def test_snapshot_id_stable_across_load(self, fig1_snapshot_dir):
        first = load_snapshot(fig1_snapshot_dir)
        second = load_snapshot(fig1_snapshot_dir)
        assert first.snapshot_id == second.snapshot_id
        manifest = json.loads((fig1_snapshot_dir / "manifest.json").read_text())
        assert manifest["snapshot_id"] == first.snapshot_id

    def test_create_is_deterministic_in_the_config(self, tmp_path, tiny_overrides):
        one = create_snapshot("fig1-regression", fast=True, overrides=tiny_overrides,
                              num_samples=4)
        two = create_snapshot("fig1-regression", fast=True, overrides=tiny_overrides,
                              num_samples=4)
        assert one.snapshot_id == two.snapshot_id
        for name in one.sites:
            assert one.sites[name].tobytes() == two.sites[name].tobytes()

    def test_untrained_snapshot_serves(self, tmp_path, tiny_overrides):
        snapshot = create_snapshot("fig1-regression", fast=True,
                                   overrides=tiny_overrides, num_samples=4,
                                   trained=False)
        engine = PredictionEngine.from_snapshot(
            load_snapshot(snapshot.save(tmp_path / "untrained")))
        response = engine.predict(np.zeros((2, 1)))
        assert response.mean.shape == (2, 1)
        assert (response.lo < response.hi).all()

    def test_fresh_process_predictions_byte_identical(self, fig1_snapshot_dir,
                                                      fig1_engine, request_rows):
        local = fig1_engine.predict(request_rows)
        script = textwrap.dedent(f"""
            import numpy as np
            from repro.serve import PredictionEngine, load_snapshot
            engine = PredictionEngine.from_snapshot(
                load_snapshot({str(fig1_snapshot_dir)!r}))
            rows = np.linspace(-2.0, 2.0, 24).reshape(-1, 1)
            response = engine.predict(rows)
            print(response.mean.tobytes().hex())
            print(response.std.tobytes().hex())
        """)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                                "PATH": "/usr/bin:/bin"}, check=True)
        mean_hex, std_hex = result.stdout.split()
        assert mean_hex == local.mean.tobytes().hex()
        assert std_hex == local.std.tobytes().hex()


class TestRejection:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="repro snapshot"):
            load_snapshot(tmp_path / "nowhere")

    def test_corrupt_manifest(self, tmp_path):
        root = tmp_path / "snap"
        root.mkdir()
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotError, match="corrupted"):
            load_snapshot(root)

    def test_unsupported_format_version(self, fig1_snapshot_dir, tmp_path):
        root = tmp_path / "snap"
        root.mkdir()
        (root / "weights.npz").write_bytes(
            (fig1_snapshot_dir / "weights.npz").read_bytes())
        manifest = json.loads((fig1_snapshot_dir / "manifest.json").read_text())
        manifest["format_version"] = 99
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format_version"):
            load_snapshot(root)

    def test_tampered_weights_fail_integrity(self, fig1_snapshot_dir, tmp_path):
        root = tmp_path / "snap"
        root.mkdir()
        (root / "manifest.json").write_text(
            (fig1_snapshot_dir / "manifest.json").read_text())
        with np.load(fig1_snapshot_dir / "weights.npz") as archive:
            arrays = {key: archive[key] for key in archive.files}
        first = next(iter(arrays))
        arrays[first] = arrays[first] + 1e-9
        with open(root / "weights.npz", "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(SnapshotError, match="integrity"):
            load_snapshot(root)

    def test_mcmc_backed_manifest_rejected(self, fig1_snapshot_dir, tmp_path):
        root = tmp_path / "snap"
        root.mkdir()
        (root / "weights.npz").write_bytes(
            (fig1_snapshot_dir / "weights.npz").read_bytes())
        manifest = json.loads((fig1_snapshot_dir / "manifest.json").read_text())
        manifest["posterior"] = "mcmc"
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="VariationalBNN"):
            load_snapshot(root)

    def test_mcmc_bnn_rejected_at_save_time(self):
        from functools import partial

        import repro.core as tyxe
        from repro import nn, ppl
        from repro.ppl import distributions as dist

        net = nn.Sequential(nn.Linear(1, 4), nn.Tanh(), nn.Linear(4, 1))
        bnn = tyxe.MCMC_BNN(
            net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
            tyxe.likelihoods.HomoskedasticGaussian(4, scale=0.1),
            partial(ppl.infer.HMC, step_size=1e-3, num_steps=2))
        with pytest.raises(SnapshotError, match="guide"):
            snapshot_from_bnn(bnn, "fig1-regression", {}, 4, np.zeros((2, 1)))

    def test_unservable_experiment_has_clear_diagnostic(self):
        with pytest.raises(SnapshotError, match="ServeTarget"):
            create_snapshot("fig3-nerf", fast=True, trained=False)

    def test_bad_num_samples(self, tiny_overrides):
        with pytest.raises(SnapshotError, match="num_samples"):
            create_snapshot("fig1-regression", fast=True, overrides=tiny_overrides,
                            num_samples=0, trained=False)


class TestEngineValidation:
    def test_site_mismatch_rejected(self, fig1_snapshot_dir):
        loaded = load_snapshot(fig1_snapshot_dir)
        loaded.sites.pop("2.bias")
        with pytest.raises(SnapshotError, match="architecture drift"):
            PredictionEngine.from_snapshot(loaded)

    def test_config_echo_rebuilds_typed_config(self, fig1_snapshot_dir):
        engine = PredictionEngine.from_snapshot(load_snapshot(fig1_snapshot_dir))
        # hidden_units=8 from the config echo, not the class default of 50
        assert engine.snapshot.sites["0.weight"].shape == (TINY_NUM_SAMPLES, 8, 1)
        assert set(engine.bnn.param_dists) == set(engine.snapshot.sites)

    def test_config_with_removed_backend_field_rejected(self, fig1_snapshot_dir,
                                                        tmp_path):
        # configs used to carry a ``backend`` field, so older snapshots echo
        # ``"backend": null``; loading one must raise SnapshotError, not TypeError
        legacy = load_snapshot(fig1_snapshot_dir)
        legacy.config["backend"] = None
        legacy.save(tmp_path / "legacy")
        with pytest.raises(SnapshotError, match="no longer matches.*backend"):
            PredictionEngine.from_snapshot(load_snapshot(tmp_path / "legacy"))

    def test_gaussian_stats_mean_is_the_likelihood_aggregate(self, fig1_engine,
                                                            request_rows):
        from repro.nn.tensor import Tensor

        raw = fig1_engine.predict_stacked(request_rows)
        for view in (raw, raw[:, 3:4], raw[:, 5:17]):
            expected = fig1_engine.bnn.likelihood.aggregate_predictions(
                Tensor(view)).data
            assert (fig1_engine.stats(view).mean.tobytes()
                    == np.asarray(expected).tobytes())

    def test_snapshot_dataclass_roundtrip_without_experiment(self, tmp_path):
        from collections import OrderedDict

        snapshot = Snapshot(experiment_id="adhoc", config={},
                            num_samples=2,
                            sites=OrderedDict(w=np.zeros((2, 3))))
        loaded = load_snapshot(snapshot.save(tmp_path / "adhoc"))
        assert loaded.snapshot_id == snapshot.snapshot_id
