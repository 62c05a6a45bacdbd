"""Tests for the unified experiment API: registry, config protocol, artifacts.

Covers the contract every registered experiment must satisfy:

* the registry maps E1-E6 to runnable specs with ``BaseExperimentConfig``
  subclasses and ``fast()`` constructors,
* typed ``--set key=value`` overrides coerce to the declared field types,
* every experiment's :class:`ExperimentResult` JSON artifact round-trips
  (metrics and config echo equal) under reduced ``fast`` configs,
* one shared seeding helper makes same-seed runs bitwise repeatable,
* the legacy ``run_*`` entry points still work (with a deprecation warning)
  and agree with the registry path at a fixed seed.
"""

import json

import numpy as np
import pytest

from repro import ppl
from repro.experiments.api import (SCHEMA_VERSION, BaseExperimentConfig, ExperimentResult,
                                   all_experiments, experiment_ids, get_experiment,
                                   parse_overrides, run_experiment)

# extra-tiny overrides so that running all six artefacts stays test-suite cheap
TINY_OVERRIDES = {
    "fig1-regression": {"n_per_cluster": 6, "num_epochs": 3, "num_predictions": 2,
                        "hmc_num_samples": 4, "hmc_warmup": 4},
    "table1-resnet": {"methods": "ml,mf", "train_per_class": 4, "test_per_class": 3,
                      "num_ood": 8, "ml_epochs": 1, "vi_epochs": 1, "num_predictions": 2},
    "fig2-calibration": {"train_per_class": 4, "test_per_class": 3, "num_ood": 8,
                         "ml_epochs": 1, "vi_epochs": 1, "num_predictions": 2},
    "table2-gnn": {"num_nodes": 60, "train_per_class": 5, "val_per_class": 5, "num_runs": 1,
                   "ml_iterations": 5, "mf_iterations": 5, "num_predictions": 2},
    "fig3-nerf": {"image_size": 6, "num_samples_per_ray": 4, "num_train_views": 3,
                  "num_test_views": 2, "det_iterations": 3, "bayes_iterations": 3,
                  "num_posterior_samples": 2},
    "fig4-vcl": {"suite": "mnist", "num_tasks": 2, "train_per_class": 4, "test_per_class": 3,
                 "epochs_per_task": 2, "num_predictions": 2},
}


class TestRegistry:
    def test_all_six_artefacts_registered_in_order(self):
        # filter to the paper artefacts (E*): auxiliary workloads may register
        # too when the benchmark/exec suites are collected in the same run
        specs = [s for s in all_experiments() if s.number.startswith("E")]
        assert [s.number for s in specs] == ["E1", "E2", "E3", "E4", "E5", "E6"]
        paper_ids = [s.experiment_id for s in specs]
        assert paper_ids == ["fig1-regression", "table1-resnet", "fig2-calibration",
                             "table2-gnn", "fig3-nerf", "fig4-vcl"]
        assert set(paper_ids) <= set(experiment_ids())
        assert {s.artefact for s in specs} == {"Figure 1", "Figure 2", "Figure 3", "Figure 4",
                                               "Table 1", "Table 2"}

    def test_specs_expose_config_protocol(self):
        for spec in all_experiments():
            assert issubclass(spec.config_cls, BaseExperimentConfig)
            fast = spec.config_cls.fast()
            assert fast.fast is True
            default = spec.config_cls()
            assert default.fast is False

    def test_unknown_id_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="fig1-regression"):
            get_experiment("fig9-unknown")

    def test_run_rejects_config_plus_overrides(self):
        spec = get_experiment("fig1-regression")
        with pytest.raises(ValueError, match="not both"):
            spec.run(spec.config_cls(), fast=True)


class TestConfigProtocol:
    def test_typed_overrides(self):
        spec = get_experiment("fig1-regression")
        config = spec.make_config(overrides={"num_epochs": "7", "learning_rate": "0.5",
                                             "panels": "hmc", "output_dir": "none"})
        assert config.num_epochs == 7 and isinstance(config.num_epochs, int)
        assert config.learning_rate == 0.5
        assert config.panels == "hmc"
        assert config.output_dir is None
        config = get_experiment("fig4-vcl").make_config(overrides={"single_head": "false"})
        assert config.single_head is False

    def test_unknown_override_key_rejected(self):
        spec = get_experiment("fig1-regression")
        with pytest.raises(ValueError, match="no field"):
            spec.make_config(overrides={"nonexistent_knob": "1"})

    def test_bad_boolean_override_rejected(self):
        spec = get_experiment("fig4-vcl")
        with pytest.raises(ValueError, match="boolean"):
            spec.make_config(overrides={"single_head": "maybe"})

    @pytest.mark.parametrize("key", ["vectorized_eval", "render_chunk_size"])
    def test_removed_prediction_knobs_are_unknown_keys(self, key, capsys):
        # prediction has one batched path: neither the looped-evaluation
        # switch nor the NeRF render chunking is a config field any more
        from repro.experiments.api.cli import main

        assert main(["run", "fig3-nerf", "--fast", "--set", f"{key}=false"]) == 2
        assert f"no field {key!r}" in capsys.readouterr().err

    def test_parse_overrides(self):
        assert parse_overrides(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
        with pytest.raises(ValueError):
            parse_overrides(["missing-equals"])

    def test_parse_overrides_strips_keys_and_values(self):
        # `--set key= value` (a shell-split space after the `=`) must
        # round-trip the same as `--set key=value`; inner whitespace stays
        assert parse_overrides(["key= value"]) == parse_overrides(["key=value"])
        assert parse_overrides([" key =\tvalue "]) == {"key": "value"}
        assert parse_overrides(["title= a b "]) == {"title": "a b"}
        with pytest.raises(ValueError):
            parse_overrides([" =value"])  # blank key is still rejected

    def test_parse_overrides_repeated_key_last_wins(self):
        assert parse_overrides(["seed=1", "seed= 2"]) == {"seed": "2"}

    def test_stripped_override_value_coerces_like_unstripped(self):
        spec = get_experiment("fig3-nerf")
        plain = spec.make_config(overrides=parse_overrides(["num_posterior_samples=4"]))
        spaced = spec.make_config(overrides=parse_overrides(["num_posterior_samples= 4"]))
        assert plain == spaced
        assert plain.num_posterior_samples == 4

    def test_config_dict_round_trip(self):
        for spec in all_experiments():
            config = spec.make_config(fast=True)
            rebuilt = spec.config_cls.from_dict(config.to_dict())
            assert rebuilt == config

    def test_seed_all_is_shared_idiom(self):
        config = get_experiment("fig1-regression").make_config(overrides={"seed": 123})
        rng = config.seed_all()
        # the returned generator and the global ppl generator are both fresh
        # generators seeded with config.seed
        assert rng.standard_normal() == np.random.default_rng(123).standard_normal()
        assert (ppl.get_rng().standard_normal()
                == np.random.default_rng(123).standard_normal())


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("experiment_id", sorted(TINY_OVERRIDES))
    def test_result_serializes_and_round_trips(self, experiment_id, tmp_path):
        spec = get_experiment(experiment_id)
        overrides = dict(TINY_OVERRIDES[experiment_id])
        overrides["output_dir"] = str(tmp_path)
        result = spec.run(fast=True, overrides=overrides)

        assert result.experiment_id == experiment_id
        assert result.schema_version == SCHEMA_VERSION
        assert result.metrics, "every experiment must report at least one metric"
        assert result.wall_clock_seconds > 0.0
        assert result.config["fast"] is True

        artifact = tmp_path / f"{experiment_id}.json"
        assert artifact.exists(), "run() must write the artifact when output_dir is set"
        payload = json.loads(artifact.read_text())
        assert payload["experiment_id"] == experiment_id

        loaded = ExperimentResult.load(artifact)
        assert loaded == result  # metrics, config echo and wall clock all equal
        assert loaded.metrics == result.metrics
        assert loaded.config == result.config

        round_tripped = ExperimentResult.from_json(result.to_json())
        assert round_tripped == result

    def test_from_json_rejects_missing_keys_and_bad_versions(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentResult.from_json("{}")
        good = ExperimentResult("x", {}, {"m": 1.0}, 0.1).to_json()
        bad = good.replace(f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 999')
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentResult.from_json(bad)

    def test_write_is_atomic_no_tmp_residue(self, tmp_path):
        result = ExperimentResult("x", {"seed": 0}, {"m": 1.0}, 0.1)
        path = result.write(tmp_path / "x.json")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
        assert ExperimentResult.load(path) == result

    def test_torn_artifact_raises_corrupted_error_with_path(self, tmp_path):
        from repro.experiments.api import ResultCorruptedError

        result = ExperimentResult("x", {"seed": 0}, {"m": 1.0}, 0.1)
        path = result.write(tmp_path / "x.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # tear it mid-document
        with pytest.raises(ResultCorruptedError) as excinfo:
            ExperimentResult.load(path)
        assert excinfo.value.path == path
        assert str(path) in str(excinfo.value)
        # the torn-file error is still a ValueError for legacy callers
        assert isinstance(excinfo.value, ValueError)


class TestDeterminismAndLegacyEquality:
    def test_same_seed_same_summary(self):
        overrides = dict(TINY_OVERRIDES["fig1-regression"], panels="local_reparameterization",
                        seed=7)
        first = run_experiment("fig1-regression", fast=True, overrides=overrides)
        second = run_experiment("fig1-regression", fast=True, overrides=overrides)
        assert first.metrics == second.metrics
