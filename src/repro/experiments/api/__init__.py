"""``repro.experiments.api`` — the unified experiment protocol.

Every paper artefact (Figure 1-4, Table 1-2) is exposed through one surface:

* :class:`BaseExperimentConfig` — common knobs (``seed``, ``fast``,
  ``output_dir``), JSON serialization, typed
  ``key=value`` overrides and the single shared seeding helper
  (:meth:`~BaseExperimentConfig.seed_all`).
* :class:`ExperimentResult` — the shared JSON artifact schema: a flat
  ``metrics`` dict, a ``config`` echo, wall-clock time and
  ``to_json``/``from_json`` round-tripping.
* :func:`register` / :func:`get_experiment` / :func:`run_experiment` — the
  decorator-based registry mapping experiment ids (``fig1-regression`` …) to
  their config class and runner.
* :mod:`repro.experiments.api.cli` — the ``repro`` console script
  (``repro list``, ``repro run fig4-vcl --fast --set epochs_per_task=2``,
  ``repro run-all --fast``).

Importing :mod:`repro.experiments` (or calling any registry accessor)
populates the registry with the six paper artefacts E1-E6.
"""

from .base import (SCHEMA_VERSION, BaseExperimentConfig, ExperimentResult,
                   ResultCorruptedError, parse_name_list, parse_overrides)
from .registry import (ExperimentSpec, all_experiments, experiment_ids,
                       find_experiment, get_experiment, register, run_experiment)

__all__ = [
    "SCHEMA_VERSION",
    "BaseExperimentConfig",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCorruptedError",
    "all_experiments",
    "experiment_ids",
    "find_experiment",
    "get_experiment",
    "parse_name_list",
    "parse_overrides",
    "register",
    "run_experiment",
]
