"""Common config/result protocol shared by every registered experiment.

``BaseExperimentConfig`` centralizes the knobs that each of the five
experiment modules used to reinvent (seed, fast mode, output directory)
together with one seeding idiom and typed ``key=value`` overrides for the
CLI.  ``ExperimentResult`` is the one artifact schema every
experiment emits: a flat JSON document with the metrics, a config echo and
the wall-clock time, round-trippable through ``to_json``/``from_json``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional

import numpy as np

from ... import ppl

__all__ = ["SCHEMA_VERSION", "BaseExperimentConfig", "ExperimentResult",
           "ResultCorruptedError", "parse_name_list", "parse_overrides"]

#: Version of the JSON artifact layout written by :meth:`ExperimentResult.to_json`.
SCHEMA_VERSION = 1


class ResultCorruptedError(ValueError):
    """A result artifact on disk is truncated or not valid JSON.

    Raised by :meth:`ExperimentResult.load` instead of a bare
    ``json.JSONDecodeError`` so callers (the sweep journal's resume scan, the
    worker pool's result validation) can tell "this file was torn mid-write"
    apart from genuine schema errors and re-run the producing cell.
    """

    def __init__(self, path, detail: str):
        self.path = Path(path)
        self.detail = detail
        super().__init__(f"corrupted result artifact {self.path}: {detail}")

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})
_NONE_STRINGS = frozenset({"none", "null"})


def _jsonable(value: Any) -> Any:
    """Convert ``value`` (possibly NumPy-typed or nested) to plain JSON types."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, Path):
        return str(value)
    return value


def _coerce_string(raw: str, type_name: str, key: str) -> Any:
    """Parse a CLI override string according to the declared field type."""
    type_name = type_name.replace(" ", "")
    if type_name.startswith("Optional[") and type_name.endswith("]"):
        if raw.lower() in _NONE_STRINGS:
            return None
        return _coerce_string(raw, type_name[len("Optional["):-1], key)
    if type_name == "bool":
        lowered = raw.lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise ValueError(f"cannot parse {raw!r} as a boolean for {key!r}")
    if type_name == "int":
        return int(raw)
    if type_name == "float":
        return float(raw)
    if type_name == "str":
        return raw
    # unknown annotation: best-effort literal parse, falling back to the string
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw


def parse_name_list(raw: str, allowed: Iterable[str], default: Iterable[str],
                    what: str = "names") -> tuple:
    """Parse a comma-separated config field into a validated name tuple.

    Empty strings and ``"all"`` select ``default``; unknown names raise
    ``ValueError``.  Shared by the ``methods``/``panels`` selector fields so
    their parsing and error behaviour stay consistent across experiments.
    """
    raw = raw.strip()
    if not raw or raw.lower() == "all":
        return tuple(default)
    selected = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = set(selected) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}; choose from {tuple(allowed)}")
    return selected


def parse_overrides(pairs: Optional[Iterable[str]]) -> Dict[str, str]:
    """Split CLI ``--set key=value`` arguments into an override mapping.

    Keys *and* values are whitespace-stripped, so a quoted ``--set 'key= 4'``
    round-trips the same as ``--set key=4`` instead of failing typed coercion
    on the padded string; inner whitespace is preserved.  Repeating a key
    keeps the last value.
    """
    overrides: Dict[str, str] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        overrides[key] = value.strip()
    return overrides


@dataclass
class BaseExperimentConfig:
    """Knobs shared by every experiment, plus serialization and seeding.

    Subclasses append their own hyper-parameters (all fields must have
    defaults) and may re-declare ``seed`` to change its default.  ``fast``
    marks reduced smoke-test-scale configurations (set by each config's
    ``fast()`` constructor); ``output_dir`` is where the registry writes the
    JSON artifact (``None`` = do not write).

    Posterior prediction has one path, the batched leading-sample-dimension
    forward of ``VariationalBNN.predict``; it loops only while an ``nn``
    effect handler is active, as in ``fig1-regression`` panel (a).

    Each concrete config defines a ``fast()`` classmethod returning its
    reduced smoke-test configuration (with ``fast=True`` set).  The
    classmethod deliberately shadows the inherited ``fast`` field's class
    attribute — instances still carry the boolean (``__init__`` always
    assigns it), while ``ConfigCls.fast()`` stays the constructor the
    registry and CLI call for ``--fast`` runs.
    """

    seed: int = 0
    fast: bool = False
    output_dir: Optional[str] = None

    # ------------------------------------------------------------------ seeding
    def seed_all(self) -> np.random.Generator:
        """The single shared seeding idiom for every experiment entry point.

        Seeds the global ``repro.ppl`` RNG, clears the parameter store and
        returns a fresh ``np.random.Generator`` seeded identically — exactly
        the trio every experiment module used to spell out by hand.
        """
        ppl.set_rng_seed(self.seed)
        ppl.clear_param_store()
        return np.random.default_rng(self.seed)

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping of every config field (the artifact's config echo)."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BaseExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields for {cls.__name__}: {sorted(unknown)}")
        return cls(**dict(data))

    # ---------------------------------------------------------------- overrides
    def with_overrides(self, overrides: Mapping[str, Any]) -> "BaseExperimentConfig":
        """A copy with ``overrides`` applied; strings are coerced to field types.

        String values (from CLI ``--set key=value``) are parsed according to
        the declared field annotation (int/float/bool/str and their
        ``Optional`` variants); non-string values are taken as-is.
        """
        declared = {f.name: f for f in fields(self)}
        resolved: Dict[str, Any] = {}
        for key, value in overrides.items():
            if key not in declared:
                raise ValueError(
                    f"{type(self).__name__} has no field {key!r}; "
                    f"known fields: {sorted(declared)}")
            if isinstance(value, str):
                type_name = declared[key].type
                if not isinstance(type_name, str):  # non-string annotations
                    type_name = getattr(type_name, "__name__", str(type_name))
                value = _coerce_string(value, type_name, key)
            resolved[key] = value
        return dataclasses.replace(self, **resolved)


@dataclass
class ExperimentResult:
    """The shared result-artifact schema emitted by every registered experiment.

    ``metrics`` is a flat, JSON-serializable mapping of reproduced numbers
    (floats, strings, lists of floats); ``config`` echoes the exact
    configuration that produced them; ``raw`` optionally carries the
    experiment module's rich in-memory result objects (arrays, curves) and is
    *not* part of the serialized artifact.
    """

    experiment_id: str
    config: Dict[str, Any]
    metrics: Dict[str, Any]
    wall_clock_seconds: float
    schema_version: int = SCHEMA_VERSION
    raw: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.config = _jsonable(dict(self.config))
        self.metrics = _jsonable(dict(self.metrics))

    # ------------------------------------------------------------ serialization
    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "schema_version": self.schema_version,
            "experiment_id": self.experiment_id,
            "config": self.config,
            "metrics": self.metrics,
            "wall_clock_seconds": float(self.wall_clock_seconds),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        payload = json.loads(text)
        missing = {"schema_version", "experiment_id", "config", "metrics",
                   "wall_clock_seconds"} - set(payload)
        if missing:
            raise ValueError(f"artifact is missing required keys: {sorted(missing)}")
        if payload["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported artifact schema_version "
                             f"{payload['schema_version']!r} (expected {SCHEMA_VERSION})")
        return cls(experiment_id=payload["experiment_id"], config=payload["config"],
                   metrics=payload["metrics"],
                   wall_clock_seconds=payload["wall_clock_seconds"],
                   schema_version=payload["schema_version"])

    def write(self, path) -> Path:
        """Atomically write the JSON artifact to ``path``.

        The payload goes to a same-directory ``*.tmp`` file first and is
        moved into place with ``os.replace``, so a reader (or a resumed
        sweep) never observes a torn half-written artifact: the target path
        either holds the previous content or the complete new document.  The
        tmp name embeds the writer's pid so concurrent writers of the same
        target cannot clobber each other's staging file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
        tmp.write_text(self.to_json() + "\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path) -> "ExperimentResult":
        """Load an artifact, raising :class:`ResultCorruptedError` on torn files."""
        path = Path(path)
        text = path.read_text()
        try:
            return cls.from_json(text)
        except json.JSONDecodeError as exc:
            raise ResultCorruptedError(path, str(exc)) from exc
