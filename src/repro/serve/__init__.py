"""``repro.serve``: posterior-predictive serving for the paper's BNNs.

The subsystem turns a trained :class:`~repro.core.bnn.GuidedBNN` into a
production-shaped predict service:

- :mod:`repro.serve.snapshot` — versioned model artifacts (config echo +
  pre-drawn posterior weight stacks + deterministic network state) so a
  server loads weights once and serves RNG-free thereafter;
- :mod:`repro.serve.engine` — the stacked-forward predictor deriving
  per-request mean/std/calibrated-interval uncertainty from the
  likelihood's predictive distribution;
- :mod:`repro.serve.batcher` — the work-conserving asyncio broker: a
  request reaching an idle forward is dispatched on the next loop
  iteration, and requests arriving while a forward runs form the next
  batch (whole requests, at most ``max_batch`` rows) as soon as it
  returns — one stacked ``vectorized_forward`` per batch, no timer,
  bit-identical to serial per-request prediction;
- :mod:`repro.serve.cache` — a byte-bounded LRU response cache keyed on
  input bytes + snapshot id;
- :mod:`repro.serve.server` / :mod:`repro.serve.client` — a stdlib-only
  HTTP transport (``/predict``, ``/healthz``, ``/stats``) plus in-process
  and socket clients.

CLI: ``repro snapshot <id> --out DIR`` and
``repro serve <id> --snapshot DIR --port N``.
"""

from .batcher import MicroBatcher
from .cache import ByteLRUCache, response_cache_key
from .engine import DEFAULT_COVERAGE, PredictResponse, PredictionEngine
from .snapshot import (SNAPSHOT_FORMAT_VERSION, ServeTarget, Snapshot,
                       SnapshotError, create_snapshot, load_snapshot,
                       snapshot_from_bnn)

__all__ = [
    "MicroBatcher",
    "ByteLRUCache",
    "response_cache_key",
    "DEFAULT_COVERAGE",
    "PredictResponse",
    "PredictionEngine",
    "SNAPSHOT_FORMAT_VERSION",
    "ServeTarget",
    "Snapshot",
    "SnapshotError",
    "create_snapshot",
    "load_snapshot",
    "snapshot_from_bnn",
]
