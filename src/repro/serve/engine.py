"""The RNG-free posterior-predictive engine behind every serving request.

A :class:`PredictionEngine` binds a loaded :class:`~repro.serve.snapshot.
Snapshot` to its rebuilt network skeleton: the posterior weight stacks are
substituted into one batched ``vectorized_forward`` per call (stacked inputs
× stacked samples), and per-request uncertainty — mean, predictive standard
deviation and a calibrated central interval — is derived from the
likelihood's predictive distribution.  No randomness is consumed anywhere on
this path, so the same inputs always produce byte-identical responses, and a
coalesced batch is byte-identical to per-request serial calls: every
statistic reduces over the sample axis row by row.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy import special as _sp_special

from ..core import likelihoods
from ..nn.tensor import Tensor
from .snapshot import Snapshot, SnapshotError

__all__ = ["DEFAULT_COVERAGE", "PredictResponse", "PredictionEngine"]

#: central-interval coverage served when a request does not ask for one
DEFAULT_COVERAGE = 0.9


@dataclass
class PredictResponse:
    """Per-request uncertainty summary (arrays are per input row)."""

    mean: np.ndarray
    std: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    coverage: float

    def to_payload(self) -> List[dict]:
        """One JSON-ready record per input row of the request."""
        return [{"mean": self.mean[i].tolist(), "std": self.std[i].tolist(),
                 "interval": {"coverage": self.coverage,
                              "lo": self.lo[i].tolist(),
                              "hi": self.hi[i].tolist()}}
                for i in range(self.mean.shape[0])]


def _z_score(coverage: float) -> float:
    """Standard-normal quantile for a central interval of ``coverage`` mass."""
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    return float(_sp_special.ndtri(0.5 + coverage / 2.0))


class PredictionEngine:
    """Snapshot-backed batch predictor: one stacked forward, per-row stats.

    The engine executes **fixed-shape** forwards: every input batch is
    zero-padded to ``block_rows`` rows (chunked when larger) before the
    stacked forward, and the pad rows are sliced away afterwards.  BLAS
    kernel selection — and with it ULP-level rounding — depends on the
    operand shapes, so without a constant row count the same input row
    yields different last-bit results in a 1-row versus a 32-row batch.
    With it, per-row outputs are independent of how many requests share the
    batch, which is what makes coalesced micro-batching bit-identical to
    serial per-request prediction.

    Forwards are serialized by an internal lock: ``vectorized_forward``
    substitutes the weight stacks into the one shared network instance for
    the duration of the pass, so two threads running forwards concurrently
    would read each other's substituted parameters.
    """

    def __init__(self, bnn, snapshot: Snapshot, block_rows: int = 32) -> None:
        from ..core.bnn import MCMC_BNN

        if isinstance(bnn, MCMC_BNN):
            raise SnapshotError(
                f"experiment {snapshot.experiment_id!r} builds an MCMC-backed "
                "model: the serving path needs a guide-based BNN whose "
                "posterior is servable as stacked weight samples — refit with "
                "VariationalBNN and re-snapshot")
        expected = set(bnn.param_dists)
        got = set(snapshot.sites)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise SnapshotError(
                f"snapshot sites do not match the rebuilt model of "
                f"{snapshot.experiment_id!r} (architecture drift?): "
                f"missing {missing or 'none'}, unexpected {extra or 'none'}")
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        self.bnn = bnn
        self.snapshot = snapshot
        self.block_rows = int(block_rows)
        self._forward_lock = threading.Lock()
        bnn.load_deterministic_state(snapshot.deterministic)
        bnn.net.train(False)  # serving is eval-mode: no dropout, frozen moments
        self._samples: Dict[str, Tensor] = {
            name: Tensor(np.asarray(array)) for name, array in snapshot.sites.items()}

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot,
                      block_rows: int = 32) -> "PredictionEngine":
        """Rebuild the experiment's network skeleton and bind the snapshot."""
        from .snapshot import _resolve_serve_target

        _, _, target = _resolve_serve_target(
            snapshot.experiment_id,
            config=None if snapshot.config is None else _rebuild_config(snapshot))
        return cls(target.build(), snapshot, block_rows=block_rows)

    @property
    def snapshot_id(self) -> str:
        return self.snapshot.snapshot_id

    @property
    def num_samples(self) -> int:
        return self.snapshot.num_samples

    # -------------------------------------------------------------- prediction
    def predict_stacked(self, inputs: np.ndarray) -> np.ndarray:
        """Raw per-sample predictions ``(S, N, ...)`` for an input batch.

        Runs fixed-shape forwards of exactly ``block_rows`` rows (zero-padded,
        chunked when larger) so each row's result is bit-independent of its
        batchmates — see the class docstring.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim < 2 or inputs.shape[0] < 1:
            raise ValueError(
                f"inputs must be a non-empty batch (rows on axis 0), got "
                f"shape {inputs.shape}")
        block = self.block_rows
        chunks = []
        for start in range(0, inputs.shape[0], block):
            chunk = inputs[start:start + block]
            rows = chunk.shape[0]
            if rows < block:
                pad = np.zeros((block - rows,) + chunk.shape[1:], dtype=chunk.dtype)
                chunk = np.concatenate([chunk, pad], axis=0)
            with self._forward_lock:
                raw = self.bnn.predict_with_samples(Tensor(chunk), self._samples,
                                                    aggregate=False)
            chunks.append(np.asarray(raw.data)[:, :rows])
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)

    def stats(self, raw: np.ndarray, coverage: float = DEFAULT_COVERAGE
              ) -> PredictResponse:
        """Mean / predictive std / calibrated central interval from ``raw``.

        ``raw`` is a ``(S, n, ...)`` slice of :meth:`predict_stacked` output.
        The mean and standard deviation come from the likelihood's predictive
        distribution where it defines them (total predictive std — epistemic
        + observation noise — for homoskedastic Gaussians, mean class
        probabilities for classifiers); the interval is the Gaussian central
        interval ``mean ± z(coverage) * std``, the calibrated-coverage
        summary the calibration metrics of the paper evaluate.
        """
        stacked = Tensor(np.asarray(raw))
        likelihood = self.bnn.likelihood
        if isinstance(likelihood, likelihoods.HomoskedasticGaussian):
            # the sample mean aggregate_predictions defines, taken in numpy:
            # the same bytes, without the Tensor layer's per-op bookkeeping
            # (about 20 us, 40% of a single-row request's stats)
            mean = np.asarray(stacked.data).mean(axis=0)
            std = np.asarray(likelihood.predictive_stddev(stacked))
        elif isinstance(likelihood, likelihoods._Discrete):
            probs = np.asarray(likelihood.probs(stacked).data)
            mean = probs.mean(axis=0)
            std = probs.std(axis=0)
        else:
            data = np.asarray(stacked.data)
            mean = data.mean(axis=0)
            std = data.std(axis=0)
        z = _z_score(coverage)
        return PredictResponse(mean=mean, std=std, lo=mean - z * std,
                               hi=mean + z * std, coverage=float(coverage))

    def predict(self, inputs: np.ndarray, coverage: float = DEFAULT_COVERAGE
                ) -> PredictResponse:
        """The serial reference path: one request, one stacked forward."""
        return self.stats(self.predict_stacked(inputs), coverage)


def _rebuild_config(snapshot: Snapshot):
    """The snapshot's config echo as a typed config instance."""
    from ..experiments.api.registry import get_experiment

    spec = get_experiment(snapshot.experiment_id)
    try:
        return spec.config_cls.from_dict(snapshot.config)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot config for {snapshot.experiment_id!r} no longer "
            f"matches {spec.config_cls.__name__}: {exc}") from exc
