"""The asyncio request broker: work-conserving micro-batching.

Concurrent ``predict`` requests are coalesced into single stacked
``vectorized_forward`` calls (stacked inputs × stacked posterior samples).
There is no timer: a request that finds no forward running is dispatched on
the next event-loop iteration, together with every submit that became ready
in the same iteration, and requests arriving while a forward runs form the
next batch, which starts the moment that forward returns.  One forward is
in flight at a time, each batch holds whole requests of one row shape up to
``max_batch`` rows (at least one), and a finished batch's per-request stats
overlap the next forward.  Each request gets its own slice of the raw
``(S, N, ...)`` output, so coalesced responses are bit-identical to serial
per-request predictions.  The forward runs in a thread-pool executor (BLAS
releases the GIL), so the event loop keeps accepting requests meanwhile.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from .cache import ByteLRUCache, response_cache_key, response_nbytes
from .engine import DEFAULT_COVERAGE, PredictResponse, PredictionEngine

__all__ = ["MicroBatcher"]


@dataclass
class _Unit:
    """One pending request: its rows, coverage, and the future to resolve."""

    inputs: np.ndarray
    coverage: float
    future: "asyncio.Future[PredictResponse]"
    cache_key: Optional[str] = None


@dataclass
class _Counters:
    requests: int = 0
    rows: int = 0
    batches: int = 0
    batched_rows: int = 0
    max_batch_rows: int = 0
    size_flushes: int = 0  # batches cut at max_batch, requests left queued

    def as_dict(self) -> Dict[str, Any]:
        mean = self.batched_rows / self.batches if self.batches else 0.0
        return {"requests": self.requests, "rows": self.rows,
                "batches": self.batches, "batched_rows": self.batched_rows,
                "mean_batch_rows": mean, "max_batch_rows": self.max_batch_rows,
                "size_flushes": self.size_flushes,
                # stable /stats key: the work-conserving policy has no timer
                "timer_flushes": 0}


class MicroBatcher:
    """Coalesce concurrent predict requests into single stacked forwards.

    Must be used from one asyncio event loop (the broker keeps no locks —
    all queue mutation happens on the loop thread).  ``cache`` is optional;
    when present, responses are keyed on input bytes + coverage + snapshot
    id and served without touching the model.
    """

    def __init__(self, engine: PredictionEngine, *, max_batch: int = 32,
                 cache: Optional[ByteLRUCache] = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.cache = cache
        self.counters = _Counters()
        self._pending: Deque[_Unit] = deque()
        self._worker: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # ----------------------------------------------------------------- submit
    async def submit(self, inputs, coverage: float = DEFAULT_COVERAGE
                     ) -> PredictResponse:
        """Enqueue one request (a batch of input rows) and await its response."""
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        inputs = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
        if inputs.ndim < 2 or inputs.shape[0] < 1:
            raise ValueError(
                f"inputs must be a non-empty batch (rows on axis 0), got "
                f"shape {inputs.shape}")
        self.counters.requests += 1
        self.counters.rows += inputs.shape[0]
        cache_key = None
        if self.cache is not None:
            cache_key = response_cache_key(inputs, coverage,
                                           self.engine.snapshot_id)
            cached = self.cache.get(cache_key)
            if cached is not None:
                return cached
        loop = asyncio.get_running_loop()
        unit = _Unit(inputs=inputs, coverage=float(coverage),
                     future=loop.create_future(), cache_key=cache_key)
        self._pending.append(unit)
        if self._worker is None:  # idle: dispatch on the next loop iteration
            self._worker = loop.create_task(self._drain(loop))
        return await unit.future

    async def close(self) -> None:
        """Drain the in-flight batch and the backlog; refuse new submissions."""
        self._closed = True
        if self._worker is not None:
            await self._worker

    # --------------------------------------------------------------- dispatch
    async def _drain(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run forwards back to back, one in flight, until the queue empties."""
        owed = None  # (units, raw) of the finished batch whose stats are due
        try:
            while self._pending:
                units = self._take_batch()
                forward = loop.run_in_executor(None, self._forward, units)
                if owed:  # overlaps the forward just started
                    self._resolve(*owed)
                owed = None
                try:
                    owed = (units, await forward)
                except Exception as exc:  # fails this batch only
                    for unit in units:
                        if not unit.future.done():
                            unit.future.set_exception(exc)
            if owed:
                self._resolve(*owed)
        finally:
            self._worker = None

    def _take_batch(self) -> List[_Unit]:
        """Whole requests off the queue head: at least one, up to max_batch
        rows, and of one row shape (a malformed one fails only itself)."""
        units = [self._pending.popleft()]
        rows, row_shape = units[0].inputs.shape[0], units[0].inputs.shape[1:]
        while self._pending and self._pending[0].inputs.shape[1:] == row_shape:
            if rows + self._pending[0].inputs.shape[0] > self.max_batch:
                self.counters.size_flushes += 1
                break
            units.append(self._pending.popleft())
            rows += units[-1].inputs.shape[0]
        self.counters.batches += 1
        self.counters.batched_rows += rows
        self.counters.max_batch_rows = max(self.counters.max_batch_rows, rows)
        return units

    def _forward(self, units: List[_Unit]) -> np.ndarray:
        """One stacked forward for every unit (runs in the executor)."""
        return self.engine.predict_stacked(
            np.concatenate([unit.inputs for unit in units], axis=0))

    def _resolve(self, units: List[_Unit], raw: np.ndarray) -> None:
        """Per-unit slicing and stats; a failing unit fails only itself."""
        offset = 0
        for unit in units:
            rows = unit.inputs.shape[0]
            own, offset = raw[:, offset:offset + rows], offset + rows
            if unit.future.done():  # the caller gave up on it
                continue
            try:
                response = self.engine.stats(own, unit.coverage)
            except Exception as exc:
                unit.future.set_exception(exc)
                continue
            if self.cache is not None and unit.cache_key is not None:
                self.cache.put(unit.cache_key, response,
                               response_nbytes(response))
            unit.future.set_result(response)

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"batcher": self.counters.as_dict(),
                                   "max_batch": self.max_batch}
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        return payload
