"""Clients for the serving layer: in-process (tests/benchmarks) and socket.

``LocalClient`` drives a :class:`~repro.serve.batcher.MicroBatcher` directly
inside the caller's event loop — no transport, which is what the latency
benchmark wants (it measures coalescing, not socket overhead).

``HTTPClient`` is a tiny synchronous stdlib ``http.client`` wrapper against
a running ``repro serve`` process, used by the CLI smoke test.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional

import numpy as np

from .batcher import MicroBatcher
from .cache import ByteLRUCache
from .engine import DEFAULT_COVERAGE, PredictResponse, PredictionEngine

__all__ = ["LocalClient", "HTTPClient"]


class LocalClient:
    """In-process async client: submit() through a private micro-batcher."""

    def __init__(self, engine: PredictionEngine, *, max_batch: int = 32,
                 cache: Optional[ByteLRUCache] = None) -> None:
        self.engine = engine
        self.batcher = MicroBatcher(engine, max_batch=max_batch, cache=cache)

    async def predict(self, inputs, coverage: float = DEFAULT_COVERAGE
                      ) -> PredictResponse:
        return await self.batcher.submit(inputs, coverage)

    async def close(self) -> None:
        await self.batcher.close()

    def stats(self) -> Dict[str, Any]:
        return self.batcher.stats()


class HTTPClient:
    """Blocking JSON-over-HTTP client for a running serve process.

    Keeps one persistent (keep-alive) connection and pipelines every request
    over it; a stale socket (server restarted, idle timeout) is retried once
    on a fresh connection — safe here because every route is idempotent.  A
    server ``Connection: close`` response is honored by reconnecting on the
    next request.  Usable as a context manager; :meth:`close` releases the
    socket.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8100,
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HTTPClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = json.loads(response.read().decode() or "{}")
            except (ConnectionError, http.client.RemoteDisconnected,
                    http.client.CannotSendRequest, http.client.BadStatusLine):
                # the kept-alive socket went stale under us; one fresh retry
                self.close()
                if attempt:
                    raise
                continue
            if response.will_close:  # server said Connection: close
                self.close()
            if response.status != 200:
                raise RuntimeError(
                    f"{method} {path} -> {response.status}: "
                    f"{data.get('error', data)}")
            return data
        raise AssertionError("unreachable")  # pragma: no cover

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def predict(self, inputs, coverage: float = DEFAULT_COVERAGE
                ) -> Dict[str, Any]:
        inputs = np.asarray(inputs, dtype=np.float64)
        return self._request("POST", "/predict",
                             {"inputs": inputs.tolist(),
                              "coverage": float(coverage)})
