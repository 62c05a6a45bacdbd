"""Minimal HTTP transport over asyncio streams (stdlib only, no new deps).

Endpoints:

``GET /healthz``
    ``{"status": "ok", "snapshot_id": ..., "experiment_id": ...}``
``POST /predict``
    Body ``{"inputs": [[...], ...], "coverage": 0.9}`` → per-row
    ``{"mean", "std", "interval": {"coverage", "lo", "hi"}}`` records.
``GET /stats``
    Batcher/cache counters plus request-latency percentiles over the most
    recent requests (``latency.count`` is the lifetime total).

The handler parses just enough HTTP/1.1 to serve JSON with persistent
(keep-alive) connections — one handler task serves a whole request pipeline,
honoring ``Connection: close`` from the client and closing itself after any
error response (a 4xx/5xx may mean broken request framing, and re-syncing a
byte stream is not worth the code).  Deliberately tiny, because the
interesting machinery (coalescing, caching, the stacked forward) lives in
:mod:`repro.serve.batcher`.  Handlers are async and R007-clean: no blocking
file I/O or sleeps on the event loop; the forward runs in the batcher's
executor.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from collections import deque
from typing import Any, Deque, Dict

import numpy as np

from .batcher import MicroBatcher
from .cache import ByteLRUCache
from .engine import DEFAULT_COVERAGE, PredictionEngine

__all__ = ["ServeApp", "run_server"]

_MAX_BODY_BYTES = 16 << 20
#: the /stats latency percentiles cover this many most recent requests
_LATENCY_WINDOW = 10_000


def _latency_percentiles(window_ms: Deque[float], count: int) -> Dict[str, Any]:
    """Percentiles over the recent window; ``count`` is the lifetime total."""
    if not window_ms:
        return {"count": count}
    arr = np.asarray(window_ms, dtype=np.float64)
    return {"count": count,
            "p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)),
            "p99_ms": float(np.percentile(arr, 99)),
            "max_ms": float(arr.max())}


class _HTTPError(Exception):
    def __init__(self, status: int, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.reason = reason
        self.detail = detail


class ServeApp:
    """Routes + request accounting around one engine and its batcher."""

    def __init__(self, engine: PredictionEngine, *, max_batch: int = 32,
                 cache_bytes: int = 8 << 20) -> None:
        cache = ByteLRUCache(cache_bytes) if cache_bytes > 0 else None
        self.engine = engine
        self.batcher = MicroBatcher(engine, max_batch=max_batch, cache=cache)
        self._latencies_ms: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._latency_count = 0
        self._connections_opened = 0
        self._http_requests = 0

    # ----------------------------------------------------------------- routes
    async def healthz(self) -> Dict[str, Any]:
        return {"status": "ok",
                "snapshot_id": self.engine.snapshot_id,
                "experiment_id": self.engine.snapshot.experiment_id,
                "num_samples": self.engine.num_samples}

    async def stats(self) -> Dict[str, Any]:
        payload = self.batcher.stats()
        payload["latency"] = _latency_percentiles(self._latencies_ms,
                                                  self._latency_count)
        payload["snapshot_id"] = self.engine.snapshot_id
        # requests > connections is keep-alive reuse working
        payload["http"] = {"connections": self._connections_opened,
                           "requests": self._http_requests}
        return payload

    async def predict(self, body: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(body, dict) or "inputs" not in body:
            raise _HTTPError(400, "Bad Request",
                             'body must be a JSON object with an "inputs" key')
        try:
            inputs = np.asarray(body["inputs"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _HTTPError(400, "Bad Request",
                             f"inputs is not a numeric array: {exc}")
        coverage = body.get("coverage", DEFAULT_COVERAGE)
        if not isinstance(coverage, (int, float)) or not 0.0 < coverage < 1.0:
            raise _HTTPError(400, "Bad Request",
                             f"coverage must be in (0, 1), got {coverage!r}")
        start = time.perf_counter()
        try:
            response = await self.batcher.submit(inputs, float(coverage))
        except ValueError as exc:
            raise _HTTPError(400, "Bad Request", str(exc))
        self._latencies_ms.append((time.perf_counter() - start) * 1000.0)
        self._latency_count += 1
        return {"snapshot_id": self.engine.snapshot_id,
                "coverage": response.coverage,
                "predictions": response.to_payload()}

    # ------------------------------------------------------------- connection
    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve requests off one connection until close/EOF (keep-alive)."""
        self._connections_opened += 1
        try:
            while True:
                keep_alive = True
                try:
                    dispatched = await self._dispatch(reader)
                    if dispatched is None:  # clean EOF between requests
                        return
                    status, reason, payload, client_close = dispatched
                    keep_alive = not client_close
                except _HTTPError as exc:
                    status, reason = exc.status, exc.reason
                    payload = {"error": exc.detail}
                    keep_alive = False  # request framing may be broken
                except Exception as exc:  # keep the server alive on handler bugs
                    status, reason, payload = 500, "Internal Server Error", {
                        "error": f"{type(exc).__name__}: {exc}"}
                    keep_alive = False
                body = json.dumps(payload).encode()
                head = (f"HTTP/1.1 {status} {reason}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        f"Connection: {'keep-alive' if keep_alive else 'close'}"
                        "\r\n\r\n").encode()
                try:
                    writer.write(head + body)
                    await writer.drain()
                except (ConnectionError, BrokenPipeError):
                    return
                if not keep_alive:
                    return
        finally:
            writer.close()

    async def _dispatch(self, reader: asyncio.StreamReader):
        """Parse + route one request; ``None`` on clean EOF before one starts.

        Returns ``(status, reason, payload, client_close)`` where
        ``client_close`` reflects the request's ``Connection: close`` header.
        """
        try:
            raw_line = await reader.readline()
        except asyncio.CancelledError:
            # shutdown cancels handlers idling between requests; ending as a
            # clean close keeps asyncio from logging the cancelled task as a
            # connection-callback error (Python 3.11 streams do)
            return None
        if not raw_line:  # peer closed an idle keep-alive connection
            return None
        request_line = raw_line.decode("latin-1").strip()
        if not request_line:
            raise _HTTPError(400, "Bad Request", "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HTTPError(400, "Bad Request",
                             f"malformed request line: {request_line!r}")
        method, path, _ = parts
        # counted at parse time so a /stats response includes itself
        self._http_requests += 1
        content_length = 0
        client_close = False
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HTTPError(400, "Bad Request",
                                     f"bad Content-Length: {value.strip()!r}")
            elif name == "connection":
                client_close = value.strip().lower() == "close"
        if content_length > _MAX_BODY_BYTES:
            raise _HTTPError(413, "Payload Too Large",
                             f"body of {content_length} bytes exceeds "
                             f"{_MAX_BODY_BYTES}")
        if (method, path) == ("GET", "/healthz"):
            return 200, "OK", await self.healthz(), client_close
        if (method, path) == ("GET", "/stats"):
            return 200, "OK", await self.stats(), client_close
        if (method, path) == ("POST", "/predict"):
            raw = await reader.readexactly(content_length) if content_length else b""
            try:
                body = json.loads(raw.decode() or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise _HTTPError(400, "Bad Request", f"invalid JSON body: {exc}")
            return 200, "OK", await self.predict(body), client_close
        raise _HTTPError(404, "Not Found", f"no route for {method} {path}")


async def _serve_forever(app: ServeApp, host: str, port: int) -> None:
    server = await asyncio.start_server(app.handle_connection, host, port)
    bound = server.sockets[0].getsockname()
    # machine-parseable startup line: tests/clients read the bound port here
    print(f"repro-serve listening on http://{bound[0]}:{bound[1]} "
          f"snapshot={app.engine.snapshot_id}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # platforms without signal support
            pass
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await app.batcher.close()
    print("repro-serve shut down cleanly", flush=True)


def run_server(engine: PredictionEngine, *, host: str = "127.0.0.1",
               port: int = 0, max_batch: int = 32,
               cache_bytes: int = 8 << 20) -> None:
    """Blocking entry point: serve until SIGINT/SIGTERM, then shut down."""
    app = ServeApp(engine, max_batch=max_batch, cache_bytes=cache_bytes)
    try:
        asyncio.run(_serve_forever(app, host, port))
    except KeyboardInterrupt:  # add_signal_handler unavailable fallback
        pass
