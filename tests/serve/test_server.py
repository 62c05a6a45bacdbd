"""HTTP surface tests (in-process sockets) and the `repro serve` CLI smoke."""

import asyncio
import json
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.api.cli import main
from repro.serve import server as server_module
from repro.serve.cli import run_serve
from repro.serve.client import HTTPClient
from repro.serve.server import ServeApp

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_serve(snapshot_dir, **popen_kwargs):
    """Start `repro serve` on an ephemeral port; (process, bound port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.api.cli", "serve",
         "fig1-regression", "--snapshot", str(snapshot_dir), "--port", "0"],
        stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        **popen_kwargs)
    line = proc.stdout.readline()
    match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
    if not match:
        proc.kill()
        proc.communicate()
        pytest.fail(f"unexpected startup line: {line!r}")
    return proc, int(match.group(1))


def _interrupt(proc):
    """SIGINT the server and collect (stdout, stderr)."""
    proc.send_signal(signal.SIGINT)
    try:
        return proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail("serve process did not shut down on SIGINT")


async def _http_roundtrip(app, raw: bytes) -> tuple:
    """One raw request against an in-process asyncio server; (status, body)."""
    server = await asyncio.start_server(app.handle_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        # signal end-of-requests so the keep-alive handler closes after this
        writer.write_eof()
        data = await reader.read()
        writer.close()
    finally:
        server.close()
        await server.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body.decode())


async def _read_response(reader) -> tuple:
    """Parse one framed response off a persistent connection.

    Returns ``(status, headers, body)`` with lower-cased header names.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, json.loads(body.decode())


def _post_predict(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (f"POST /predict HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
            "\r\n").encode() + body


class TestRoutes:
    def test_healthz_reports_snapshot(self, fig1_engine):
        app = ServeApp(fig1_engine)
        status, body = asyncio.run(
            _http_roundtrip(app, b"GET /healthz HTTP/1.1\r\n\r\n"))
        assert status == 200
        assert body["status"] == "ok"
        assert body["snapshot_id"] == fig1_engine.snapshot_id
        assert body["experiment_id"] == "fig1-regression"

    def test_predict_carries_full_uncertainty_schema(self, fig1_engine,
                                                     request_rows):
        app = ServeApp(fig1_engine)
        inputs = request_rows[:3].tolist()
        status, body = asyncio.run(_http_roundtrip(
            app, _post_predict({"inputs": inputs, "coverage": 0.9})))
        assert status == 200
        assert body["snapshot_id"] == fig1_engine.snapshot_id
        assert len(body["predictions"]) == 3
        reference = fig1_engine.predict(request_rows[:3], coverage=0.9)
        for i, record in enumerate(body["predictions"]):
            assert record["mean"] == reference.mean[i].tolist()
            assert record["std"] == reference.std[i].tolist()
            assert record["interval"]["coverage"] == 0.9
            assert record["interval"]["lo"] == reference.lo[i].tolist()
            assert record["interval"]["hi"] == reference.hi[i].tolist()

    def test_stats_counts_requests_and_latency(self, fig1_engine, request_rows):
        app = ServeApp(fig1_engine)

        async def go():
            await _http_roundtrip(app, _post_predict(
                {"inputs": request_rows[:2].tolist()}))
            return await _http_roundtrip(app, b"GET /stats HTTP/1.1\r\n\r\n")

        status, body = asyncio.run(go())
        assert status == 200
        assert body["batcher"]["requests"] == 1
        assert body["batcher"]["rows"] == 2
        assert body["latency"]["count"] == 1
        assert body["latency"]["p99_ms"] >= body["latency"]["p50_ms"]
        assert body["cache"]["misses"] == 1

    def test_latency_window_is_bounded(self, fig1_engine, monkeypatch):
        monkeypatch.setattr(server_module, "_LATENCY_WINDOW", 4)
        app = ServeApp(fig1_engine, cache_bytes=0)

        async def go():
            for i in range(6):
                await app.predict({"inputs": [[0.1 * i]]})
            return await app.stats()

        latency = asyncio.run(go())["latency"]
        assert latency["count"] == 6  # lifetime total
        assert len(app._latencies_ms) == 4

    def test_error_statuses(self, fig1_engine):
        app = ServeApp(fig1_engine)

        async def go():
            results = []
            results.append(await _http_roundtrip(
                app, b"GET /nope HTTP/1.1\r\n\r\n"))
            results.append(await _http_roundtrip(
                app, b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson"))
            results.append(await _http_roundtrip(
                app, _post_predict({"wrong": []})))
            results.append(await _http_roundtrip(
                app, _post_predict({"inputs": [[0.0]], "coverage": 2.0})))
            return results

        (s404, b404), (s400a, _), (s400b, b400b), (s400c, b400c) = asyncio.run(go())
        assert s404 == 404
        assert s400a == 400
        assert s400b == 400 and "inputs" in b400b["error"]
        assert s400c == 400 and "coverage" in b400c["error"]
        assert "no route" in b404["error"]


class TestKeepAlive:
    def test_connection_reused_until_client_close(self, fig1_engine):
        """Several requests ride one connection; Connection: close ends it."""
        app = ServeApp(fig1_engine)

        async def go():
            server = await asyncio.start_server(app.handle_connection,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                responses = []
                for _ in range(2):
                    writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                    await writer.drain()
                    responses.append(await _read_response(reader))
                writer.write(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
                await writer.drain()
                responses.append(await _read_response(reader))
                trailing = await reader.read()  # server must close the socket
                writer.close()
                return responses, trailing
            finally:
                server.close()
                await server.wait_closed()

        responses, trailing = asyncio.run(go())
        assert [status for status, _, _ in responses] == [200, 200, 200]
        assert responses[0][1]["connection"] == "keep-alive"
        assert responses[1][1]["connection"] == "keep-alive"
        assert responses[2][1]["connection"] == "close"
        assert trailing == b""
        stats = responses[2][2]
        assert stats["http"] == {"connections": 1, "requests": 3}

    def test_error_response_closes_the_connection(self, fig1_engine):
        """4xx framing may be broken mid-stream: the server must not reuse it."""
        app = ServeApp(fig1_engine)

        async def go():
            server = await asyncio.start_server(app.handle_connection,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
                await writer.drain()
                response = await _read_response(reader)
                trailing = await reader.read()
                writer.close()
                return response, trailing
            finally:
                server.close()
                await server.wait_closed()

        (status, headers, _), trailing = asyncio.run(go())
        assert status == 404
        assert headers["connection"] == "close"
        assert trailing == b""


class TestCLI:
    def test_snapshot_verb_writes_artifact(self, tmp_path, capsys, tiny_overrides):
        out = tmp_path / "snap"
        argv = ["snapshot", "fig1-regression", "--out", str(out), "--fast",
                "--untrained", "--num-samples", "4"]
        argv += [flag for key, value in tiny_overrides.items()
                 for flag in ("--set", f"{key}={value}")]
        assert main(argv) == 0
        assert (out / "manifest.json").exists()
        assert "snapshot" in capsys.readouterr().out

    def test_serve_rejects_experiment_id_mismatch(self, fig1_snapshot_dir,
                                                  capsys):
        assert run_serve("table2-gnn", str(fig1_snapshot_dir)) == 2

    def test_serve_rejects_missing_snapshot(self, tmp_path):
        assert run_serve(None, str(tmp_path / "missing")) == 1

    def test_serve_smoke_spawn_predict_shutdown(self, fig1_snapshot_dir,
                                                fig1_engine):
        """Spawn `repro serve`, hit /healthz and /predict, SIGINT cleanly."""
        proc, port = _spawn_serve(fig1_snapshot_dir, stderr=subprocess.STDOUT)
        try:
            client = HTTPClient(port=port, timeout=30.0)

            health = client.healthz()
            assert health["status"] == "ok"
            assert health["snapshot_id"] == fig1_engine.snapshot_id

            reply = client.predict(np.array([[0.25]]), coverage=0.9)
            reference = fig1_engine.predict(np.array([[0.25]]), coverage=0.9)
            record = reply["predictions"][0]
            assert record["mean"] == reference.mean[0].tolist()
            assert record["std"] == reference.std[0].tolist()

            stats = client.stats()
            assert stats["batcher"]["requests"] == 1
            # healthz + predict + stats all rode one kept-alive connection
            assert stats["http"] == {"connections": 1, "requests": 3}
            client.close()
        finally:
            output, _ = _interrupt(proc)
        assert proc.returncode == 0, output
        assert "shut down cleanly" in output

    def test_sigint_with_idle_keep_alive_connection_is_clean(
            self, fig1_snapshot_dir):
        """An open idle connection at SIGINT closes quietly, no traceback."""
        proc, port = _spawn_serve(fig1_snapshot_dir, stderr=subprocess.PIPE)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                reply = b""
                while b"\r\n\r\n" not in reply:
                    reply += sock.recv(4096)
                assert reply.startswith(b"HTTP/1.1 200")
                assert b"Connection: keep-alive" in reply
                output, errors = _interrupt(proc)  # the socket is still open
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, errors
        assert "shut down cleanly" in output
        assert "CancelledError" not in errors
        assert "Traceback" not in errors
