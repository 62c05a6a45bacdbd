"""Seeded open-loop HTTP load generator for ``repro serve``.

One asyncio process drives the server over a few keep-alive connections and
pipelines requests on them: a connection sends its next request without
waiting for the previous response.  Open-loop phases send Poisson arrivals
at a fixed rate, so the offered load does not drop when the server slows;
each request is timed from its *due* time, which charges a stall to every
request it delays, and the generator reports how late it sent.  The
closed-loop phase keeps a fixed number of requests in flight per connection
and times how long a fixed batch of requests takes, which measures capacity.

Every request body is made from the seed before any is sent: the same seed
gives a byte-identical plan (see :func:`plan_digest`).  Each phase draws from
its own derived seed, so inputs never repeat across phases and the server's
response cache is bypassed.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import List

#: a request slower than this counts as failed
TIMEOUT_S = 5.0
#: share of single-row requests; the rest carry ``MULTI_ROWS`` rows
SINGLE_ROW_SHARE = 0.7
MULTI_ROWS = 8
#: every SAMPLE_EVERY-th timed request is kept for the correctness check
SAMPLE_EVERY = 50


@dataclass(frozen=True)
class Phase:
    """One traffic phase: Poisson arrivals at ``rate`` for ``seconds``, or
    (``rate == 0``) ``bursts`` closed-loop batches of ``requests`` each."""

    name: str
    rate: float = 0.0
    seconds: float = 0.0
    requests: int = 0
    bursts: int = 0
    timed: bool = True


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase starts (0 in closed loop)
    inputs: tuple  # rows of one float each
    wire: bytes


@dataclass
class PhaseResult:
    name: str
    sent: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # from due time
    service_ms: List[float] = field(default_factory=list)  # from send time
    late_ms: List[float] = field(default_factory=list)
    burst_s: List[float] = field(default_factory=list)


def _request(rng: random.Random, due: float) -> Request:
    rows = 1 if rng.random() < SINGLE_ROW_SHARE else MULTI_ROWS
    inputs = tuple((rng.uniform(-2.0, 2.0),) for _ in range(rows))
    body = json.dumps({"inputs": inputs}).encode()
    head = ("POST /predict HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    return Request(due, inputs, head + body)


def phase_requests(seed: int, index: int, phase: Phase) -> List[Request]:
    """The requests of one phase, drawn from a seed derived from (seed, index)."""
    rng = random.Random(f"repro-serve-load/{seed}/{index}/{phase.name}")
    if phase.rate <= 0:
        return [_request(rng, 0.0) for _ in range(phase.requests * phase.bursts)]
    requests, due = [], 0.0
    while True:
        due += rng.expovariate(phase.rate)
        if due >= phase.seconds:
            return requests
        requests.append(_request(rng, due))


def make_plan(seed: int, phases: List[Phase]) -> List[List[Request]]:
    return [phase_requests(seed, index, phase) for index, phase in enumerate(phases)]


def plan_digest(plan: List[List[Request]]) -> str:
    digest = hashlib.sha256()
    for requests in plan:
        for request in requests:
            digest.update(repr(request.due).encode())
            digest.update(request.wire)
    return digest.hexdigest()


class _Connection:
    """One pipelined keep-alive connection; responses arrive in send order."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.inflight = collections.deque()
        self.idle = asyncio.Event()
        self.idle.set()
        self.task = asyncio.get_running_loop().create_task(self._read_responses())

    def send(self, wire: bytes, on_response) -> None:
        self.inflight.append(on_response)
        self.idle.clear()
        self.writer.write(wire)

    async def _read_responses(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                status_line = await self.reader.readline()
                if not status_line:
                    return
                length = 0
                while True:
                    line = await self.reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    key, _, value = line.partition(b":")
                    if key.strip().lower() == b"content-length":
                        length = int(value)
                body = await self.reader.readexactly(length)
            except (ConnectionError, asyncio.IncompleteReadError):
                return  # requests still in flight are counted as timed out
            on_response = self.inflight.popleft()
            on_response(int(status_line.split()[1]), body, loop.time())
            if not self.inflight:
                self.idle.set()

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.task


class _Generator:
    def __init__(self, connections):
        self.connections = connections
        self.loop = asyncio.get_running_loop()
        self.samples = []  # (inputs, status, body) of every SAMPLE_EVERY-th timed request
        self.timed_sent = 0
        self.timed_out = False

    def _dispatch(self, conn, request, result, due, timed, on_done=None):
        sent = self.loop.time()
        if timed:
            self.timed_sent += 1
        keep = timed and self.timed_sent % SAMPLE_EVERY == 0

        def on_response(status, body, now):
            elapsed = now - due
            if status != 200 or elapsed > TIMEOUT_S:
                result.failed += 1
            elif timed:
                result.latencies_ms.append(elapsed * 1000.0)
                result.service_ms.append((now - sent) * 1000.0)
            if keep:
                self.samples.append((request.inputs, status, body))
            if on_done is not None:
                on_done()

        result.sent += 1
        conn.send(request.wire, on_response)
        return sent

    async def _drain(self, result) -> None:
        try:
            await asyncio.wait_for(
                asyncio.gather(*(conn.idle.wait() for conn in self.connections)),
                TIMEOUT_S)
        except asyncio.TimeoutError:
            result.failed += sum(len(conn.inflight) for conn in self.connections)
            self.timed_out = True

    async def open_loop(self, phase: Phase, requests: List[Request]) -> PhaseResult:
        result = PhaseResult(phase.name)
        start = self.loop.time()
        for i, request in enumerate(requests):
            due = start + request.due
            delay = due - self.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = self.connections[i % len(self.connections)]
            sent = self._dispatch(conn, request, result, due, phase.timed)
            result.late_ms.append((sent - due) * 1000.0)
        await self._drain(result)
        return result

    async def closed_loop(self, phase: Phase, requests: List[Request],
                          depth: int) -> PhaseResult:
        result = PhaseResult(phase.name)
        for burst in range(phase.bursts):
            batch = requests[burst * phase.requests:(burst + 1) * phase.requests]
            slots = [asyncio.Semaphore(depth) for _ in self.connections]
            start = self.loop.time()
            for i, request in enumerate(batch):
                c = i % len(self.connections)
                await slots[c].acquire()
                self._dispatch(self.connections[c], request, result, self.loop.time(),
                               phase.timed, slots[c].release)
            await self._drain(result)
            result.burst_s.append(self.loop.time() - start)
            if self.timed_out:
                break
        return result


async def drive(host: str, port: int, phases: List[Phase], plan: List[List[Request]],
                connections: int, depth: int):
    """Run every phase in order; returns ``(phase results, kept samples)``.

    All connections are closed before this returns.  A timeout stops the
    remaining phases, since responses on a stalled pipeline can no longer be
    matched to their requests.
    """
    conns = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(_Connection(reader, writer))
    generator = _Generator(conns)
    results: List[PhaseResult] = []
    try:
        for phase, requests in zip(phases, plan):
            if phase.rate > 0:
                results.append(await generator.open_loop(phase, requests))
            else:
                results.append(await generator.closed_loop(phase, requests, depth))
            if generator.timed_out:
                break
    finally:
        for conn in conns:
            await conn.close()
    return results, generator.samples
