"""Latency/throughput gate for the micro-batching serving layer.

Workload: 128 single-row posterior-predictive requests that all arrive at
once against a tiny fig1 snapshot (untrained — serving consumes no RNG, so
the arithmetic per forward is identical either way).

* **serial** baseline: the requests are answered one ``engine.predict`` call
  at a time, in arrival order.  Each request's latency is its completion
  time measured from the common arrival instant — exactly what a
  single-worker, no-batching server would deliver.
* **coalesced**: the same 128 requests submitted concurrently through
  ``MicroBatcher`` (``max_batch=32``), which folds them into 4 stacked
  ``vectorized_forward`` calls.

The engine pads every batch to a fixed ``block_rows`` shape, so a serial
1-row forward costs the same wall clock as one 32-row batch — the speedup
measured here is pure coalescing, not a shape artifact, and the per-request
payloads are asserted bit-identical between the two paths.

Serial and coalesced runs are interleaved round by round (the order
alternates, garbage collection is off inside a round), and each gate takes
the median of the per-round ratios, so a slow stretch of the machine hits
both sides of a ratio instead of one side of a best-of.  Gates: median
throughput ratio >= 3x, at median p99 ratio >= 1 (equal-or-better p99).
Per-request stats, which both paths pay and batching cannot fold, cap the
ratio; on a 2-vCPU VM the median measures about 4.6x alone.
``REPRO_PERF_RELAX=1`` relaxes both gates to skips (the bit-identity
assertions still run).  Results are written to
``artifacts/BENCH_serve.json``.
"""

import asyncio
import gc
import time
from typing import NamedTuple

import numpy as np

from repro.serve import MicroBatcher, create_snapshot, PredictionEngine

from _harness import record_bench_entry

NUM_REQUESTS = 128
MAX_BATCH = 32
ROUNDS = 41
REQUIRED_THROUGHPUT_SPEEDUP = 3.0
REQUIRED_P99_RATIO = 1.0  # serial p99 / coalesced p99 must be >= 1 (no worse)

TINY_FIG1 = {"n_per_cluster": 6, "num_epochs": 1, "hidden_units": 8,
             "num_predictions": 2}


def _build_engine():
    snapshot = create_snapshot("fig1-regression", fast=True,
                               overrides=TINY_FIG1, num_samples=16,
                               trained=False)
    return PredictionEngine.from_snapshot(snapshot, block_rows=MAX_BATCH)


def _request_trace():
    """A fixed, RNG-free trace of single-row regression inputs."""
    grid = np.linspace(-2.0, 2.0, NUM_REQUESTS).reshape(-1, 1)
    return [grid[i:i + 1] for i in range(NUM_REQUESTS)]


class _Run(NamedTuple):
    responses: list
    seconds: float  # wall clock to answer the whole trace
    p99_ms: float  # p99 latency from the common arrival instant
    batches: int  # forwards run


def _p99_ms(latencies):
    return float(np.percentile(np.asarray(latencies) * 1000.0, 99.0))


def _serial(engine, trace):
    """Answer the simultaneously-arrived trace one request at a time."""
    responses = []
    latencies = []
    start = time.perf_counter()
    for rows in trace:
        responses.append(engine.predict(rows))
        latencies.append(time.perf_counter() - start)
    return _Run(responses, time.perf_counter() - start, _p99_ms(latencies),
                len(trace))


def _coalesced(engine, trace):
    """Answer the same trace through the micro-batching broker.

    The run leaves through ``holder``, not as the main task's result.  On
    Python 3.11, ``asyncio.run`` checks its SIGINT handler with
    ``signal.getsignal``, which reprs the handler and with it the main task
    and the task's result: all 128 responses' arrays, about 45 ms per call
    outside the timed window.
    """
    holder = []

    async def go():
        batcher = MicroBatcher(engine, max_batch=MAX_BATCH)
        start = time.perf_counter()
        latencies = [0.0] * len(trace)

        async def one(i, rows):
            response = await batcher.submit(rows)
            latencies[i] = time.perf_counter() - start
            return response

        responses = await asyncio.gather(
            *[one(i, rows) for i, rows in enumerate(trace)])
        total = time.perf_counter() - start
        await batcher.close()
        holder.append(_Run(responses, total, _p99_ms(latencies),
                           batcher.counters.batches))

    asyncio.run(go())
    return holder[0]


def _assert_bit_identical(serial_responses, coalesced_responses):
    for serial_r, coalesced_r in zip(serial_responses, coalesced_responses):
        assert serial_r.mean.tobytes() == coalesced_r.mean.tobytes()
        assert serial_r.std.tobytes() == coalesced_r.std.tobytes()
        assert serial_r.lo.tobytes() == coalesced_r.lo.tobytes()
        assert serial_r.hi.tobytes() == coalesced_r.hi.tobytes()


def test_micro_batching_throughput_and_p99(speedup_gate):
    engine = _build_engine()
    trace = _request_trace()

    _serial(engine, trace)  # warm-up: first forward, event loop and
    _coalesced(engine, trace)  # executor thread set-up stay untimed
    rounds = []
    for i in range(ROUNDS):
        # a collection of the test process's heap (large late in a full
        # suite) would land in whichever ~10 ms window allocates at the time
        gc.collect()
        gc.disable()
        try:
            if i % 2:
                coalesced = _coalesced(engine, trace)
                serial = _serial(engine, trace)
            else:
                serial = _serial(engine, trace)
                coalesced = _coalesced(engine, trace)
        finally:
            gc.enable()
        # the burst folds into full batches, and not a single byte changes
        assert coalesced.batches == NUM_REQUESTS // MAX_BATCH
        _assert_bit_identical(serial.responses, coalesced.responses)
        rounds.append((serial, coalesced))

    def median(values):
        return float(np.median(values))

    round_speedups = [s.seconds / c.seconds for s, c in rounds]
    throughput_speedup = median(round_speedups)
    p99_ratio = median([s.p99_ms / c.p99_ms for s, c in rounds])
    serial_p99 = median([s.p99_ms for s, _ in rounds])
    coalesced_p99 = median([c.p99_ms for _, c in rounds])
    serial_total = median([s.seconds for s, _ in rounds])
    coalesced_total = median([c.seconds for _, c in rounds])

    record_bench_entry("serve", "simultaneous_single_row_burst", {
        "experiment_id": "fig1-regression",
        "num_requests": NUM_REQUESTS,
        "max_batch": MAX_BATCH,
        "rounds": ROUNDS,
        "round_speedups": round_speedups,
        "num_batches_coalesced": rounds[0][1].batches,
        "serial_seconds": serial_total,
        "coalesced_seconds": coalesced_total,
        "throughput_speedup": throughput_speedup,
        "required_throughput_speedup": REQUIRED_THROUGHPUT_SPEEDUP,
        "serial_p99_ms": serial_p99,
        "coalesced_p99_ms": coalesced_p99,
        "p99_ratio": p99_ratio,
        "required_p99_ratio": REQUIRED_P99_RATIO,
        "speedup_definition": (f"median over {ROUNDS} interleaved rounds of "
                               "the per-round ratio serial / coalesced wall "
                               "clock to answer 128 simultaneously-arrived "
                               "single-row requests, sequential predict() "
                               "vs MicroBatcher(max_batch=32); latencies "
                               "measured from the common arrival instant"),
    })
    speedup_gate(throughput_speedup, REQUIRED_THROUGHPUT_SPEEDUP,
                 detail=f"median serial {serial_total:.3f}s vs "
                        f"coalesced {coalesced_total:.3f}s")
    speedup_gate(p99_ratio, REQUIRED_P99_RATIO,
                 detail=f"median p99 serial {serial_p99:.1f}ms vs "
                        f"coalesced {coalesced_p99:.1f}ms")
