"""Perf gate for dispatching kernels through the ``repro.nn.backends`` module.

Every kernel call in ``repro.nn`` looks its kernel up through
``repro.nn.backends.get_backend()``.  That lookup must be noise, not a tax.
The gate times a matmul+elementwise chain through the Tensor layer against a
raw-numpy transcription of the exact same op sequence and requires the
dispatched path to stay within 10% (floor 0.9x on the median of 21
interleaved per-round raw / dispatched ratios, see
``_harness.interleaved_rounds``; ``REPRO_PERF_RELAX=1`` relaxes it on noisy
machines).  The timing row goes to ``artifacts/BENCH_backend.json``.
"""

import numpy as np

from repro import nn

from _harness import interleaved_rounds, record, record_bench_entry, run_once

N, D_IN, D_HID, D_OUT = 512, 1024, 1024, 512
ROUNDS = 21


def _make_inputs(rng):
    x = rng.normal(size=(N, D_IN))
    w1 = rng.normal(size=(D_IN, D_HID)) / np.sqrt(D_IN)
    w2 = rng.normal(size=(D_HID, D_OUT)) / np.sqrt(D_HID)
    return x, w1, w2


def _dispatched(x, w1, w2) -> np.ndarray:
    """The workload through the Tensor layer (kernels via get_backend())."""
    h = (nn.tensor(x) @ nn.tensor(w1)).relu()
    out = ((h @ nn.tensor(w2)) * 0.5).tanh() + 1.0
    return out.sum(axis=1).numpy()


def _raw_numpy(x, w1, w2) -> np.ndarray:
    """The identical op sequence spelled out in raw numpy."""
    h = np.maximum(x @ w1, 0.0)
    out = np.tanh((h @ w2) * 0.5) + 1.0
    return out.sum(axis=1)


def test_perf_backend_dispatch_overhead(benchmark, speedup_gate):
    rng = np.random.default_rng(0)
    x, w1, w2 = _make_inputs(rng)

    got = run_once(benchmark, _dispatched, x, w1, w2)
    # the dispatched path is bit-exact before it is fast
    np.testing.assert_array_equal(got, _raw_numpy(x, w1, w2))

    rounds = interleaved_rounds(lambda: _dispatched(x, w1, w2),
                                lambda: _raw_numpy(x, w1, w2), ROUNDS)
    ratio = float(np.median([raw / dispatched for dispatched, raw in rounds]))
    t_dispatched = float(np.median([dispatched for dispatched, _ in rounds]))
    t_raw = float(np.median([raw for _, raw in rounds]))

    record(benchmark, backend="numpy", t_dispatched_ms=t_dispatched * 1e3,
           t_raw_ms=t_raw * 1e3, raw_over_dispatched=ratio)
    record_bench_entry("backend", "numpy", {
        "workload": f"({N}x{D_IN})@({D_IN}x{D_HID}) relu matmul tanh chain",
        "t_dispatched_ms": round(t_dispatched * 1e3, 3),
        "t_raw_numpy_ms": round(t_raw * 1e3, 3),
        "raw_over_dispatched": round(ratio, 3),
        "gate": "dispatched within 10% of raw numpy (median per-round >= 0.9x)",
    })
    speedup_gate(ratio, 0.9, "backend dispatch should be noise vs raw numpy")

