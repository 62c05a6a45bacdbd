"""Perf gate for the lazy op-graph engine's elementwise fusion.

Workload: a depth-12 elementwise chain over 1M float64 elements — the shape
of the hot inference chains in ``repro.render`` (softplus links, activation
stacks, transmittance math).  Eager numpy allocates a fresh 8MB temporary per
op; the lazy engine records the chain and realizes it in one scheduler pass,
writing each step in place into the dead temporary from the previous one.

Eager and lazy runs are interleaved round by round (the order alternates,
garbage collection is off inside a round), and the gate takes the median of
the per-round ratios, so a slow stretch of the machine hits both sides of a
ratio instead of one side of a best-of.  Gate: median eager / lazy >= 1.5x.
``REPRO_PERF_RELAX=1`` turns a gate failure into a skip (bit-identity is
still asserted).  Results go to ``artifacts/BENCH_fusion.json``.
"""

import numpy as np

from repro import nn
from repro.nn import lazy

from _harness import interleaved_rounds, record_bench

N_ELEMENTS = 1_000_000
CHAIN_DEPTH = 12
ROUNDS = 21
REQUIRED_SPEEDUP = 1.5


def _chain(x):
    """Depth-12 elementwise chain (cheap ufuncs, so dispatch+alloc dominate)."""
    y = x * 1.0001       # 1
    y = y + 0.5          # 2
    y = y.relu()         # 3
    y = y - 0.25         # 4
    y = y * 0.9          # 5
    y = y.abs()          # 6
    y = y + 1.0          # 7
    y = y * 1.1          # 8
    y = y - 0.1          # 9
    y = y.relu()         # 10
    y = y * 0.5          # 11
    y = y + 0.01         # 12
    return y


def test_lazy_fusion_speedup(speedup_gate):
    rng = np.random.default_rng(0)
    data = rng.normal(size=N_ELEMENTS)
    x = nn.tensor(data)

    def run_lazy():
        with lazy.lazy_mode(True):
            return _chain(x).realize().numpy()

    def run_eager():
        with lazy.lazy_mode(False):
            return _chain(x).numpy()

    # warm-up + bit-identity check before timing
    np.testing.assert_array_equal(run_lazy(), run_eager())

    rounds = interleaved_rounds(run_eager, run_lazy, ROUNDS)
    round_speedups = [eager / fused for eager, fused in rounds]
    speedup = float(np.median(round_speedups))
    eager_time = float(np.median([eager for eager, _ in rounds]))
    lazy_time = float(np.median([fused for _, fused in rounds]))

    lazy.reset_stats()
    with lazy.lazy_mode(True):
        _chain(x).realize()
    stats = lazy.graph_stats()
    assert stats["ops_recorded"] == CHAIN_DEPTH
    assert stats["ops_fused"] == CHAIN_DEPTH - 1  # all but the first write in place

    record_bench("fusion", {
        "workload": "elementwise_chain_fusion",
        "n_elements": N_ELEMENTS,
        "chain_depth": CHAIN_DEPTH,
        "rounds": ROUNDS,
        "round_speedups": round_speedups,
        "eager_seconds": eager_time,
        "lazy_seconds": lazy_time,
        "speedup": speedup,
        "ops_fused": stats["ops_fused"],
        "required_speedup": REQUIRED_SPEEDUP,
        "speedup_definition": (f"median over {ROUNDS} interleaved rounds of the "
                               "per-round ratio eager / lazy wall clock of one "
                               "depth-12 chain realization"),
    })
    speedup_gate(speedup, REQUIRED_SPEEDUP,
                 detail=f"median lazy {lazy_time * 1e3:.1f}ms vs eager "
                        f"{eager_time * 1e3:.1f}ms at depth {CHAIN_DEPTH}, "
                        f"{N_ELEMENTS} elements")
