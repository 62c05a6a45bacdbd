"""Helpers shared by the benchmark modules."""

import gc
import json
import time
from pathlib import Path

import numpy as np


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer and return its result.

    The experiments are minutes-scale training runs, not microbenchmarks, so a
    single round is both sufficient and necessary to keep the suite's runtime
    reasonable.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)


def record(benchmark, **info):
    """Attach reproduced numbers to ``benchmark.extra_info`` (floats/strings only)."""
    for key, value in info.items():
        if isinstance(value, (np.floating, np.integer)):
            value = float(value)
        benchmark.extra_info[key] = value


#: where perf gates write their numbers: the gitignored ``artifacts/``, so a
#: test run never rewrites a tracked file
BENCH_DIR = Path(__file__).resolve().parent.parent / "artifacts"


def _bench_path(name: str) -> Path:
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    return BENCH_DIR / f"BENCH_{name}.json"


def record_bench(name: str, payload: dict) -> Path:
    """Write one perf record ``artifacts/BENCH_<name>.json``.

    Keys should stay stable across runs, so records from different commits
    compare key by key (see ``benchmarks/README.md``).
    """
    path = _bench_path(name)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def record_bench_entry(name: str, workload: str, payload: dict) -> Path:
    """Update one workload's entry in ``artifacts/BENCH_<name>.json``.

    Used when one file tracks several related workloads (e.g. the render
    engine's evaluation *and* training paths): the file maps
    ``workload -> payload`` and each gate rewrites only its own entry.
    """
    path = _bench_path(name)
    entries = json.loads(path.read_text()) if path.exists() else {}
    entries[workload] = payload
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return path


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def interleaved_rounds(first, second, rounds: int):
    """``(first_seconds, second_seconds)`` of one run each per round.

    The side that runs first alternates, and garbage collection is off inside
    a round, so a slow stretch of the machine or a collection of the test
    process's heap hits both sides of a round's ratio instead of one.  Gate
    on the median of the per-round ratios.
    """
    times = []
    for i in range(rounds):
        gc.collect()
        gc.disable()
        try:
            if i % 2:
                second_s = _seconds(second)
                first_s = _seconds(first)
            else:
                first_s = _seconds(first)
                second_s = _seconds(second)
        finally:
            gc.enable()
        times.append((first_s, second_s))
    return times


def best_of(fn, repeats: int = 5) -> float:
    """Best wall-clock time of ``repeats`` runs of ``fn`` (damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
