"""Perf gate for the sweep engine's worker pool.

Workload: an 8-cell grid of the registered sleep-shaped experiment
(``benchmarks/_sweep_workload.py``, 0.45s per cell) executed through
``repro.exec.execute`` with ``workers=1`` vs ``workers=4``.  The cells are
sleep-dominated, so the measured speedup isolates the pool's cell overlap
(launch/poll/journal overhead included) from the host's core count — the
gate holds on a single-core runner.

Gate: workers=4 must finish the grid >= 2x faster than workers=1.
``REPRO_PERF_RELAX=1`` turns a gate failure into a skip (the
parallel == serial journal-equality assertion still runs).  Results are
written to ``artifacts/BENCH_sweep.json``.
"""

import time

from repro.exec import SweepJournal, execute, expand_grid

from _harness import record_bench
from _sweep_workload import BENCH_SWEEP_ID

N_CELLS = 8
CELL_SECONDS = 0.45
PARALLEL_WORKERS = 4
REQUIRED_SPEEDUP = 2.0


def _run(workers, journal_root):
    cells = expand_grid(BENCH_SWEEP_ID, [f"seed=0..{N_CELLS - 1}"],
                        base_overrides={"sleep": str(CELL_SECONDS)})
    journal = SweepJournal(journal_root)
    start = time.perf_counter()
    outcomes = execute(cells, journal=journal, workers=workers)
    elapsed = time.perf_counter() - start
    assert all(o.status == "pass" for o in outcomes)
    return elapsed, journal


def test_worker_pool_overlaps_cells(speedup_gate, tmp_path):
    serial_seconds, serial_journal = _run(1, tmp_path / "serial")
    parallel_seconds, parallel_journal = _run(PARALLEL_WORKERS, tmp_path / "parallel")
    speedup = serial_seconds / parallel_seconds

    # parallel execution journals exactly what serial execution journals
    serial_valid, _ = serial_journal.scan()
    parallel_valid, _ = parallel_journal.scan()
    assert sorted(serial_valid) == sorted(parallel_valid)
    for key, result in serial_valid.items():
        assert parallel_valid[key].metrics == result.metrics
        assert parallel_valid[key].config == result.config

    record_bench("sweep", {
        "workload": "sleep_cell_grid_pool_overlap",
        "experiment_id": BENCH_SWEEP_ID,
        "n_cells": N_CELLS,
        "cell_seconds": CELL_SECONDS,
        "parallel_workers": PARALLEL_WORKERS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "speedup_definition": ("single-shot wall clock of the full grid, "
                               "workers=1 over workers=4 (sleep-dominated "
                               "cells, core-count independent)"),
    })
    speedup_gate(speedup, REQUIRED_SPEEDUP,
                 detail=f"workers=1 {serial_seconds:.2f}s vs "
                        f"workers={PARALLEL_WORKERS} {parallel_seconds:.2f}s")
