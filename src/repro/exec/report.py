"""Structured end-of-sweep reporting and the ``repro results`` artifact index.

The report is both human-readable (per-cell ``PASS``/``RETRIED``/``FAIL``/
``TIMEOUT``/``SKIP`` lines plus a summary) and machine-readable
(``report.json`` written atomically next to the journal, carrying per-cell
attempts, retry budget usage, wall clocks and error strings).  Exit-code
contract: a sweep exits 1 when any cell ends in a terminal failure.

``repro results <sweep-dir>`` reads the journal back into a queryable table:
one row per journaled cell (its swept overrides plus every numeric metric)
and min/p50/mean/p95/p99/max aggregates per metric across the grid — the
percentiles exist chiefly for latency-style metrics (serving latencies,
wall clocks), where tails matter more than means.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .journal import SweepJournal, _atomic_write_text, load_manifest
from .pool import FAIL, PASS, SKIPPED, TIMEOUT, CellOutcome

__all__ = ["build_report", "write_report", "render_report", "exit_code",
           "index_results", "render_results"]

#: display labels: a pass that needed retries surfaces as RETRIED
_LABELS = {PASS: "PASS", FAIL: "FAIL", TIMEOUT: "TIMEOUT", SKIPPED: "SKIP"}


def _label(outcome: CellOutcome) -> str:
    if outcome.status == PASS and outcome.retried:
        return "RETRIED"
    return _LABELS[outcome.status]


def build_report(experiment_id: str, outcomes: Sequence[CellOutcome], *,
                 retries: int, workers: int, wall_clock_seconds: float) -> dict:
    """The machine-readable sweep report (one entry per cell, plus counts)."""
    cells = []
    for outcome in outcomes:
        cells.append({
            "cell_id": outcome.cell.cell_id,
            "key": outcome.cell.key,
            "overrides": dict(outcome.cell.overrides),
            "status": outcome.status,
            "label": _label(outcome),
            "attempts": outcome.attempts,
            "retries_used": max(0, outcome.attempts - 1),
            "retry_budget": retries,
            "wall_clock_seconds": round(outcome.total_seconds, 6),
            "error": outcome.error,
        })
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return {
        "experiment_id": experiment_id,
        "workers": workers,
        "retries": retries,
        "wall_clock_seconds": round(wall_clock_seconds, 6),
        "counts": counts,
        "retried": sum(1 for o in outcomes if o.status == PASS and o.retried),
        "cells": cells,
    }


def write_report(root, report: dict) -> Path:
    path = Path(root) / "report.json"
    _atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def render_report(report: dict, stream) -> None:
    """Print the per-cell table and summary line for one sweep execution."""
    cells = report["cells"]
    width = max((len(c["cell_id"]) for c in cells), default=8)
    for cell in cells:
        line = f"  {cell['label']:<8s} {cell['cell_id']:<{width}s}"
        if cell["status"] == SKIPPED:
            line += "  (journaled)"
        else:
            line += (f"  (attempts={cell['attempts']}/{cell['retry_budget'] + 1}, "
                     f"{cell['wall_clock_seconds']:.2f}s)")
        if cell["error"]:
            line += f"  {cell['error']}"
        print(line, file=stream)
    counts = report["counts"]
    parts = [f"{counts.get(PASS, 0)} passed"]
    if report.get("retried"):
        parts[-1] += f" ({report['retried']} retried)"
    if counts.get(FAIL):
        parts.append(f"{counts[FAIL]} failed")
    if counts.get(TIMEOUT):
        parts.append(f"{counts[TIMEOUT]} timed out")
    if counts.get(SKIPPED):
        parts.append(f"{counts[SKIPPED]} skipped")
    print(f"sweep {report['experiment_id']}: {', '.join(parts)} — "
          f"{len(cells)} cells in {report['wall_clock_seconds']:.1f}s "
          f"(workers={report['workers']})", file=stream)


def exit_code(outcomes: Sequence[CellOutcome]) -> int:
    """0 when every cell passed or was skipped, 1 on any terminal failure."""
    return 0 if all(outcome.ok for outcome in outcomes) else 1


# --------------------------------------------------------------------------
# ``repro results`` — the queryable index over a sweep directory.
# --------------------------------------------------------------------------
def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values (numpy-default)."""
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * (q / 100.0)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def index_results(sweep_dir) -> dict:
    """Summarize a sweep directory's journal into a metrics table.

    Returns ``{"experiment_id", "rows", "metrics", "aggregates"}`` where each
    row carries the cell's identity, its swept overrides and its numeric
    metrics, and ``aggregates`` maps every metric to
    min/p50/mean/p95/p99/max across the journaled grid.  Cells the manifest
    lists but the journal lacks appear with ``"status": "missing"`` so
    partial sweeps are visible.
    """
    root = Path(sweep_dir)
    manifest = load_manifest(root)
    journal = SweepJournal(root)
    valid, corrupt = journal.scan()

    manifest_cells = {c["key"]: c for c in (manifest or {}).get("cells", [])}
    keys = list(manifest_cells) or sorted(valid)
    rows: List[dict] = []
    metric_keys: List[str] = []
    for key in keys:
        listed = manifest_cells.get(key, {})
        row = {"key": key,
               "cell_id": listed.get("cell_id", key),
               "overrides": dict(listed.get("overrides", {}))}
        result = valid.get(key)
        if result is None:
            row["status"] = "missing"
            row["metrics"] = {}
        else:
            row["status"] = "done"
            if not listed:
                row["overrides"] = {k: v for k, v in result.config.items()}
            row["metrics"] = {k: v for k, v in result.metrics.items()
                              if isinstance(v, (int, float)) and not isinstance(v, bool)}
            for name in row["metrics"]:
                if name not in metric_keys:
                    metric_keys.append(name)
        rows.append(row)

    aggregates: Dict[str, dict] = {}
    for name in metric_keys:
        values = [row["metrics"][name] for row in rows if name in row["metrics"]]
        if values:
            ordered = sorted(values)
            aggregates[name] = {"min": min(values), "max": max(values),
                                "mean": sum(values) / len(values),
                                "p50": _percentile(ordered, 50.0),
                                "p95": _percentile(ordered, 95.0),
                                "p99": _percentile(ordered, 99.0),
                                "n": len(values)}
    experiment_id = (manifest or {}).get("experiment_id")
    if experiment_id is None and valid:
        experiment_id = next(iter(valid.values())).experiment_id
    return {"experiment_id": experiment_id, "rows": rows, "metrics": metric_keys,
            "aggregates": aggregates, "corrupt": [str(p) for p in corrupt]}


def render_results(index: dict, stream, metrics: Optional[Sequence[str]] = None) -> None:
    """Print the results table (optionally restricted to ``metrics`` columns)."""
    selected = list(metrics) if metrics else index["metrics"]
    width = max([len(row["cell_id"]) for row in index["rows"]] + [4])
    header = f"{'cell':<{width}s} {'status':<8s}" + "".join(
        f" {name:>14s}" for name in selected)
    print(header, file=stream)
    for row in index["rows"]:
        line = f"{row['cell_id']:<{width}s} {row['status']:<8s}"
        for name in selected:
            value = row["metrics"].get(name)
            line += f" {value:>14.6g}" if value is not None else f" {'-':>14s}"
        print(line, file=stream)
    for name in selected:
        agg = index["aggregates"].get(name)
        if agg:
            print(f"{name}: min {agg['min']:.6g}  p50 {agg['p50']:.6g}  "
                  f"mean {agg['mean']:.6g}  p95 {agg['p95']:.6g}  "
                  f"p99 {agg['p99']:.6g}  max {agg['max']:.6g}  (n={agg['n']})",
                  file=stream)
    if index["corrupt"]:
        print(f"results: {len(index['corrupt'])} corrupt journal entries ignored",
              file=stream)
