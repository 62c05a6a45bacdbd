"""CLI entry points for ``repro snapshot`` and ``repro serve``.

Kept in :mod:`repro.serve` (imported lazily by the main ``repro`` CLI) so
plain ``repro run`` invocations never pay the serving imports.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .engine import PredictionEngine
from .snapshot import SnapshotError, create_snapshot, load_snapshot

__all__ = ["run_snapshot", "run_serve"]


def run_snapshot(experiment_id: str, out: str, *, fast: bool = False,
                 overrides: Optional[Mapping[str, Any]] = None,
                 num_samples: int = 32, untrained: bool = False,
                 stream=None) -> int:
    """``repro snapshot <id> --out DIR``: train (or build) and freeze."""
    stream = stream or sys.stdout
    try:
        snapshot = create_snapshot(experiment_id, fast=fast, overrides=overrides,
                                   num_samples=num_samples,
                                   trained=not untrained)
    except KeyError as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return 2
    except (SnapshotError, ValueError, NotImplementedError) as exc:
        print(f"repro: snapshot: {exc}", file=sys.stderr)
        return 1
    root = snapshot.save(out)
    print(f"snapshot {snapshot.snapshot_id[:12]} of {experiment_id} "
          f"({snapshot.num_samples} posterior samples, "
          f"{len(snapshot.sites)} sites"
          f"{', untrained' if untrained else ''}) -> {root}", file=stream)
    return 0


def run_serve(experiment_id: Optional[str], snapshot_path: str, *,
              host: str = "127.0.0.1", port: int = 8100, max_batch: int = 32,
              cache_bytes: int = 8 << 20, stream=None) -> int:
    """``repro serve <id> --snapshot DIR --port N``: serve until SIGINT/SIGTERM."""
    from .server import run_server

    stream = stream or sys.stdout
    try:
        snapshot = load_snapshot(Path(snapshot_path))
    except SnapshotError as exc:
        print(f"repro: serve: {exc}", file=sys.stderr)
        return 1
    if experiment_id and snapshot.experiment_id != experiment_id:
        print(f"repro: serve: snapshot at {snapshot_path} holds "
              f"{snapshot.experiment_id!r}, not {experiment_id!r}",
              file=sys.stderr)
        return 2
    try:
        engine = PredictionEngine.from_snapshot(snapshot)
    except (SnapshotError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro: serve: {message}", file=sys.stderr)
        return 1
    run_server(engine, host=host, port=port, max_batch=max_batch,
               cache_bytes=cache_bytes)
    return 0
