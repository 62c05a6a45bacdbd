"""End-to-end benchmark: three paper experiments and ``repro serve`` under load.

Run from anywhere inside a checkout::

    python3 benchmarks/e2e/run.py --workload fig1-regression --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``fig1-regression``, ``fig2-calibration``,
``fig3-nerf`` or ``serve-http`` (all four when omitted).  Every experiment
repetition runs in a fresh interpreter; the serve workload spawns the
``repro serve`` CLI and drives it over HTTP.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` installs span wrappers from
``benchmarks/e2e/tracer.py`` (never editing ``src/``) and reports per-layer
metrics plus a Chrome trace.  Each run prints every metric with its unit and
sample count, checks the program's outputs, writes a JSON record with its
provenance to ``artifacts/bench/``, and prints one JSON summary as its last
line.  Metric names, units and bounds are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import http.client
import itertools
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import tracer as tracing

E2E = Path(__file__).resolve().parent
ROOT = E2E.parents[1]
OUT = ROOT / "artifacts" / "bench"

EXPERIMENTS = ("fig1-regression", "fig2-calibration", "fig3-nerf")
WORKLOADS = EXPERIMENTS + ("serve-http",)

#: experiment repetitions per untraced run, at least (more while time remains)
MIN_REPS = 2
#: set-up measurements per run (extra registry-only spawns make up the count)
EXPERIMENT_SETUPS = 7
SERVE_SETUPS = 5
#: every run must end well inside 180 s
RUN_BUDGET_S = 165.0

#: the client matches the 2-core reference box: one connection per core
CONNECTIONS = 2
#: closed-loop requests in flight per connection
CLOSED_DEPTH = 4
BURST_REQUESTS = 400
BURSTS = 5
SNAPSHOT_SAMPLES = 32

#: spans each workload must reach in a traced run; a wrapper that records
#: nothing (e.g. installed on a method the code reaches through an alias)
#: would silently report zero
EXPECTED_SPANS = {
    "fig1-regression": ("core.fit", "core.mcmc_fit", "core.predict", "ppl.elbo",
                        "ppl.potential_and_grad", "ppl.optim", "nn.backward", "nn.optim",
                        "nn.lazy.realize", "backend.matmul", "backend.reduce",
                        "backend.elementwise"),
    "fig2-calibration": ("core.fit", "core.predict", "ppl.elbo", "ppl.optim",
                         "nn.backward", "nn.optim", "nn.lazy.realize", "backend.matmul",
                         "backend.im2col", "backend.col2im", "backend.reduce",
                         "backend.elementwise"),
    "fig3-nerf": ("core.pytorch_bnn_forward", "nn.backward", "nn.optim", "nn.lazy.realize",
                  "render.render", "render.render_posterior", "render.composite",
                  "backend.matmul", "backend.cumsum", "backend.reduce",
                  "backend.elementwise"),
    "serve-http": ("serve.forward", "serve.stats", "backend.matmul",
                   "backend.elementwise"),
}
LAYER_SPANS = ("core.fit", "core.mcmc_fit", "core.predict", "core.pytorch_bnn_forward",
               "ppl.elbo", "ppl.potential_and_grad", "ppl.optim", "nn.backward",
               "nn.optim", "nn.lazy.realize", "render.render", "render.render_batch",
               "render.render_posterior", "render.composite")
OPEN_PHASES = ("r100", "r250", "r350")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring a failure)."""


class Run:
    """One invocation: its settings, deadline, scratch directory and results."""

    def __init__(self, args, spec):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.spec = spec
        self.started = time.monotonic()
        self.tmp = OUT / "tmp" / f"{self.workload}-{os.getpid()}"
        self.counter = itertools.count()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                                   else []))
        self.metrics = {}  # name -> (unit, [values])
        self.checks = {}
        self.info = {}
        self.params = {}
        self.attempted = 0
        self.failed = 0

    def remaining(self):
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def metric(self, name, unit, values):
        self.metrics[name] = (unit, list(values))

    def next_path(self, stem, suffix=".json"):
        return self.tmp / f"{stem}-{next(self.counter)}{suffix}"


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ------------------------------------------------------------- experiments
def _spawn_experiment(run, *, setup_only=False, trace_path=None):
    """One fresh-interpreter repetition; ``None`` if it failed."""
    out = run.next_path("child")
    cmd = [sys.executable, str(E2E / "experiment_child.py"), run.workload,
           "--out", str(out), "--seed", str(run.seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=run.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=run.remaining())
    except subprocess.TimeoutExpired:
        print(f"{run.workload}: repetition timed out", file=sys.stderr)
        return None
    exited = time.monotonic()
    if proc.returncode != 0:
        print(f"{run.workload}: repetition exited {proc.returncode}:\n"
              f"{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    record = json.loads(out.read_text())
    record["setup_s"] = record["t_ready"] - spawned
    record["latency_s"] = exited - spawned
    return record


def _check_experiment_outputs(run, reps):
    dumps = {json.dumps(rep["metrics"], sort_keys=True) for rep in reps}
    run.checks["metrics_bit_identical"] = len(dumps) == 1
    claims = {}
    for rep in reps:
        for name, held in rep["claims"].items():
            claims[name] = claims.get(name, True) and held
    run.info["paper_claims"] = claims
    run.info["experiment_metrics"] = reps[0]["metrics"]
    # the claims are pinned at the paper-default seeds; at other seeds they
    # are reported, not required
    if run.seed == 0:
        run.checks["paper_claims_hold"] = all(claims.values())


def _experiment_setup(run):
    rep = _spawn_experiment(run, setup_only=True)
    if rep is None:
        raise BenchError("set-up spawn failed")
    return rep["setup_s"]


def experiment_workload(run):
    run.params = {"experiment": run.workload, "config": "paper default",
                  "config_seed": run.seed or "paper default"}
    if run.trace:
        return _traced_experiment(run)
    reps, setups = [], []
    # a set-up-only spawn precedes every repetition, so the set-up samples
    # spread over the run as the repetitions do; another repetition starts
    # only if it should end within --seconds
    while len(reps) < MIN_REPS or (time.monotonic() - run.started + reps[-1]["latency_s"]
                                   + setups[-1] <= run.seconds):
        setups.append(_experiment_setup(run))
        run.attempted += 1
        rep = _spawn_experiment(run)
        if rep is None:
            run.failed += 1
            break
        reps.append(rep)
        setups.append(rep["setup_s"])
    run.checks["all_repetitions_completed"] = run.failed == 0
    if not reps:
        raise BenchError("no repetition completed")
    while len(setups) < EXPERIMENT_SETUPS:
        setups.append(_experiment_setup(run))
    _check_experiment_outputs(run, reps)
    run.params["repeats"] = len(reps)
    run.metric("wall_s", "s", [rep["wall_s"] for rep in reps])
    run.metric("latency_ms", "ms", [rep["latency_s"] * 1000.0 for rep in reps])
    run.metric("setup_s", "s", setups)
    run.metric("peak_rss_mb", "MB", [rep["peak_rss_mb"] for rep in reps])


def _traced_experiment(run):
    chrome = OUT / f"trace-{run.workload}-seed{run.seed}.json"
    run.attempted += 2
    base = _spawn_experiment(run)
    traced = _spawn_experiment(run, trace_path=chrome) if base is not None else None
    if traced is None:
        raise BenchError("a repetition of the traced run failed")
    _check_experiment_outputs(run, [base, traced])
    run.params["repeats"] = 2
    run.info["chrome_trace"] = str(chrome.relative_to(ROOT))
    spans = traced["spans"]
    _span_metrics(run, spans, EXPECTED_SPANS[run.workload])
    _lazy_metrics(run, traced["lazy"])
    _serve_metrics(run, None)
    run.metric("other.self_s", "s", [spans["experiment"]["self_s"]])
    run.info["named_span_share"] = 1.0 - spans["experiment"]["self_s"] / traced["wall_s"]
    run.metric("trace_overhead_share", "ratio", [traced["wall_s"] / base["wall_s"] - 1.0])


# -------------------------------------------------------- per-layer metrics
def _span_metrics(run, spans, expected):
    for name in LAYER_SPANS:
        total = spans.get(name, {})
        run.metric(f"{name}.self_s", "s", [total.get("self_s", 0.0)])
        run.metric(f"{name}.calls", "count", [total.get("calls", 0)])
    for kernel in tracing.KERNELS:
        total = spans.get(f"backend.{kernel}", {})
        self_s = total.get("self_s", 0.0)
        gflop = total.get("flop", 0) / 1e9
        run.metric(f"backend.{kernel}.self_s", "s", [self_s])
        run.metric(f"backend.{kernel}.calls", "count", [total.get("calls", 0)])
        run.metric(f"backend.{kernel}.gflop", "GFLOP", [gflop])
        run.metric(f"backend.{kernel}.gb", "GB", [total.get("bytes", 0) / 1e9])
        run.metric(f"backend.{kernel}.gflop_per_s", "GFLOP/s",
                   [gflop / self_s if self_s else 0.0])
    missing = [name for name in expected if spans.get(name, {}).get("calls", 0) < 1]
    run.checks["expected_spans_recorded"] = not missing
    if missing:
        run.info["spans_not_recorded"] = missing


def _lazy_metrics(run, stats):
    run.metric("nn.lazy.ops_recorded", "count", [stats["ops_recorded"]])
    run.metric("nn.lazy.ops_fused", "count", [stats["ops_fused"]])
    run.metric("nn.lazy.realizations", "count", [stats["realizations"]])
    evaluated = stats["ops_evaluated"]
    run.metric("nn.lazy.fused_share", "ratio",
               [stats["ops_fused"] / evaluated if evaluated else 0.0])


def _serve_metrics(run, serve):
    """Serve-layer metrics; ``None`` (an experiment workload) reports zeros."""
    serve = serve or {}
    for name, unit in (("serve.forward.ms_per_call", "ms"), ("serve.forward.calls", "count"),
                       ("serve.stats.ms_per_call", "ms"), ("serve.queue_wait_ms", "ms"),
                       ("serve.batcher.mean_batch_rows", "rows"),
                       ("serve.batcher.timer_flush_share", "ratio"),
                       ("serve.pad_efficiency", "ratio"), ("serve.transport_ms", "ms"),
                       ("serve.cache.hit_ratio", "ratio"),
                       ("serve.p50_ms.r100", "ms"), ("serve.p50_ms.r250", "ms"),
                       ("serve.p50_ms.r350", "ms"), ("serve.p99_ms.r250", "ms"),
                       ("serve.throughput_rps", "1/s"),
                       ("loadgen.late_ms.max.r100", "ms"), ("loadgen.late_ms.max.r250", "ms"),
                       ("loadgen.late_ms.max.r350", "ms")):
        run.metric(name, unit, [serve.get(name, 0.0)])


# -------------------------------------------------------------------- serve
class _Server:
    def __init__(self, proc, port, setup_s, stderr_path):
        self.proc = proc
        self.port = port
        self.setup_s = setup_s
        self.stderr_path = stderr_path


def _http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _start_server(run, snapshot, launcher_out=None):
    """Spawn ``repro serve`` (or the traced launcher); time spawn to /healthz OK."""
    if launcher_out is None:
        cmd = [sys.executable, "-m", "repro.experiments.api.cli", "serve",
               "--snapshot", str(snapshot), "--port", "0"]
    else:
        summary, chrome = launcher_out
        cmd = [sys.executable, str(E2E / "serve_launcher.py"), "--snapshot", str(snapshot),
               "--trace-out", str(summary), "--chrome-trace", str(chrome)]
    stderr_path = run.next_path("server", ".err")
    spawned = time.monotonic()
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=run.env, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], min(60.0, run.remaining()))
        line = proc.stdout.readline() if ready else ""
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match is None:
            raise BenchError(f"server did not start ({line!r}): "
                             f"{stderr_path.read_text()[-2000:]}")
        port = int(match.group(1))
        status, _ = _http_get(port, "/healthz")
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return _Server(proc, port, time.monotonic() - spawned, stderr_path)


def _stop_server(run, server):
    """SIGINT the server (all client connections already closed) and check its exit."""
    server.proc.send_signal(signal.SIGINT)
    try:
        out, _ = server.proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
        out = ""
    clean = server.proc.returncode == 0 and "shut down cleanly" in out
    run.checks["server_shut_down_cleanly"] = run.checks.get("server_shut_down_cleanly",
                                                            True) and clean
    # known problem: a keep-alive socket still open at SIGINT makes the server
    # log a CancelledError traceback; the client closes every connection
    # first, and this counts how often the log shows one anyway
    if "CancelledError" in server.stderr_path.read_text():
        run.info["shutdown_cancelled_errors"] = run.info.get("shutdown_cancelled_errors", 0) + 1


def _setup_only(run, snapshot):
    """Start a server only to time its set-up, then stop it."""
    server = _start_server(run, snapshot)
    _stop_server(run, server)
    return server.setup_s


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


def _serve_phases(seconds):
    return [loadgen.Phase("warmup", rate=250.0, seconds=2.0, timed=False),
            loadgen.Phase("r100", rate=100.0, seconds=0.25 * seconds),
            loadgen.Phase("r250", rate=250.0, seconds=0.5 * seconds),
            loadgen.Phase("r350", rate=350.0, seconds=0.3 * seconds),
            loadgen.Phase("saturation", requests=BURST_REQUESTS, bursts=BURSTS)]


class _Load:
    """The phase results of one drive of the server.

    A timeout stops the drive, so later phases may be missing.  A request
    that failed or was never sent counts at the timeout, as a request that
    missed every latency limit.
    """

    def __init__(self, phases, plan, results, samples):
        self.planned = {phase.name: len(requests) for phase, requests in zip(phases, plan)}
        self.results = {result.name: result for result in results}
        self.samples = samples

    def answered(self, name):
        result = self.results.get(name)
        return result.sent - result.failed if result else 0

    def latencies_ms(self, name):
        result = self.results.get(name)
        got = result.latencies_ms if result else []
        return got + [loadgen.TIMEOUT_S * 1000.0] * (self.planned[name] - len(got))

    def bursts_s(self):
        result = self.results.get("saturation")
        got = result.burst_s if result else []
        return got + [loadgen.TIMEOUT_S] * (BURSTS - len(got))

    def service_ms(self):
        return [ms for name in OPEN_PHASES if name in self.results
                for ms in self.results[name].service_ms]


def _drive(run, server, phases, plan, stats_out):
    """Load the server, then read /stats and its peak RSS before stopping it."""
    try:
        results, samples = asyncio.run(loadgen.drive("127.0.0.1", server.port, phases, plan,
                                                     CONNECTIONS, CLOSED_DEPTH))
        _, stats_out["stats"] = _http_get(server.port, "/stats")
        stats_out["peak_rss_mb"] = _peak_rss_mb(server.proc.pid)
        time.sleep(0.05)  # let the server retire the handlers of closed sockets
    finally:
        _stop_server(run, server)
    load = _Load(phases, plan, results, samples)
    for name, planned in load.planned.items():
        run.attempted += planned
        run.failed += planned - load.answered(name)
    run.checks["load_completed"] = (run.checks.get("load_completed", True)
                                    and len(load.results) == len(phases))
    return load


def _make_snapshot(run):
    snapshot = run.tmp / "snapshot"
    cmd = [sys.executable, "-m", "repro.experiments.api.cli", "snapshot", "fig1-regression",
           "--out", str(snapshot), "--num-samples", str(SNAPSHOT_SAMPLES)]
    if run.seed:
        cmd += ["--set", f"seed={run.seed}"]
    proc = subprocess.run(cmd, cwd=ROOT, env=run.env, capture_output=True, text=True,
                          timeout=run.remaining())
    if proc.returncode != 0:
        raise BenchError(f"repro snapshot failed: {proc.stderr[-2000:]}")
    return snapshot


def _check_responses(run, snapshot, samples, stats):
    """Sampled responses equal an in-process PredictionEngine on the same snapshot."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from repro.serve import PredictionEngine, load_snapshot

    engine = PredictionEngine.from_snapshot(load_snapshot(snapshot))
    mismatched = 0
    for inputs, status, body in samples:
        expected = engine.predict(np.asarray(inputs, dtype=np.float64)).to_payload()
        got = json.loads(body)["predictions"] if status == 200 else None
        if json.dumps(got, sort_keys=True) != json.dumps(expected, sort_keys=True):
            mismatched += 1
    run.info["responses_checked"] = len(samples)
    run.checks["responses_match_reference"] = bool(samples) and mismatched == 0
    hits = sum(s.get("cache", {}).get("hits", 0) for s in stats)
    run.info["cache_hits"] = hits
    run.checks["cache_bypassed"] = hits == 0


def serve_workload(run):
    phases = _serve_phases(run.seconds)
    plan = loadgen.make_plan(run.seed, phases)
    digest = loadgen.plan_digest(plan)
    run.checks["load_plan_reproducible"] = digest == loadgen.plan_digest(
        loadgen.make_plan(run.seed, phases))
    run.params = {"model": "fig1-regression paper default",
                  "posterior_samples": SNAPSHOT_SAMPLES, "connections": CONNECTIONS,
                  "closed_loop_depth": CLOSED_DEPTH, "burst_requests": BURST_REQUESTS,
                  "phases": [vars(phase) for phase in phases], "plan_sha256": digest,
                  "requests": sum(len(requests) for requests in plan)}
    snapshot = _make_snapshot(run)
    if run.trace:
        return _traced_serve(run, snapshot, phases, plan)
    # set-up samples taken a few seconds apart share the machine's state, so
    # they are spread before and after the load
    setups = [_setup_only(run, snapshot) for _ in range(SERVE_SETUPS // 2)]
    server = _start_server(run, snapshot)
    setups.append(server.setup_s)
    out = {}
    load = _drive(run, server, phases, plan, out)
    setups += [_setup_only(run, snapshot) for _ in range(SERVE_SETUPS - len(setups))]
    _check_responses(run, snapshot, load.samples, [out["stats"]])
    run.params["repeats"] = BURSTS
    run.metric("wall_s", "s", load.bursts_s())
    run.metric("latency_ms", "ms", load.latencies_ms("r250"))
    run.metric("setup_s", "s", setups)
    run.metric("peak_rss_mb", "MB", [out["peak_rss_mb"]])
    run.info.update(_load_summary(load))


def _load_summary(load):
    summary = {}
    for name in OPEN_PHASES:
        latencies = load.latencies_ms(name)
        summary[f"serve.p50_ms.{name}"] = _median(latencies)
        summary[f"serve.p99_ms.{name}"] = _percentile(latencies, 99)
        summary[f"serve.samples.{name}"] = len(latencies)
        late = load.results[name].late_ms if name in load.results else []
        summary[f"loadgen.late_ms.max.{name}"] = max(late, default=0.0)
        summary[f"loadgen.late_ms.p99.{name}"] = _percentile(late, 99)
    summary["serve.throughput_rps"] = BURST_REQUESTS / _median(load.bursts_s())
    return summary


def _traced_serve(run, snapshot, phases, plan):
    # untraced baseline of the closed-loop bursts, for the tracing overhead
    base_out = {}
    base = _drive(run, _start_server(run, snapshot), phases[-1:], plan[-1:], base_out)
    summary_path = run.next_path("launcher")
    chrome = OUT / f"trace-{run.workload}-seed{run.seed}.json"
    out = {}
    load = _drive(run, _start_server(run, snapshot, (summary_path, chrome)), phases, plan, out)
    _check_responses(run, snapshot, base.samples + load.samples,
                     [base_out["stats"], out["stats"]])
    launcher = json.loads(summary_path.read_text())
    run.params["repeats"] = 1
    run.info["chrome_trace"] = str(chrome.relative_to(ROOT))
    spans = launcher["spans"]
    _span_metrics(run, spans, EXPECTED_SPANS[run.workload])
    submits = launcher["samples"].get("serve.submit", [])
    run.checks["expected_spans_recorded"] = (run.checks["expected_spans_recorded"]
                                             and bool(submits))
    _lazy_metrics(run, launcher["lazy"])

    serve = _load_summary(load)
    forward = spans.get("serve.forward", {})
    stats_span = spans.get("serve.stats", {})
    forward_ms = forward.get("total_s", 0.0) * 1000.0 / max(forward.get("calls", 0), 1)
    stats_ms = stats_span.get("total_s", 0.0) * 1000.0 / max(stats_span.get("calls", 0), 1)
    submit_p50_ms = _median(submits) * 1000.0
    client_ms = load.service_ms()
    batcher = out["stats"]["batcher"]
    cache = out["stats"].get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    serve.update({
        "serve.forward.ms_per_call": forward_ms,
        "serve.forward.calls": forward.get("calls", 0),
        "serve.stats.ms_per_call": stats_ms,
        # a request's time in submit, less its batch's forward and its stats
        "serve.queue_wait_ms": submit_p50_ms - forward_ms - stats_ms,
        "serve.batcher.mean_batch_rows": batcher["mean_batch_rows"],
        "serve.batcher.timer_flush_share": batcher["timer_flushes"] / max(batcher["batches"], 1),
        "serve.pad_efficiency": forward.get("rows", 0) / max(forward.get("padded_rows", 0), 1),
        # client time from send to response, less the server's own submit time
        "serve.transport_ms": _median(client_ms) - submit_p50_ms,
        "serve.cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
    })
    _serve_metrics(run, serve)
    span_self = sum(total["self_s"] for total in spans.values())
    run.metric("other.self_s", "s", [max(launcher["cpu_s"] - span_self, 0.0)])
    run.metric("trace_overhead_share", "ratio",
               [_median(load.bursts_s()) / _median(base.bursts_s()) - 1.0])
    run.info["server_cpu_s"] = launcher["cpu_s"]


# ---------------------------------------------------------------- reporting
def _provenance():
    import numpy as np

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=20)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # a checkout without .git (an exported tree) records no sha
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status),
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _report(run):
    declared = run.spec["per_layer" if run.trace else "end_to_end"]
    missing = [entry["name"] for entry in declared if entry["name"] not in run.metrics]
    wrong_unit = [entry["name"] for entry in declared
                  if entry["name"] in run.metrics
                  and run.metrics[entry["name"]][0] != entry["unit"]]
    if missing or wrong_unit:
        raise BenchError(f"metrics missing {missing} or with the wrong unit {wrong_unit}")

    table = {}
    for name, (unit, values) in run.metrics.items():
        table[name] = {"value": _median(values), "unit": unit, "samples": len(values),
                       "min": min(values), "max": max(values)}
    correct = all(run.checks.values())
    print(f"== {run.workload} seed={run.seed} {'traced' if run.trace else 'end-to-end'}")
    for name, row in table.items():
        spread = (f"  min {row['min']:.6g} max {row['max']:.6g}"
                  if row["samples"] > 1 else "")
        print(f"{name:40s} {row['value']:14.6g} {row['unit']:8s} n={row['samples']}{spread}")
    for name, value in run.info.items():
        if not isinstance(value, (dict, list)):
            print(f"{name:40s} {value}")
    for name, held in run.checks.items():
        print(f"check {name:34s} {'ok' if held else 'FAILED'}")

    record = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
              "trace": run.trace, "params": run.params,
              "provenance": _provenance(), "metrics": table, "info": run.info,
              "checks": run.checks, "correct": correct, "attempted": run.attempted,
              "failed": run.failed}
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = OUT / (f"{run.workload}-seed{run.seed}-{'trace' if run.trace else 'e2e'}"
                  f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {entry["name"]: {"value": table[entry["name"]]["value"],
                                                  "unit": entry["unit"]}
                                  for entry in declared}}))


def main(argv=None):
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="workload to run (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper-default seed of each experiment")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer run with span wrappers and a Chrome trace")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        run = Run(args, spec)
        run.tmp.mkdir(parents=True, exist_ok=True)
        try:
            (experiment_workload if workload in EXPERIMENTS else serve_workload)(run)
            _report(run)
        except (BenchError, OSError, subprocess.SubprocessError) as exc:
            print(f"run.py: {workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        finally:
            shutil.rmtree(run.tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
