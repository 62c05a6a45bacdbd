"""Traced ``repro serve``: install the span wrappers, then serve as the CLI does.

Usage (spawned by ``run.py --trace 1``)::

    python benchmarks/e2e/serve_launcher.py --snapshot DIR --trace-out OUT.json

Calls :func:`repro.serve.cli.run_serve` with its default flags (ephemeral
port), so the startup line, signal handling and shutdown are the CLI's own.
After a clean shutdown it writes the span totals, the submit-latency
samples, the lazy-engine counters and the process CPU time to ``OUT.json``,
and a Chrome trace next to it.
"""

import argparse
import json
import resource
import sys

import tracer as tracing


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--chrome-trace", required=True)
    args = parser.parse_args(argv)

    from repro.nn import lazy
    from repro.serve.cli import run_serve

    tracer = tracing.Tracer()
    tracing.install(tracer)
    lazy.reset_stats()
    cpu_start = _cpu_s()
    code = run_serve(None, args.snapshot, port=0)
    summary = {"exit_code": code, "cpu_s": _cpu_s() - cpu_start,
               "spans": tracer.totals(), "samples": tracer.samples(),
               "lazy": lazy.graph_stats()}
    with open(args.trace_out, "w") as fh:
        json.dump(summary, fh)
    tracer.write_chrome_trace(args.chrome_trace, {"workload": "serve-http"})
    return code


if __name__ == "__main__":
    sys.exit(main())
