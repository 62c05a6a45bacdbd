"""Outside-in span tracer for the end-to-end benchmark.

The tracer never edits ``src/``: :func:`install` replaces public functions and
methods of ``repro`` with wrappers that time each call.  Spans live in memory
on a per-thread stack; a span's *self time* is its duration minus the time
its direct child spans cover, so the self times of all spans plus the root
span's self time add up to the root's wall clock.

Two kinds of wrapped calls:

* layer spans (``core.fit``, ``ppl.elbo``, ``nn.backward``, ...) are kept as
  individual events and written as Chrome trace-event JSON;
* kernel spans (``backend.*``) are only aggregated -- count, self time and
  an analytic FLOP and byte count computed from the operand shapes -- because
  a paper-default run makes millions of kernel calls.

Async functions (``MicroBatcher.submit``) cannot sit on a thread stack, since
other tasks run on the same thread while they await; their durations are
kept as samples instead.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

_perf = time.perf_counter

#: layer-span events kept per process; later ones are counted, not stored
MAX_EVENTS = 200_000


class _Total:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = {}


class _ThreadState:
    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.totals = {}
        self.events = []
        self.samples = {}
        self.dropped = 0

    def close(self, name, start, end, frame, emit, extra):
        stack = self.stack
        stack.pop()
        dur = end - start
        if stack:
            stack[-1][0] += dur
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = _Total()
        total.calls += 1
        total.self_s += dur - frame[0]
        total.total_s += dur
        if extra:
            acc = total.extra
            for key, value in extra.items():
                acc[key] = acc.get(key, 0) + value
        if emit:
            if len(self.events) < MAX_EVENTS:
                self.events.append((name, start, dur, dur - frame[0]))
            else:
                self.dropped += 1


class Tracer:
    """Per-thread span stacks plus their merged totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self.origin = _perf()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
        return state

    # ------------------------------------------------------------- wrappers
    def span(self, name, fn, *, emit=True, cost=None):
        """Wrap ``fn`` so each call is a span; ``cost(args, result)`` adds counters."""
        get_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            frame = [0.0]
            state.stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                state.close(name, start, _perf(), frame, emit, None)
                raise
            state.close(name, start, _perf(), frame, emit,
                        cost(args, result) if cost is not None else None)
            return result

        return wrapper

    def async_span(self, name, fn):
        """Wrap coroutine function ``fn``; each awaited call adds one duration sample."""
        get_state = self._state

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                get_state().samples.setdefault(name, []).append(_perf() - start)

        return wrapper

    def patch(self, owner, attr, name, **kwargs):
        """Replace ``owner.attr`` (a class or module attribute) by a span wrapper."""
        setattr(owner, attr, self.span(name, getattr(owner, attr), **kwargs))

    # -------------------------------------------------------------- results
    def totals(self):
        """``{span: {"calls", "self_s", "total_s", **counters}}`` over every thread."""
        merged = {}
        for state in self._threads:
            for name, total in state.totals.items():
                entry = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                entry["calls"] += total.calls
                entry["self_s"] += total.self_s
                entry["total_s"] += total.total_s
                for key, value in total.extra.items():
                    entry[key] = entry.get(key, 0) + value
        return merged

    def samples(self):
        merged = {}
        for state in self._threads:
            for name, values in state.samples.items():
                merged.setdefault(name, []).extend(values)
        return merged

    def write_chrome_trace(self, path, metadata):
        """Write the kept layer spans as Chrome trace-event JSON (Perfetto opens it)."""
        pid = os.getpid()
        events = []
        dropped = 0
        for state in self._threads:
            dropped += state.dropped
            for name, start, dur, self_s in state.events:
                events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                               "ts": round((start - self.origin) * 1e6, 3),
                               "dur": round(dur * 1e6, 3), "pid": pid,
                               "tid": state.tid,
                               "args": {"self_us": round(self_s * 1e6, 3)}})
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {**metadata, "dropped_events": dropped,
                                 "totals": self.totals()}}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------- kernel costs
# FLOPs and bytes are computed from operand and result shapes, not measured:
# bytes counts each operand read once and the result written once.

def _matmul_cost(args, out):
    _, a, b = args
    return {"flop": 2 * out.size * a.shape[-1], "bytes": a.nbytes + b.nbytes + out.nbytes}


def _im2col_cost(args, result):
    return {"flop": 0, "bytes": args[1].nbytes + result[0].nbytes}


def _col2im_cost(args, grad):
    cols = args[1]
    return {"flop": cols.size, "bytes": cols.nbytes + grad.nbytes}


def _max_pool_cost(args, result):
    x, kernel = args[1], args[2]
    pooled, idx = result
    return {"flop": pooled.size * kernel * kernel,
            "bytes": x.nbytes + pooled.nbytes + idx.nbytes}


def _avg_pool_cost(args, out):
    x, kernel = args[1], args[2]
    return {"flop": out.size * kernel * kernel, "bytes": x.nbytes + out.nbytes}


def _reduce_cost(args, out):
    x = args[1]
    return {"flop": x.size, "bytes": x.nbytes + getattr(out, "nbytes", 8)}


def _elementwise_cost(args, out):
    srcs = args[0]
    read = sum(getattr(src, "nbytes", 8) for src in srcs)
    return {"flop": out.size, "bytes": read + out.nbytes}


def _forward_cost(args, raw):
    engine, inputs = args[0], args[1]
    rows = len(inputs)
    block = engine.block_rows
    return {"rows": rows, "padded_rows": -(-rows // block) * block}


KERNELS = ("matmul", "im2col", "col2im", "max_pool2d", "avg_pool2d", "reduce", "cumsum",
           "elementwise")


def install(tracer):
    """Wrap the public functions of every traced ``repro`` layer."""
    from repro.core import bnn
    from repro.nn import backends, lazy
    from repro.nn import optim as nn_optim
    from repro.nn.tensor import Tensor
    from repro.ppl import optim as ppl_optim
    from repro.ppl.infer import mcmc, svi
    from repro.render.renderer import VolumetricRenderer
    from repro.serve.batcher import MicroBatcher
    from repro.serve.engine import PredictionEngine

    patch = tracer.patch
    patch(bnn.VariationalBNN, "fit", "core.fit")
    patch(bnn.VariationalBNN, "predict", "core.predict")
    patch(bnn.MCMC_BNN, "fit", "core.mcmc_fit")
    patch(bnn.MCMC_BNN, "predict", "core.predict")
    # PytorchBNN.__call__ is an alias of forward, not a call through it
    patch(bnn.PytorchBNN, "forward", "core.pytorch_bnn_forward")
    patch(bnn.PytorchBNN, "__call__", "core.pytorch_bnn_forward")
    for cls in (svi.ELBO, svi.Trace_ELBO, svi.TraceMeanField_ELBO):
        if "differentiable_loss" in vars(cls):
            patch(cls, "differentiable_loss", "ppl.elbo")
    patch(mcmc.HMC, "potential_and_grad", "ppl.potential_and_grad")
    patch(ppl_optim.PyroOptim, "__call__", "ppl.optim")
    patch(Tensor, "backward", "nn.backward")
    patch(nn_optim.Adam, "step", "nn.optim")
    patch(lazy, "realize", "nn.lazy.realize")

    backend = type(backends.get_backend())
    for attr, name, cost in (("matmul", "matmul", _matmul_cost),
                             ("im2col", "im2col", _im2col_cost),
                             ("col2im", "col2im", _col2im_cost),
                             ("max_pool2d", "max_pool2d", _max_pool_cost),
                             ("avg_pool2d", "avg_pool2d", _avg_pool_cost),
                             ("sum", "reduce", _reduce_cost),
                             ("mean", "reduce", _reduce_cost),
                             ("max", "reduce", _reduce_cost),
                             ("cumsum", "cumsum", _reduce_cost)):
        patch(backend, attr, f"backend.{name}", emit=False, cost=cost)
    backend.elementwise = {
        op: tracer.span("backend.elementwise", kernel, emit=False, cost=_elementwise_cost)
        for op, kernel in backend.elementwise.items()}

    # VolumetricRenderer.render is an alias of __call__
    patch(VolumetricRenderer, "__call__", "render.render")
    patch(VolumetricRenderer, "render", "render.render")
    patch(VolumetricRenderer, "render_batch", "render.render_batch")
    patch(VolumetricRenderer, "render_posterior", "render.render_posterior")
    patch(VolumetricRenderer, "composite", "render.composite")

    patch(PredictionEngine, "predict_stacked", "serve.forward", cost=_forward_cost)
    patch(PredictionEngine, "stats", "serve.stats")
    MicroBatcher.submit = tracer.async_span("serve.submit", MicroBatcher.submit)
