"""Lazy op-graph execution engine for :mod:`repro.nn.tensor`.

Elementwise forward ops on gradient-free tensors no longer materialize an
array per op.  Instead they record a :class:`LazyOp` node (op id, parent
tensors, shape/dtype metadata — computed without touching data) and the
actual numpy evaluation is deferred until a *realization point*: a
``.data`` / ``.numpy()`` / ``.item()`` access, a comparison, ``backward()``,
any eager kernel op (matmul, reductions, indexing — they read ``.data`` of
their operands), or an explicit :meth:`Tensor.realize`.

Realization schedules the unrealized subgraph in topological order and a
fusion pass collapses chains of elementwise ops into a single pass over one
output buffer: when a scheduled op is the *last* consumer of a temporary
produced earlier in the same schedule (and shapes/dtypes line up), the op's
ufunc writes straight into that temporary (``out=``) instead of allocating a
fresh array.  A depth-``k`` elementwise chain therefore allocates one buffer
instead of ``k`` — the dominant cost of long numpy chains at large sizes.
Values are bit-identical to eager execution: the very same ufuncs run in the
very same order, only the destination buffers differ.

Graph/caching semantics:

* Shared subgraphs evaluate once per realization (the scheduler keys
  evaluated buffers by node), and nodes with more than one recorded consumer
  cache their realized buffer on the tensor so later realizations of sibling
  consumers reuse it instead of recomputing.
* Single-consumer interior nodes of a fused chain are *not* cached — their
  buffer may have been consumed in place.  Reading one later simply
  re-realizes it from the nearest realized ancestors (values identical).
* Gradient-tracking ops realize eagerly at record time: the autograd tape
  (each output's ``_backward(grad)`` closure, see
  :meth:`repro.nn.tensor.Tensor.backward`) is built from realized arrays,
  so ``backward()``, ``no_grad`` and every existing module work unchanged
  and training numerics cannot drift.

Escape hatch: set ``REPRO_LAZY=0`` in the environment (or call
:func:`set_lazy_enabled` / use :func:`lazy_mode`) to restore fully eager
semantics for debugging; the same compute kernels run, so results are
bit-identical either way.

In-place caveat (same as torch without version counters): mutating a
realized buffer in place (``p.data -= ...``, ``copy_``) only affects lazy
descendants recorded *afterwards*; descendants recorded before the mutation
but realized after it see the new values.  Training never hits this window —
``backward()`` realizes everything the tape needs before any optimizer
step — but code that snapshots un-realized outputs across an in-place update
should call ``.realize()`` first.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import backends as _backends

__all__ = [
    "LazyOp",
    "graph_stats",
    "reset_stats",
    "lazy_enabled",
    "set_lazy_enabled",
    "lazy_mode",
    "realize",
]


def _env_enabled(value: Optional[str]) -> bool:
    """Parse the ``REPRO_LAZY`` environment value (default: enabled)."""
    if value is None:
        return True
    return value.strip().lower() not in ("0", "false", "off", "no")


_ENABLED = _env_enabled(os.environ.get("REPRO_LAZY"))


def lazy_enabled() -> bool:
    """True when elementwise ops should record lazy nodes instead of arrays."""
    return _ENABLED


def set_lazy_enabled(enabled: bool) -> None:
    """Globally enable/disable lazy recording (``REPRO_LAZY`` escape hatch)."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextlib.contextmanager
def lazy_mode(enabled: bool = True):
    """Context manager scoping :func:`set_lazy_enabled`."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


# ---------------------------------------------------------------------- stats
class _Stats:
    """Process-wide engine counters (see :func:`graph_stats`)."""

    __slots__ = ("ops_recorded", "ops_fused", "buffers_elided", "ops_evaluated",
                 "realizations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.ops_recorded = 0    # lazy nodes recorded
        self.ops_fused = 0       # ops evaluated in place into a reused buffer
        self.buffers_elided = 0  # no-op movement ops elided at record time
        self.ops_evaluated = 0   # kernels actually executed at realization
        self.realizations = 0    # scheduler invocations


STATS = _Stats()


def graph_stats() -> Dict[str, int]:
    """Snapshot of the engine counters.

    * ``ops_recorded`` — elementwise/movement ops deferred as graph nodes.
    * ``ops_fused`` — ops whose ufunc wrote in place into a dead temporary
      from the same schedule (one fused chain of depth ``k`` counts ``k-1``).
    * ``buffers_elided`` — no-op movement ops (identity reshape, inverse
      transpose pairs, ``contiguous`` on contiguous data) elided entirely.
    * ``ops_evaluated`` — kernels actually executed (shared subgraphs count
      once per realization).
    * ``realizations`` — times the scheduler ran.
    """
    return {
        "ops_recorded": STATS.ops_recorded,
        "ops_fused": STATS.ops_fused,
        "buffers_elided": STATS.buffers_elided,
        "ops_evaluated": STATS.ops_evaluated,
        "realizations": STATS.realizations,
    }


def reset_stats() -> None:
    """Zero every engine counter (tests and benchmark harnesses)."""
    STATS.reset()


# ------------------------------------------------------------------- op table
def _promote(dtypes, params) -> np.dtype:
    return np.result_type(*dtypes)


def _float_promote(dtypes, params) -> np.dtype:
    result = np.result_type(*dtypes)
    return result if np.issubdtype(result, np.inexact) else np.dtype(np.float64)


def _same(dtypes, params) -> np.dtype:
    return np.dtype(dtypes[0])


def _pow_dtype(dtypes, params) -> np.dtype:
    return np.result_type(dtypes[0], params["exponent"])


def _relu_dtype(dtypes, params) -> np.dtype:
    return np.result_type(dtypes[0], 0.0)


def _clamp_dtype(dtypes, params) -> np.dtype:
    bounds = [b for b in (params["min"], params["max"]) if b is not None]
    return np.result_type(dtypes[0], *bounds) if bounds else np.dtype(dtypes[0])


class _OpSpec:
    """One elementwise op: a dtype rule; the kernel lives in ``backends``."""

    __slots__ = ("name", "result_dtype")

    def __init__(self, name: str, result_dtype: Callable) -> None:
        self.name = name
        self.result_dtype = result_dtype


#: every fusable elementwise op id and its dtype-inference rule (numpy
#: promotion semantics define the tensor layer's types).  The
#: ``(srcs, params, out=None)`` kernels live in :mod:`repro.nn.backends`,
#: whose ``elementwise`` table mirrors these keys; eager and lazy execution
#: run the same kernels, so their results are bit-identical.
ELEMENTWISE_OPS: Dict[str, _OpSpec] = {}

for _name, _dtype_rule in [
    ("add", _promote),
    ("sub", _promote),
    ("mul", _promote),
    ("div", _float_promote),
    ("neg", _same),
    ("abs", _same),
    ("exp", _float_promote),
    ("log", _float_promote),
    ("log1p", _float_promote),
    ("sqrt", _float_promote),
    ("tanh", _float_promote),
    ("sin", _float_promote),
    ("cos", _float_promote),
    ("erf", _float_promote),
    ("sigmoid", _float_promote),
    ("softplus", _float_promote),
    ("relu", _relu_dtype),
    ("pow", _pow_dtype),
    ("clamp", _clamp_dtype),
    ("clone", _same),
]:
    ELEMENTWISE_OPS[_name] = _OpSpec(_name, _dtype_rule)

#: movement ops produce views at realization (like their eager counterparts)
#: and are never fused into a destination buffer.
MOVEMENT_OPS = frozenset({"reshape", "transpose"})


# ----------------------------------------------------------------- graph node
class LazyOp:
    """A deferred op: id, parent tensors and data-free output metadata."""

    __slots__ = ("op", "parents", "params", "shape", "dtype", "consumers")

    def __init__(self, op: str, parents: Tuple, params: dict,
                 shape: Tuple[int, ...], dtype: np.dtype) -> None:
        self.op = op
        self.parents = parents  # tuple of Tensor
        self.params = params
        self.shape = shape
        self.dtype = dtype
        # how many recorded lazy ops consume this node (shared subgraphs
        # cache their buffer at realization when > 1)
        self.consumers = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LazyOp({self.op!r}, shape={self.shape}, dtype={self.dtype}, "
                f"consumers={self.consumers})")


def record(op: str, parents: Tuple, params: Optional[dict] = None) -> LazyOp:
    """Record one deferred op over ``parents`` (Tensors), inferring metadata."""
    params = params or {}
    if op == "reshape":
        shape = params["shape"]
        dtype = parents[0].dtype
    elif op == "transpose":
        src_shape = parents[0].shape
        shape = tuple(src_shape[a] for a in params["axes"])
        dtype = parents[0].dtype
    else:
        spec = ELEMENTWISE_OPS[op]
        shape = np.broadcast_shapes(*(p.shape for p in parents))
        dtype = spec.result_dtype([p.dtype for p in parents], params)
    node = LazyOp(op, parents, params, tuple(shape), np.dtype(dtype))
    for parent in parents:
        parent_node = parent._lazy
        if parent_node is not None:
            parent_node.consumers += 1
    STATS.ops_recorded += 1
    return node


def compute_eager(op: str, srcs, params: Optional[dict] = None) -> np.ndarray:
    """Run one op's kernel immediately (grad-tracking and ``REPRO_LAZY=0``)."""
    return _backends.get_backend().elementwise[op](srcs, params or {})


# ------------------------------------------------------------------ scheduler
def _schedule(target) -> list:
    """Unrealized subgraph feeding ``target``, in topological order."""
    order: list = []
    visited = set()
    stack = [(target, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        for parent in tensor._lazy.parents:
            if parent._data is None and id(parent) not in visited:
                stack.append((parent, False))
    return order


def realize(target) -> np.ndarray:
    """Evaluate the lazy subgraph below ``target`` and install its buffer.

    Runs the fusion pass described in the module docstring; returns the
    realized array (also stored as ``target._data``).
    """
    if target._data is not None:
        return target._data
    order = _schedule(target)
    STATS.realizations += 1
    kernels = _backends.get_backend().elementwise  # resolved once per schedule

    # per-schedule consumer counts: a temp whose count hits 0 is dead and its
    # buffer becomes the fusion destination of the op that killed it
    refs: Dict[int, int] = {}
    for tensor in order:
        for parent in tensor._lazy.parents:
            if parent._data is None:
                refs[id(parent)] = refs.get(id(parent), 0) + 1

    temps: Dict[int, np.ndarray] = {}
    owned = set()  # ids of tensors whose temp buffer may be clobbered

    for tensor in order:
        node = tensor._lazy
        srcs = [p._data if p._data is not None else temps[id(p)]
                for p in node.parents]
        if node.op in MOVEMENT_OPS:
            if node.op == "reshape":
                buf = srcs[0].reshape(node.params["shape"])
            else:
                buf = np.transpose(srcs[0], node.params["axes"])
            # the result (usually) aliases the source: neither may be
            # clobbered by a later fused op
            owned.discard(id(node.parents[0]))
        else:
            out_buf = None
            for parent in node.parents:
                pid = id(parent)
                if (pid in owned and refs.get(pid) == 1
                        and temps[pid].shape == node.shape
                        and temps[pid].dtype == node.dtype):
                    out_buf = temps[pid]
                    owned.discard(pid)
                    STATS.ops_fused += 1
                    break
            if out_buf is None:
                out_buf = np.empty(node.shape, dtype=node.dtype)
            buf = kernels[node.op](srcs, node.params, out=out_buf)
            owned.add(id(tensor))
        STATS.ops_evaluated += 1

        for parent in node.parents:
            pid = id(parent)
            if pid in refs:
                refs[pid] -= 1
                if refs[pid] == 0:
                    temps.pop(pid, None)
                    owned.discard(pid)
        temps[id(tensor)] = buf

        # cache shared subgraphs so sibling consumers realized later reuse
        # the buffer instead of recomputing it
        if tensor is target or node.consumers > 1:
            owned.discard(id(tensor))
            tensor._data = buf
            tensor._lazy = None
    return target._data
