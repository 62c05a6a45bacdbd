"""Execution traces: recording every sample/param site of a model run.

``trace(fn).get_trace(*args)`` runs ``fn`` under a :class:`TraceMessenger`
and returns a :class:`Trace` — an ordered mapping from site names to message
dicts — which the inference code (ELBOs, MCMC, Predictive-style replay) then
inspects to compute log-joints.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from ...nn.tensor import Tensor, stack as _stack_tensors
from ..distributions import sum_rightmost
from .runtime import Message, Messenger

__all__ = ["Trace", "TraceMessenger", "TraceHandler", "trace", "stack_traces"]


class Trace:
    """An ordered record of the sites touched during one model execution."""

    def __init__(self) -> None:
        self.nodes: "OrderedDict[str, Message]" = OrderedDict()
        #: number of per-particle traces merged by :func:`stack_traces`
        #: (1 for an ordinary single-execution trace)
        self.num_stacked: int = 1

    def add_node(self, name: str, site: Optional[Message] = None, **fields) -> None:
        if name in self.nodes:
            raise ValueError(f"site {name!r} appears twice in a single trace")
        node = dict(site) if site is not None else {}
        node.update(fields)
        node.setdefault("name", name)
        self.nodes[name] = node

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __getitem__(self, name: str) -> Message:
        return self.nodes[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def stochastic_nodes(self) -> Iterator[str]:
        """Names of non-observed sample sites."""
        for name, site in self.nodes.items():
            if site["type"] == "sample" and not site["is_observed"]:
                yield name

    def observation_nodes(self) -> Iterator[str]:
        for name, site in self.nodes.items():
            if site["type"] == "sample" and site["is_observed"]:
                yield name

    def param_nodes(self) -> Iterator[str]:
        for name, site in self.nodes.items():
            if site["type"] == "param":
                yield name

    def site_log_prob_sum(self, name: str) -> Tensor:
        """The (scaled, masked) log-density of sample site ``name``, summed.

        Computed on first request and cached on the site as ``log_prob`` and
        ``log_prob_sum``, the keys :meth:`compute_log_prob` fills; a site's
        value is the same tensor whichever of the two computes it first.
        """
        site = self.nodes[name]
        if "log_prob_sum" not in site:
            log_prob = site["fn"].log_prob(site["value"])
            if site.get("mask") is not None:
                mask = site["mask"]
                mask_arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
                log_prob = log_prob * Tensor(mask_arr.astype(np.float64))
            site["log_prob"] = log_prob
            log_prob_sum = log_prob.sum()
            scale = site.get("scale", 1.0)
            if scale != 1.0:
                log_prob_sum = log_prob_sum * scale
            site["log_prob_sum"] = log_prob_sum
        return site["log_prob_sum"]

    def compute_log_prob(self) -> None:
        """Attach ``log_prob`` / ``log_prob_sum`` (scaled, masked) to sample sites."""
        for name, site in self.nodes.items():
            if site["type"] == "sample":
                self.site_log_prob_sum(name)

    def log_prob_sum(self) -> Tensor:
        """Total (scaled) log-density of all sample sites in the trace."""
        self.compute_log_prob()
        total: Optional[Tensor] = None
        for site in self.nodes.values():
            if site["type"] != "sample":
                continue
            total = site["log_prob_sum"] if total is None else total + site["log_prob_sum"]
        return total if total is not None else Tensor(0.0)

    def site_shapes(self) -> "OrderedDict[str, Dict[str, Any]]":
        """Shape summary of every sample site (the static validator's view).

        Maps site name to ``{"distribution", "batch_shape", "event_shape",
        "value_shape", "is_observed", "shape_only_error"}``.  Works on both
        ordinary traces and ones recorded under the shape-only mode of
        :func:`repro.ppl.poutine.runtime.shape_only` (where values are
        zero-filled placeholders of the correct shape).
        """
        summary: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for name, site in self.nodes.items():
            if site.get("type") != "sample":
                continue
            fn = site.get("fn")
            value = site.get("value")
            summary[name] = {
                "distribution": type(fn).__name__ if fn is not None else None,
                "batch_shape": tuple(getattr(fn, "batch_shape", ())),
                "event_shape": tuple(getattr(fn, "event_shape", ())),
                "value_shape": tuple(np.shape(value.data if isinstance(value, Tensor)
                                              else value)),
                "is_observed": bool(site.get("is_observed")),
                "shape_only_error": site.get("shape_only_error"),
            }
        return summary

    def copy(self) -> "Trace":
        new = Trace()
        for name, site in self.nodes.items():
            new.nodes[name] = dict(site)
        return new

    def detach_values(self) -> "Trace":
        """Return a copy whose sample values are detached from the autograd graph."""
        new = self.copy()
        for site in new.nodes.values():
            if isinstance(site.get("value"), Tensor):
                site["value"] = site["value"].detach()
        return new


def stack_traces(traces: Sequence["Trace"]) -> "Trace":
    """Merge per-particle traces into one whose latent sample values carry a
    leading particle dimension.

    This is the trace-level half of the vectorized-particles execution mode:
    ``K`` traces of the same program are collapsed into a single trace where
    every non-observed sample site holds a ``(K, ...)``-stacked value (the
    stack keeps autograd history, so reparameterized gradients still flow to
    the guide parameters).  Distributions and bookkeeping fields are taken
    from the first trace; :class:`~repro.ppl.distributions.Delta` site
    distributions — whose location is itself a per-particle sample, as in the
    low-rank joint guide — are rebuilt around the stacked value so their
    log-density stays zero for every particle.  Replaying a model against the
    stacked trace runs one batched forward pass carrying all ``K`` samples;
    latent sites the stacked trace does *not* cover draw their own ``K``
    per-particle prior samples when the replay runs inside a sized
    ``repro.nn.vectorized_samples`` context (see
    :func:`repro.ppl.poutine.runtime.default_process_message`).  The number
    of merged traces is recorded on the result as ``num_stacked``.
    """
    if not traces:
        raise ValueError("stack_traces requires at least one trace")
    from ..distributions import Delta

    first = traces[0]
    stacked = Trace()
    stacked.num_stacked = len(traces)
    for name, site in first.nodes.items():
        node = dict(site)
        if site.get("type") == "sample" and not site.get("is_observed"):
            if any(name not in t for t in traces[1:]):
                raise ValueError(f"site {name!r} is missing from some particle traces")
            node["value"] = _stack_tensors([t[name]["value"] for t in traces])
            node.pop("log_prob", None)
            node.pop("log_prob_sum", None)
            if isinstance(site.get("fn"), Delta):
                node["fn"] = Delta(node["value"], log_density=site["fn"].log_density,
                                   event_dim=site["fn"].event_dim)
        stacked.nodes[name] = node
    return stacked


class TraceMessenger(Messenger):
    """Record every message passing through into a :class:`Trace`."""

    def __init__(self) -> None:
        self.trace = Trace()

    def __enter__(self) -> "TraceMessenger":
        self.trace = Trace()
        return super().__enter__()

    def postprocess_message(self, msg: Message) -> None:
        site = {k: v for k, v in msg.items() if k not in ("stop", "done")}
        self.trace.add_node(msg["name"], site)


class TraceHandler:
    """Callable wrapper produced by :func:`trace`."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.msngr = TraceMessenger()

    def __call__(self, *args, **kwargs):
        with self.msngr:
            ret = self.fn(*args, **kwargs)
        self.msngr.trace.add_node("_RETURN", type="return", value=ret)
        return ret

    def get_trace(self, *args, **kwargs) -> Trace:
        self(*args, **kwargs)
        return self.msngr.trace


def trace(fn: Callable) -> TraceHandler:
    """``trace(model).get_trace(*args)`` records all sites of one execution."""
    return TraceHandler(fn)
