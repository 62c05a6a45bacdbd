"""The effect-handler runtime: the messenger stack and message dispatch.

This follows the design of Pyro's ``poutine`` (itself based on Plotkin &
Pretnar's algebraic effect handlers): probabilistic primitives such as
``sample`` and ``param`` construct *messages* which are threaded through a
stack of :class:`Messenger` objects.  Handlers closer to the primitive
(innermost) see the message first; a handler may set ``msg["stop"]`` to hide
the site from handlers further out (this is how ``block`` works).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from ...nn.functional import sample_sizes as _sample_sizes
from ...nn.tensor import Tensor

__all__ = ["Message", "Messenger", "apply_stack", "am_i_wrapped", "get_stack",
           "shape_only", "shape_only_active"]

Message = Dict[str, Any]

_PYRO_STACK: List["Messenger"] = []


def get_stack() -> List["Messenger"]:
    """Return the live messenger stack (outermost handler first)."""
    return _PYRO_STACK


def am_i_wrapped() -> bool:
    """True when at least one effect handler is active."""
    return len(_PYRO_STACK) > 0


def new_message(msg_type: str, name: Optional[str], fn: Optional[Callable],
                value: Any = None, is_observed: bool = False, **kwargs) -> Message:
    """Construct a fresh message dict with all bookkeeping fields present."""
    msg: Message = {
        "type": msg_type,
        "name": name,
        "fn": fn,
        "value": value,
        "is_observed": is_observed,
        "scale": 1.0,
        "mask": None,
        "infer": kwargs.pop("infer", None) or {},
        "args": kwargs.pop("args", ()),
        "kwargs": kwargs.pop("kwargs", {}),
        "stop": False,
        "done": False,
    }
    msg.update(kwargs)
    return msg


class Messenger:
    """Base effect handler; also usable as a context manager or decorator."""

    def __enter__(self) -> "Messenger":
        _PYRO_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if _PYRO_STACK and _PYRO_STACK[-1] is self:
            _PYRO_STACK.pop()
        else:  # pragma: no cover - defensive, handlers should nest properly
            _PYRO_STACK.remove(self)

    def __call__(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapped

    def process_message(self, msg: Message) -> None:
        """Hook run while the message travels outwards (innermost first)."""

    def postprocess_message(self, msg: Message) -> None:
        """Hook run after the site value exists (outermost first on the way back)."""


# --------------------------------------------------------------------------
# Shape-only (abstract) execution mode.
#
# Under ``with shape_only():`` every latent ``sample`` site receives a
# zero-valued tensor of exactly the shape a real draw would have
# (``sample_shape + batch_shape + event_shape``) instead of consuming the RNG
# stream.  Traces recorded in this mode therefore carry every site's name,
# distribution and shapes — the raw material of the static model/guide
# validator in :mod:`repro.analysis.validate` — at the cost of one cheap
# forward pass and zero random draws.  ``param`` sites resolve normally (the
# parameter store is deterministic).  The vectorized-axis collision that
# :func:`_vectorized_sample_shape` refuses at runtime is recorded on the
# message as ``shape_only_error`` instead of raised, so the validator can
# report every defect of a model in one pass.
# --------------------------------------------------------------------------
_SHAPE_ONLY = False


def shape_only_active() -> bool:
    """True while the shape-only tracing mode is entered."""
    return _SHAPE_ONLY


@contextlib.contextmanager
def shape_only() -> Iterator[None]:
    """Trace models abstractly: sites record shapes but draw no values."""
    global _SHAPE_ONLY
    previous = _SHAPE_ONLY
    _SHAPE_ONLY = True
    try:
        yield
    finally:
        _SHAPE_ONLY = previous


def _abstract_sample_value(msg: Message) -> Tensor:
    """A zero tensor of the exact shape a real draw at this site would have."""
    fn = msg["fn"]
    try:
        sample_shape = _vectorized_sample_shape(msg)
    except ValueError as exc:  # vectorized-axis collision: record, don't raise
        msg["shape_only_error"] = str(exc)
        sample_shape = ()
    if not sample_shape and msg["args"]:
        sample_shape = tuple(msg["args"][0])
    shape = (tuple(sample_shape) + tuple(getattr(fn, "batch_shape", ()))
             + tuple(getattr(fn, "event_shape", ())))
    msg["shape_only"] = True
    return Tensor(np.zeros(shape))


def _vectorized_sample_shape(msg: Message) -> tuple:
    """Leading sample shape a latent draw must carry under vectorized replay.

    Inside a *sized* ``repro.nn.vectorized_samples`` context (the vectorized
    ELBO replays the model against a particle-stacked guide trace with
    ``sizes=(num_particles,)``) every latent site that actually executes is
    one the guide did not cover, so it must receive ``num_particles``
    independent prior draws stacked along the declared axes — a single shared
    draw would silently collapse the site's per-particle variability.  The
    batched draw consumes the RNG stream exactly like that many sequential
    per-particle draws of the same site (NumPy generators fill sample-shape
    batches from the stream in order).  Size-less contexts (plain batched
    forwards with no sample statements of their own) keep the default
    single-draw behaviour, as does an explicit caller-provided sample shape.

    One configuration is refused: a site whose distribution's own shape
    already *leads* with the declared particle sizes — e.g. its parameters
    were computed from a particle-stacked upstream latent, as in a
    hierarchical model whose parent the guide covers but whose child it does
    not.  Prepending the particle axes there would draw ``K x K`` values
    (silently wrong), while drawing plainly cannot be distinguished from a
    genuine batch axis that coincidentally equals ``num_particles``, so the
    estimator raises and points at the looped path instead.
    """
    sizes = _sample_sizes()
    if not sizes or any(size is None for size in sizes) or msg["args"] or msg["kwargs"]:
        return ()
    sizes = tuple(sizes)
    fn = msg["fn"]
    fn_shape = tuple(getattr(fn, "batch_shape", ())) + tuple(getattr(fn, "event_shape", ()))
    if fn_shape[:len(sizes)] == sizes:
        raise ValueError(
            f"cannot vectorize latent site {msg['name']!r}: its distribution's "
            f"shape {fn_shape} already leads with the active particle sizes "
            f"{sizes}, so a batched prior draw cannot tell a particle axis "
            "from a genuine batch axis (this happens when the site's "
            "parameters depend on a particle-stacked latent, or when a batch "
            "dimension coincidentally equals num_particles) — cover the site "
            "with the guide or use the looped estimator "
            "(vectorize_particles=False); "
            "`repro check-model` reports this configuration statically, "
            "before any training run")
    return sizes


def default_process_message(msg: Message) -> None:
    """Fill in ``msg['value']`` by actually sampling / fetching the parameter."""
    if msg["done"]:
        return
    if msg["value"] is None:
        if msg["type"] == "sample" and _SHAPE_ONLY:
            msg["value"] = _abstract_sample_value(msg)
        elif msg["type"] == "sample":
            fn = msg["fn"]
            sample_shape = _vectorized_sample_shape(msg)
            if sample_shape:
                if getattr(fn, "has_rsample", False):
                    msg["value"] = fn.rsample(sample_shape)
                else:
                    msg["value"] = fn.sample(sample_shape)
            elif getattr(fn, "has_rsample", False):
                msg["value"] = fn.rsample(*msg["args"], **msg["kwargs"])
            else:
                msg["value"] = fn.sample(*msg["args"], **msg["kwargs"])
        elif msg["type"] == "param":
            from ..params import get_param_store

            store = get_param_store()
            init_value, constraint = msg["args"]
            if init_value is None and msg["name"] not in store:
                raise ValueError(f"param {msg['name']!r} has no initial value and is not in the store")
            if msg["name"] in store:
                msg["value"] = store.get_param(msg["name"])
            else:
                msg["value"] = store.setdefault(msg["name"], init_value, constraint)
    msg["done"] = True


def apply_stack(msg: Message) -> Message:
    """Send ``msg`` through the active handlers and compute its value."""
    stack = _PYRO_STACK
    pointer = 0
    for pointer, messenger in enumerate(reversed(stack)):
        messenger.process_message(msg)
        if msg["stop"]:
            break
    default_process_message(msg)
    for messenger in stack[len(stack) - pointer - 1:]:
        messenger.postprocess_message(msg)
    return msg
