"""The built-in repo-specific lint rules (R001-R010).

Each rule targets a defect class that a previous PR had to fix *after* a
runtime path exposed it; the rules make the next instance a static finding.
Importing this module registers every rule with the plugin framework in
:mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .findings import ERROR, WARNING, Finding
from .rules import (FileContext, LintRule, attr_chain, register_rule,
                    scope_statements)

__all__ = ["RngDisciplineRule", "SampleSiteNameRule", "EagerMaterializationRule",
           "SeedBeforeSamplingRule", "SizedVectorizedContextRule",
           "SilentExceptionSwallowRule", "AsyncBlockingCallRule",
           "BackendBypassRule", "BackwardClosureCycleRule", "InPlaceGradWriteRule"]

_NUMPY_ALIASES = ("np", "numpy")

#: legacy global-state samplers of ``np.random`` (module-level functions that
#: draw from the hidden global ``RandomState``, invisible to ``set_rng_seed``)
_LEGACY_SAMPLERS = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "normal", "uniform", "randint", "random_integers", "choice", "shuffle",
    "permutation", "standard_normal", "binomial", "poisson", "beta", "gamma",
    "exponential", "multivariate_normal", "laplace", "lognormal", "dirichlet",
})


@register_rule
class RngDisciplineRule(LintRule):
    """R001: stochastic code must draw from ``repro.ppl.rng.get_rng()``.

    A bare ``np.random.default_rng()`` (no seed argument) and any legacy
    ``np.random.<sampler>`` call draw entropy that silently escapes
    ``repro.ppl.rng.set_rng_seed`` — the exact defect class fixed for
    ``nn/init.py``, ``nn/tensor.py``, ``nn/functional.py`` and ``nn/data.py``
    in this PR.  Seeded ``np.random.default_rng(seed)`` construction stays
    legal (it is deterministic), and ``rng.py`` itself — the module that owns
    the global generator — is exempt.
    """

    rule_id = "R001"
    severity = ERROR
    autofixable = True  # mechanical rewrite to repro.ppl.rng.get_rng()
    description = ("stochastic fallback escapes set_rng_seed: use "
                   "repro.ppl.rng.get_rng(), not bare np.random.default_rng() "
                   "or legacy np.random.<sampler> calls")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.name == "rng.py":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if len(chain) != 3 or chain[0] not in _NUMPY_ALIASES or chain[1] != "random":
                continue
            if chain[2] == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "bare np.random.default_rng() draws fresh OS entropy that "
                    "set_rng_seed cannot govern; fall back to "
                    "repro.ppl.rng.get_rng() (or take a seeded generator)")
            elif chain[2] in _LEGACY_SAMPLERS:
                yield self.finding(
                    ctx, node,
                    f"legacy np.random.{chain[2]}() uses the hidden global "
                    "RandomState, invisible to repro.ppl.rng.set_rng_seed; "
                    "draw from repro.ppl.rng.get_rng() instead")


_SITE_PRIMITIVES = frozenset({"sample", "param", "deterministic"})


def _is_formatted_string(node: ast.AST) -> bool:
    """True for f-strings, ``%``/``+`` string composition and ``str.format``."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.Add)):
        return any(_is_string_literal(side) or _is_formatted_string(side)
                   for side in (node.left, node.right))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "format" and (_is_string_literal(node.func.value)
                                           or _is_formatted_string(node.func.value)):
            return True
    return False


def _is_string_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


@register_rule
class SampleSiteNameRule(LintRule):
    """R002: site names must be unique literals within one model function.

    Two ``sample``/``param`` statements with the same literal name inside one
    function collide in the trace (``Trace.add_node`` raises at runtime);
    dynamically-formatted names (f-strings, ``%``/``+`` composition,
    ``str.format``) defeat both this check and guide/site matching, so they
    are flagged too.  Plain variable names (e.g. a loop over
    ``param_dists.items()``) are deliberate framework idiom and stay legal.
    """

    rule_id = "R002"
    severity = ERROR
    description = ("duplicate or dynamically-formatted sample/param site name "
                   "within one model function")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        functions = [node for node in ast.walk(ctx.tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in functions:
            seen: Dict[str, int] = {}
            for node in scope_statements(fn):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                chain = attr_chain(node.func)
                if not chain or chain[-1] not in _SITE_PRIMITIVES:
                    continue
                name_arg = node.args[0]
                if _is_string_literal(name_arg):
                    site = name_arg.value
                    if site in seen:
                        yield self.finding(
                            ctx, node,
                            f"site name {site!r} is used by more than one "
                            f"{chain[-1]} statement in {fn.name!r} (first use at "
                            f"line {seen[site]}); duplicate names collide in "
                            "the execution trace")
                    else:
                        seen[site] = node.lineno
                elif _is_formatted_string(name_arg):
                    yield self.finding(
                        ctx, node,
                        f"dynamically-formatted {chain[-1]} site name in "
                        f"{fn.name!r}: formatted names defeat static "
                        "duplicate/coverage checking — use a literal, or pass "
                        "a pre-built variable and suppress with "
                        "# repro: noqa[R002] where the formatting is deliberate")


_HOT_PACKAGES = frozenset({"nn", "ppl", "render"})
_MATERIALIZERS = frozenset({"asarray", "array"})


def _in_hot_package(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    for index, part in enumerate(parts):
        if part == "repro" and set(parts[index + 1:]) & _HOT_PACKAGES:
            return True
    return False


@register_rule
class EagerMaterializationRule(LintRule):
    """R003: no eager ``.data`` / ``np.asarray`` materialization in hot paths.

    Inside ``repro/nn``, ``repro/ppl`` and ``repro/render`` — the packages the
    lazy-graph ROADMAP item will rebuild around deferred op graphs —
    materializing a *freshly computed* value (``f(...).data``,
    ``np.asarray(f(...))``, ``f(...).numpy()``) forces evaluation at that op
    and severs the autograd/op-graph chain.  Reading ``.data`` from a bound
    name (exports, I/O boundaries) stays legal; the rule only fires on call
    results, where the intermediate graph is discarded before anything else
    can see it.  ``.numpy()`` on a call result is additionally exempt inside
    ``return`` statements — a returned array is a leaf leaving the hot path,
    not an intermediate that silently breaks fusion.
    Files outside the three hot-path packages are exempt.
    """

    rule_id = "R003"
    severity = WARNING
    description = ("eager .data / np.asarray / .numpy() materialization of a "
                   "freshly computed value inside a repro/nn|ppl|render hot "
                   "path")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_hot_package(ctx):
            return
        in_return = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Return) and node.value is not None:
                for child in ast.walk(node.value):
                    in_return.add(id(child))
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and not node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "numpy"
                    and isinstance(node.func.value, ast.Call)
                    and id(node) not in in_return):
                yield self.finding(
                    ctx, node,
                    ".numpy() on an intermediate call result forces "
                    "realization mid-chain and silently breaks elementwise "
                    "fusion; bind the tensor and realize it at the boundary "
                    "(or return it) instead")
                continue
            if (isinstance(node, ast.Attribute) and node.attr == "data"
                    and isinstance(node.value, ast.Call)):
                yield self.finding(
                    ctx, node,
                    ".data on a call result materializes the value eagerly and "
                    "discards its op graph; bind the tensor first (or keep the "
                    "computation in Tensor ops) so the lazy-graph engine can "
                    "defer it")
            elif isinstance(node, ast.Call) and node.args:
                chain = attr_chain(node.func)
                if (len(chain) == 2 and chain[0] in _NUMPY_ALIASES
                        and chain[1] in _MATERIALIZERS
                        and isinstance(node.args[0], ast.Call)):
                    yield self.finding(
                        ctx, node,
                        f"np.{chain[1]}() on a call result materializes the "
                        "value eagerly in a hot path; bind it first or stay in "
                        "Tensor ops")


def _module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _is_register_decorator(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return attr_chain(node)[-1:] == ("register",)


def _calls_seed_all(fn: ast.AST) -> bool:
    for node in scope_statements(fn):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain[-1:] == ("seed_all",):
                return True
    return False


def _called_module_functions(fn: ast.AST, functions: Dict[str, ast.FunctionDef]
                             ) -> Set[str]:
    # any Load of a module-level function name counts as a potential call —
    # runners dispatch through partial(...) tables, so direct Name calls alone
    # would miss the real call graph
    called: Set[str] = set()
    for node in scope_statements(fn):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in functions):
            called.add(node.id)
    return called


@register_rule
class SeedBeforeSamplingRule(LintRule):
    """R004: registered experiment runners must call ``config.seed_all()``.

    A runner registered with ``@register(...)`` that never reaches a
    ``seed_all()`` call (directly or through same-module helper functions)
    produces artifacts whose RNG stream depends on whatever ran before it —
    the registry's determinism contract is broken silently.  The check is the
    static approximation "``seed_all`` is reachable in the runner's
    same-module call graph"; cross-module delegation should go through a
    helper that seeds first.
    """

    rule_id = "R004"
    severity = ERROR
    description = ("experiment runner registered via @register never calls "
                   "config.seed_all() (directly or via same-module helpers)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        functions = _module_functions(ctx.tree)
        for fn in functions.values():
            if not any(_is_register_decorator(d) for d in fn.decorator_list):
                continue
            visited: Set[str] = set()
            frontier: List[str] = [fn.name]
            seeded = False
            while frontier and not seeded:
                name = frontier.pop()
                if name in visited:
                    continue
                visited.add(name)
                node = functions[name]
                if _calls_seed_all(node):
                    seeded = True
                    break
                frontier.extend(_called_module_functions(node, functions) - visited)
            if not seeded:
                yield self.finding(
                    ctx, fn,
                    f"registered runner {fn.name!r} never calls "
                    "config.seed_all(): its RNG stream (and artifact) depends "
                    "on whatever executed before it")


def _has_sizes(call: ast.Call) -> bool:
    if len(call.args) >= 2:
        return True
    for keyword in call.keywords:
        if keyword.arg == "sizes":
            return not (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is None)
    return False


def _body_has_sample_call(body: List[ast.AST]) -> Optional[ast.Call]:
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call) and attr_chain(node.func)[-1:] == ("sample",):
            return node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return None


@register_rule
class SizedVectorizedContextRule(LintRule):
    """R005: ``vectorized_samples`` contexts with sampling must declare sizes.

    A ``sample`` statement executing inside a size-less
    ``vectorized_samples`` context draws *one* value silently shared by every
    particle — the PR-5 bug class.  Whenever the lexical body of the ``with``
    block contains a sample call, the context must declare its axis sizes
    (``vectorized_samples(1, sizes=(K,))``) so the runtime can stack one
    independent draw per particle.
    """

    rule_id = "R005"
    severity = ERROR
    description = ("vectorized_samples context whose body samples must declare "
                   "axis sizes (sizes=...) so draws stack per particle")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                if attr_chain(call.func)[-1:] != ("vectorized_samples",):
                    continue
                if _has_sizes(call):
                    continue
                sample_call = _body_has_sample_call(node.body)
                if sample_call is not None:
                    yield self.finding(
                        ctx, call,
                        "size-less vectorized_samples context contains a "
                        f"sample call (line {sample_call.lineno}): every "
                        "particle would share one draw — declare "
                        "sizes=(num_particles,) (or hoist the sampling out of "
                        "the context)")


_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_handler_label(handler: ast.ExceptHandler) -> Optional[str]:
    """``"except:"``-style label when the handler catches (near-)everything."""
    if handler.type is None:
        return "bare except:"
    exceptions = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                  else [handler.type])
    for node in exceptions:
        name = attr_chain(node)[-1:]
        if name and name[0] in _BROAD_EXCEPTIONS:
            return f"except {name[0]}"
    return None


def _is_silent_body(body: List[ast.stmt]) -> bool:
    """True when the handler body does nothing with the exception."""
    return all(isinstance(stmt, (ast.Pass, ast.Continue))
               or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
               for stmt in body)


@register_rule
class SilentExceptionSwallowRule(LintRule):
    """R006: no silently-swallowing broad exception handlers in ``repro``.

    A ``bare except:`` / ``except Exception:`` / ``except BaseException:``
    whose body is only ``pass``/``continue``/a constant hides *every* failure
    mode at once — including the crash/timeout/corruption classes the
    execution engine exists to surface, classify and retry.  Exactly this
    pattern turns a worker's real defect into a silent wrong result.  Narrow
    handlers (``except FileNotFoundError: pass``) stay legal: they document
    the one expected failure.  Deliberate broad swallows (e.g. best-effort
    cleanup) must say so with ``# repro: noqa[R006]``.  Files outside the
    ``repro`` package are exempt.
    """

    rule_id = "R006"
    severity = ERROR
    description = ("bare/broad except handler silently swallows all failures "
                   "(pass/continue body); catch the specific exception or "
                   "handle it")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "repro" not in ctx.path.parts:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = _broad_handler_label(node)
            if label is None or not _is_silent_body(node.body):
                continue
            yield self.finding(
                ctx, node,
                f"{label} with a pass/continue body swallows every failure "
                "silently — crashes, timeouts and corruption included; catch "
                "the specific exception, or mark deliberate best-effort "
                "cleanup with # repro: noqa[R006]")


#: event-loop-blocking attribute calls: sync path/file I/O plus tensor
#: realization (``.numpy()`` may force a full lazy-graph evaluation)
_BLOCKING_METHODS = frozenset({"read_text", "write_text", "read_bytes",
                               "write_bytes", "numpy"})


def _in_serve_package(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    for index, part in enumerate(parts):
        if part == "repro" and "serve" in parts[index + 1:]:
            return True
    return False


@register_rule
class AsyncBlockingCallRule(LintRule):
    """R007: no blocking calls inside ``async def`` bodies under ``repro/serve``.

    The serving layer coalesces requests on a single asyncio event loop; one
    blocking call inside an ``async def`` — ``time.sleep``, synchronous file
    I/O (``open``, ``Path.read_text``-family) or ``.numpy()`` realization of
    an unrealized tensor — stalls *every* in-flight request for its full
    duration, which is precisely the tail-latency defect the micro-batching
    benchmark gates against.  Sleep via ``await asyncio.sleep``, do file I/O
    before the loop starts (or in ``run_in_executor``), and realize tensors
    in the batcher's executor.  Nested synchronous ``def`` helpers are exempt
    (they run wherever they are called from); deliberate cases take
    ``# repro: noqa[R007]``.  Files outside ``repro/serve`` are exempt.
    """

    rule_id = "R007"
    severity = ERROR
    description = ("blocking call (time.sleep / sync file I/O / .numpy()) "
                   "inside an async def under repro/serve stalls the event "
                   "loop for every in-flight request")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_serve_package(ctx):
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in scope_statements(fn):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if chain == ("time", "sleep"):
                    yield self.finding(
                        ctx, node,
                        f"time.sleep() inside async {fn.name!r} blocks the "
                        "event loop (and every coalesced request) — use "
                        "await asyncio.sleep()")
                elif chain == ("open",):
                    yield self.finding(
                        ctx, node,
                        f"synchronous open() inside async {fn.name!r} blocks "
                        "the event loop — load files before serving starts, "
                        "or run the I/O in an executor")
                elif (len(chain) >= 2 and chain[-1] in _BLOCKING_METHODS):
                    what = ("tensor realization" if chain[-1] == "numpy"
                            else "synchronous file I/O")
                    yield self.finding(
                        ctx, node,
                        f".{chain[-1]}() inside async {fn.name!r} is {what} "
                        "on the event loop — every in-flight request stalls "
                        "behind it; move it to the batcher's executor (or "
                        "before the loop starts)")


#: numpy functions with a route through the kernel module — the elementwise
#: table (ufuncs), the kernel entry points (matmul/reductions/cumsum) and
#: their common aliases.  Deliberately *not* listed: allocation
#: (np.empty/zeros), movement (np.transpose/reshape/flip), indexing helpers
#: (np.unravel_index, np.add.at) and dtype machinery — those are not kernels.
_BACKEND_KERNELS = frozenset({
    # linear algebra / scans
    "matmul", "einsum", "dot", "tensordot", "cumsum",
    # reductions
    "sum", "mean", "amax", "amin", "max", "min",
    # elementwise ufuncs mirrored by NumpyKernels.elementwise
    "add", "subtract", "multiply", "divide", "true_divide", "negative",
    "absolute", "exp", "log", "log1p", "sqrt", "tanh", "sin", "cos",
    "logaddexp", "maximum", "minimum", "power", "clip",
})


def _in_nn_outside_kernel_module(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    for index, part in enumerate(parts):
        if (part == "repro" and parts[index + 1:index + 2] == ("nn",)
                and parts[index + 2:] != ("backends.py",)):
            return True
    return False


@register_rule
class BackendBypassRule(LintRule):
    """R008: kernel-shaped ``np.*`` calls in ``repro/nn`` bypass the kernel module.

    ``repro.nn`` runs every compute kernel — the elementwise table, matmul,
    im2col/pooling windowing, reductions, cumsum — through the one kernel
    module, ``repro.nn.backends`` (``get_backend().<kernel>`` or
    ``lazy.compute_eager``).  That module is the single place to profile
    kernels (a tracer wraps its methods) and to optimize them.  A direct
    ``np.exp(...)``/``np.matmul(...)``/``np.lib.stride_tricks.as_strided(...)``
    call elsewhere in ``repro/nn`` computes the same numbers, which is why
    only a static rule catches it: the op silently drops out of kernel
    profiles and out of kernel-level optimizations.  ``repro/nn/backends.py``
    itself is exempt (it *is* the kernel module), as is everything outside
    ``repro/nn``; scalar math belongs to ``math.*`` and deliberate escapes
    take ``# repro: noqa[R008]``.
    """

    rule_id = "R008"
    severity = WARNING
    description = ("direct np.* kernel call (ufunc compute / matmul / "
                   "reduction / cumsum / stride_tricks) inside repro/nn "
                   "bypasses the repro.nn.backends kernel module")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_nn_outside_kernel_module(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if (len(chain) == 2 and chain[0] in _NUMPY_ALIASES
                    and chain[1] in _BACKEND_KERNELS):
                yield self.finding(
                    ctx, node,
                    f"np.{chain[1]}() is a compute kernel; call it through "
                    "repro.nn.backends (get_backend() or lazy.compute_eager) "
                    "so kernel profiles and optimizations see it")
            elif (chain[-2:] == ("stride_tricks", "as_strided")
                  and chain[0] in _NUMPY_ALIASES) or chain == ("as_strided",):
                yield self.finding(
                    ctx, node,
                    "as_strided windowing is kernel layout work; use the "
                    "kernel module's im2col/pooling entry points")


def _in_nn_or_ppl(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    return any(part == "repro" and parts[index + 1:index + 2] in (("nn",), ("ppl",))
               for index, part in enumerate(parts))


def _closure_reads(closure: ast.AST, owner: Tuple[str, ...]) -> Iterator[ast.Attribute]:
    """``owner.grad`` / ``owner.data`` loads inside a backward closure's body."""
    for node in ast.walk(closure):
        if (isinstance(node, ast.Attribute) and node.attr in ("grad", "data")
                and isinstance(node.ctx, ast.Load)
                and attr_chain(node.value) == owner):
            yield node


@register_rule
class BackwardClosureCycleRule(LintRule):
    """R009: a backward closure must not read its own output tensor.

    ``out._backward = fn`` where ``fn`` reads ``out.grad`` or ``out.data``
    makes ``out`` -> closure -> cell -> ``out`` a reference cycle, so the
    whole autograd graph outlives its root until the cyclic garbage collector
    runs — the defect that let dead training graphs pile up to gigabytes of
    RSS.  The closure receives its output's gradient as its argument
    (``_backward(grad)``); an output value it needs is bound to a local array
    before the closure is defined.  Applies to ``def`` closures and lambdas in
    ``repro/nn`` and ``repro/ppl``; deliberate cases take
    ``# repro: noqa[R009]``.
    """

    rule_id = "R009"
    severity = ERROR
    description = ("function assigned to X._backward reads X.grad or X.data: "
                   "the tape gains a reference cycle and is freed only by the "
                   "cyclic GC")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_nn_or_ppl(ctx):
            return
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            statements = list(scope_statements(scope))
            local_defs = {node.name: node for node in statements
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for node in statements:
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute) and target.attr == "_backward"):
                        continue
                    owner = attr_chain(target.value)
                    closure = (node.value if isinstance(node.value, ast.Lambda)
                               else local_defs.get(getattr(node.value, "id", None)))
                    if not owner or closure is None:
                        continue
                    for read in _closure_reads(closure, owner):
                        name = ".".join(owner)
                        yield self.finding(
                            ctx, read,
                            f"backward closure assigned to {name}._backward "
                            f"reads {name}.{read.attr}: {name} -> closure -> "
                            f"{name} is a reference cycle, so the graph waits "
                            "for the cyclic GC; take the gradient as the "
                            "closure's argument and bind output values to a "
                            "local before defining it")


def _grad_write_target(node: ast.AST) -> Optional[ast.Attribute]:
    """The ``X.grad`` a write through ``node`` lands in: ``X.grad`` itself
    or any subscript of it (``X.grad[i]``, ``X.grad[i][j]``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr == "grad":
        return node
    return None


def _unpack_targets(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Leaf targets of (possibly nested tuple/list/starred) assignments."""
    for node in nodes:
        if isinstance(node, (ast.Tuple, ast.List)):
            yield from _unpack_targets(node.elts)
        elif isinstance(node, ast.Starred):
            yield from _unpack_targets([node.value])
        else:
            yield node


@register_rule
class InPlaceGradWriteRule(LintRule):
    """R010: no in-place writes into a ``.grad`` array in ``repro``.

    ``Tensor._accumulate`` stores a tensor's first gradient contribution
    without copying it, so one array can be the ``.grad`` of two tensors at
    once (``a + a``), a view of an upstream gradient (the ``reshape`` and
    ``transpose`` backwards) or a read-only broadcast (the ``sum``
    backward).  Later contributions rebind (``self.grad = self.grad +
    grad``).  An in-place write — ``p.grad += g``, ``p.grad[i] = v``,
    ``np.multiply(p.grad, s, out=p.grad)`` — would silently change every
    other gradient sharing that memory, so only a static rule catches it.
    Rebind instead.  Files outside the ``repro`` package are exempt;
    deliberate cases take ``# repro: noqa[R010]``.
    """

    rule_id = "R010"
    severity = ERROR
    description = ("in-place write into X.grad (augmented assignment, "
                   "subscript assignment or out=): gradient arrays are stored "
                   "without a copy and may be shared")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "repro" not in ctx.path.parts:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign):
                how, targets = "augmented assignment to", [node.target]
            elif isinstance(node, ast.Assign):
                how = "subscript assignment into"
                targets = [t for t in _unpack_targets(node.targets)
                           if isinstance(t, ast.Subscript)]
            elif isinstance(node, ast.Call):
                how = "out= aimed at"
                targets = list(_unpack_targets(kw.value for kw in node.keywords
                                               if kw.arg == "out"))
            else:
                continue
            for target in targets:
                grad = _grad_write_target(target)
                if grad is None:
                    continue
                name = ".".join(attr_chain(grad)) or "X.grad"
                yield self.finding(
                    ctx, target,
                    f"{how} {name} writes a gradient array in place; the first "
                    "gradient is stored without a copy and may be shared with "
                    f"other tensors, so rebind instead ({name} = {name} + g)")
