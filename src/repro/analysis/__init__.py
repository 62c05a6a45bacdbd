"""Static correctness tooling for the reproduction (``repro check``).

Two complementary passes, both purely static (no experiment is trained):

``repro.analysis.lint`` — an AST lint engine with repo-specific rules
    (R001-R010) catching the defect classes that previous PRs could only fix
    *after* a runtime path exposed them: RNG draws that escape
    ``repro.ppl.rng.set_rng_seed``, duplicate / dynamically-formatted sample
    sites, eager ``.data`` materialization in lazy-graph hot paths, runners
    that never seed, sized-context violations of the vectorized engine,
    silent exception swallowing, blocking calls in async handlers, numpy
    kernel calls in ``repro/nn`` that bypass the ``repro.nn.backends``
    kernel module, backward closures that read their own output tensor
    (a reference cycle), and in-place writes into shared ``.grad`` arrays.
    Run it as ``repro lint [paths]``; suppress single findings with a
    trailing ``# repro: noqa[R001]`` comment or a whole file with the same
    directive on a comment-only line.

``repro.analysis.validate`` — a static model/guide validator built on the
    shape-only tracing mode of the poutine runtime (sites record their
    distribution and shapes but draw no values and consume no RNG).  It
    reports guide-uncovered sites, model/guide shape mismatches and the
    particle-size collision that the vectorized replay otherwise refuses at
    runtime.  Run it as ``repro check-model <experiment-id>`` or through
    :func:`repro.analysis.validate`.
"""

from .findings import ERROR, WARNING, Finding
from .linter import iter_python_files, lint_file, lint_paths
from .rules import FileContext, LintRule, all_rules, get_rule, register_rule
from .validate import (ModelGuideReport, ValidationFinding, ValidationTarget,
                       validate)

# importing the module registers the built-in rules with the framework
from . import lint_rules as _lint_rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "FileContext",
    "LintRule",
    "all_rules",
    "get_rule",
    "register_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "ModelGuideReport",
    "ValidationFinding",
    "ValidationTarget",
    "validate",
]
