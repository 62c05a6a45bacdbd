"""The shipped tree must satisfy its own linter (the repo eats its own dog food)."""

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def _format_all(findings):
    return "\n".join(f.format() for f in findings)


def test_gate_applies_every_rule():
    assert len(all_rules()) == 10


def test_shipped_src_is_lint_clean():
    findings = lint_paths([REPO_ROOT / "src" / "repro"])
    assert findings == [], f"src/repro has lint findings:\n{_format_all(findings)}"


@pytest.mark.parametrize("tree", ["tests", "benchmarks", "examples"])
def test_support_trees_are_lint_clean(tree):
    path = REPO_ROOT / tree
    if not path.exists():
        pytest.skip(f"no {tree}/ directory")
    findings = lint_paths([path])
    assert findings == [], f"{tree}/ has lint findings:\n{_format_all(findings)}"
