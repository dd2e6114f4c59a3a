"""Project-specific static analysis (``repro lint``).

AST checkers that mechanically enforce the invariants the architecture
docs pin in prose: lock discipline in the serving tier, the
fsync-then-atomic-rename durability protocol, snapshot binary-layout
geometry, policy purity, and exception hygiene.  See
``docs/analysis.md`` for the rule catalogue and the suppression/baseline
workflow.
"""

from .framework import (
    Baseline,
    Checker,
    Finding,
    LintReport,
    Rule,
    render_json,
    render_text,
    rules_catalog,
    run_lint,
)

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "LintReport",
    "Rule",
    "render_json",
    "render_text",
    "rules_catalog",
    "run_lint",
]
