"""Custom AST lint pass: rule framework plus the REP001–REP006 rules.

Run as ``python -m repro.devtools.lint [paths...]`` or ``make lint``;
see :mod:`repro.devtools.lint.rules` for the rule catalogue and
:mod:`repro.devtools.lint.engine` for the framework (suppressions with
``# repro: noqa[REPxxx] reason``, JSON output, CI exit codes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.devtools.lint.cli import main
    from repro.devtools.lint.engine import (
        LintReport,
        ModuleContext,
        Rule,
        Violation,
        lint_paths,
        lint_source,
    )
    from repro.devtools.lint.rules import DEFAULT_RULES, rule_table

__all__ = [
    "DEFAULT_RULES",
    "LintReport",
    "ModuleContext",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_source",
    "main",
    "rule_table",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.devtools.lint.cli": ("main",),
        "repro.devtools.lint.engine": (
            "LintReport", "ModuleContext", "Rule", "Violation", "lint_paths", "lint_source",
        ),
        "repro.devtools.lint.rules": ("DEFAULT_RULES", "rule_table"),
    },
)
