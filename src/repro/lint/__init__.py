"""Semantic configuration lint engine (Lesson 5).

The most-used Batfish analyses are not the deep dataplane questions but
the simple, local checks whose findings point at a file and line:
undefined references, unreachable ACL lines, half-open BGP sessions.
This package packages those checks as a pluggable rule framework:

* :mod:`repro.findings` — Severity / Location / Finding, their
  text/JSON/SARIF renderings and baseline diffing (shared repo-wide)
* :mod:`repro.lint.model` — LintConfig
* :mod:`repro.lint.registry` — ``@rule`` decorator and rule discovery
* :mod:`repro.lint.rules_semantic` — BDD-backed reachability rules
* :mod:`repro.lint.rules_cross` — cross-device compatibility rules
* :mod:`repro.lint.rules_hygiene` — reference/usage/address hygiene
* :mod:`repro.lint.dataflow` — the propagation fixpoint and its rules
* :mod:`repro.lint.runner` — the rules' inputs (``LintStage``), inline
  execution in registry order, timing, suppression
* ``python -m repro lint`` — the CLI

Suppression works at three levels: in-source ``lint-disable`` comments
(captured by the parsers into ``Device.lint_suppressions``), lintconfig
``suppress`` entries, and rule enable/disable sets.
"""

from repro.findings import (
    Finding,
    Location,
    Related,
    Severity,
    sort_findings,
)
from repro.lint.model import LintConfig
from repro.lint.registry import Rule, all_rules, get_rule, rule
from repro.lint.runner import LintReport, LintStage, lint_snapshot

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "LintStage",
    "Location",
    "Related",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_snapshot",
    "rule",
    "sort_findings",
]
