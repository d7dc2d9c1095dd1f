"""Core data model for the lint framework.

Lesson 5: the most-used Batfish analyses are the simple, local ones —
undefined references, unreachable ACL lines, incompatible BGP sessions —
because their findings localize to a file and line the operator can fix
immediately. Everything in this package therefore carries *provenance*:
a :class:`~repro.findings.Finding` points at the configuration line that
produced it, plus related locations (witnesses) explaining *why*. The
finding types are the repo-wide ones of :mod:`repro.findings`; this
module adds the per-run rule configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.findings import Finding, Severity
from repro.lint.registry import all_rules

_CONFIG_KEYS = {"rules", "disable", "severity", "suppress"}


@dataclass
class LintConfig:
    """Per-run rule configuration (the ``lintconfig`` dict of the API).

    * ``rules`` — when non-None, only these rule ids run.
    * ``disable`` — rule ids excluded from the run.
    * ``severity`` — per-rule severity overrides.
    * ``suppress`` — (rule-or-*, hostname-or-*) pairs; matching findings
      are kept but marked suppressed (SARIF ``suppressions``).
    """

    rules: Optional[Set[str]] = None
    disable: Set[str] = field(default_factory=set)
    severity: Dict[str, Severity] = field(default_factory=dict)
    suppress: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: Optional[Dict]) -> "LintConfig":
        """``ValueError`` / ``TypeError`` on anything but that shape, or
        on a rule id in ``rules``, ``disable`` or ``severity`` that
        :func:`~repro.lint.registry.all_rules` does not declare."""
        if raw is None:
            return cls()
        if not isinstance(raw, dict):
            raise ValueError(f"must be an object: {raw!r}")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(
                f"unknown lintconfig keys: {sorted(unknown)}; "
                f"expected {sorted(_CONFIG_KEYS)}"
            )
        # A misspelt id would silently select or silence nothing.
        known = {rule.rule_id for rule in all_rules()}
        for key in ("rules", "disable", "severity"):
            unknown = set(raw.get(key) or ()) - known
            if unknown:
                raise ValueError(
                    f"unknown rule id(s) in {key}: "
                    f"{', '.join(sorted(map(str, unknown)))} "
                    f"(known: {', '.join(sorted(known))})"
                )
        rules = raw.get("rules")
        severity = {
            rule: Severity.from_name(level)
            for rule, level in dict(raw.get("severity") or {}).items()
        }
        suppress: List[Tuple[str, str]] = []
        for entry in raw.get("suppress") or []:
            if isinstance(entry, str):
                suppress.append((entry, "*"))
            elif isinstance(entry, dict):
                suppress.append(
                    (entry.get("rule", "*"), entry.get("node", "*"))
                )
            else:
                raise ValueError(f"suppress entries are ids or objects: {entry!r}")
        return cls(
            rules=set(rules) if rules is not None else None,
            disable=set(raw.get("disable") or ()),
            severity=severity,
            suppress=suppress,
        )

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disable:
            return False
        return self.rules is None or rule_id in self.rules

    def suppresses(self, finding: Finding) -> bool:
        for rule, node in self.suppress:
            if rule in ("*", finding.rule_id) and node in ("*", finding.hostname):
                return True
        return False
