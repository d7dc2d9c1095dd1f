"""The findings spine: one located result type, one renderer, one gate.

Lesson 5 (§4.4): the analyses operators actually use are the ones whose
answers are located and consumable the same way every time. Lint rules,
resilience sweeps, the differential validators and the coverage gate all
produce the same thing — a :class:`Finding` pointing at a configuration
line — so the type, its text/JSON/SARIF renderings and the baseline
drift comparison live here, once, and every producer and command uses
them. This module is a leaf: it imports nothing from ``repro``.

SARIF (Static Analysis Results Interchange Format) 2.1.0 is what lets
findings ride existing tooling — code-review annotation, CI result
viewers. Drift against a committed baseline log counts new *and*
resolved findings, so the baseline stays an exact description of the
fleet.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple


class Severity(enum.IntEnum):
    """Ordered so that comparisons implement ``--fail-on`` thresholds."""

    NOTE = 1
    WARNING = 2
    ERROR = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{', '.join(s.label for s in cls)}"
            )


@dataclass(frozen=True)
class Location:
    """A (file, line) provenance pointer. ``line == 0`` means the
    structure has no recorded source position (synthetic or vendor
    structures without line tracking)."""

    file: str = ""
    line: int = 0

    def __str__(self) -> str:
        if not self.file:
            return "<unknown>"
        return f"{self.file}:{self.line}" if self.line else self.file

    def to_json(self) -> Dict[str, Any]:
        return {"file": self.file, "line": self.line}


@dataclass(frozen=True)
class Related:
    """A witness location: a second configuration line that explains the
    finding (e.g. the earlier ACL line shadowing this one)."""

    location: Location
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {"location": self.location.to_json(), "message": self.message}


@dataclass(frozen=True)
class Finding:
    """One located result, with provenance and optional witnesses."""

    rule_id: str
    severity: Severity
    category: str
    hostname: str
    message: str
    location: Location = Location()
    related: Tuple[Related, ...] = ()
    suppressed: bool = False
    #: Why the finding is suppressed ("" when not suppressed), e.g.
    #: "lint-disable at r1.cfg:3" or "lintconfig suppression".
    suppression: str = ""
    #: Per-producer extras as (key, value) pairs with hashable values
    #: (a sweep's failing ``elements``, a validator's ``network``).
    #: Carried into JSON and SARIF ``properties``; never part of a
    #: finding's identity.
    properties: Tuple[Tuple[str, Any], ...] = field(default=(), compare=False)

    def to_json(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "category": self.category,
            "node": self.hostname,
            "message": self.message,
            "location": self.location.to_json(),
        }
        if self.related:
            row["related"] = [r.to_json() for r in self.related]
        if self.suppressed:
            row["suppressed"] = True
            row["suppression"] = self.suppression
        if self.properties:
            row["properties"] = _properties_json(self.properties)
        return row


@dataclass(frozen=True)
class RuleInfo:
    """What a report says about a rule, whoever evaluates it."""

    rule_id: str
    severity: Severity
    category: str
    description: str

    def finding(
        self,
        message: str,
        hostname: str = "",
        location: Location = Location(),
        **properties: Any,
    ) -> Finding:
        """A finding of this rule, at the rule's default severity."""
        return Finding(
            self.rule_id,
            self.severity,
            self.category,
            hostname,
            message,
            location,
            properties=tuple(properties.items()),
        )


def _properties_json(
    properties: Sequence[Tuple[str, Any]]
) -> Dict[str, Any]:
    """Hashable property values (tuples) as their JSON shape (lists)."""

    def plain(value: Any) -> Any:
        if isinstance(value, tuple):
            return [plain(item) for item in value]
        return value

    return {key: plain(value) for key, value in properties}


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic presentation order: severity first, then rule,
    then location."""
    return sorted(
        findings,
        key=lambda f: (
            -int(f.severity),
            f.rule_id,
            f.hostname,
            f.location.file,
            f.location.line,
            f.message,
        ),
    )


def render_rows(findings: Sequence[Finding]) -> List[str]:
    """One text line per finding, witnesses indented beneath it."""
    lines: List[str] = []
    for finding in findings:
        mark = " (suppressed)" if finding.suppressed else ""
        lines.append(
            f"{finding.severity.label:7s} {finding.rule_id:28s} "
            f"{finding.hostname:12s} {finding.location}  "
            f"{finding.message}{mark}"
        )
        for rel in finding.related:
            lines.append(f"        ^ {rel.location}  {rel.message}")
    return lines


def write_output(text: str, out: Optional[str] = None) -> None:
    """Write a rendered report to ``out``, or to stdout without one."""
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# SARIF 2.1.0

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_VERSION = "1.0.0"


def _location_json(location: Location, message: str = "") -> Dict[str, Any]:
    physical: Dict[str, Any] = {
        "artifactLocation": {"uri": location.file or "<unknown>"}
    }
    if location.line:
        physical["region"] = {"startLine": location.line}
    entry: Dict[str, Any] = {"physicalLocation": physical}
    if message:
        entry["message"] = {"text": message}
    return entry


def to_sarif(
    tool: str,
    rules: Sequence[RuleInfo],
    findings: Sequence[Finding],
    run_properties: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Render findings as a single-run SARIF 2.1.0 log for ``tool``."""
    rule_index = {rule.rule_id: i for i, rule in enumerate(rules)}
    rule_metadata = [
        {
            "id": rule.rule_id,
            "name": rule.rule_id.replace("-", " ").title().replace(" ", ""),
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": rule.severity.label},
            "properties": {"category": rule.category},
        }
        for rule in rules
    ]
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule_id,
            "level": finding.severity.label,
            "message": {"text": finding.message},
            "locations": [_location_json(finding.location)],
            "properties": {
                "node": finding.hostname,
                "category": finding.category,
                **_properties_json(finding.properties),
            },
        }
        if finding.rule_id in rule_index:
            result["ruleIndex"] = rule_index[finding.rule_id]
        if finding.related:
            result["relatedLocations"] = [
                _location_json(rel.location, rel.message)
                for rel in finding.related
            ]
        if finding.suppressed:
            kind = (
                "inSource"
                if finding.suppression.startswith("lint-disable")
                else "external"
            )
            result["suppressions"] = [
                {"kind": kind, "justification": finding.suppression}
            ]
        results.append(result)
    run: Dict[str, Any] = {
        "tool": {
            "driver": {
                "name": tool,
                "version": TOOL_VERSION,
                "informationUri": "https://github.com/batfish/batfish",
                "rules": rule_metadata,
            }
        },
        "results": results,
    }
    if run_properties:
        run["properties"] = run_properties
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}


# ----------------------------------------------------------------------
# Baseline drift

ResultKey = Tuple[str, str, int, str]


def result_keys(sarif_log: Dict[str, Any]) -> Set[ResultKey]:
    """Normalize a SARIF log to comparable result keys. Suppressed
    results are excluded — suppressing a finding in-source resolves it
    from the baseline's point of view."""
    keys: Set[ResultKey] = set()
    for run in sarif_log.get("runs", []):
        for result in run.get("results", []):
            if result.get("suppressions"):
                continue
            locations = result.get("locations") or [{}]
            physical = locations[0].get("physicalLocation", {})
            uri = physical.get("artifactLocation", {}).get("uri", "")
            line = physical.get("region", {}).get("startLine", 0)
            keys.add(
                (
                    result.get("ruleId", ""),
                    uri,
                    line,
                    result.get("message", {}).get("text", ""),
                )
            )
    return keys


def compare_to_baseline(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Tuple[List[ResultKey], List[ResultKey]]:
    """Return (new, resolved) result keys, each sorted."""
    current_keys = result_keys(current)
    baseline_keys = result_keys(baseline)
    return (
        sorted(current_keys - baseline_keys),
        sorted(baseline_keys - current_keys),
    )
