"""Resilience report rendering: findings, text/JSON, fail-on gate.

A sweep's raw output is per-scenario verdicts; what an operator (or a
CI pipeline) wants is the *resilience findings* distilled from them:

* ``base-broken`` — the property already fails with zero failures.
* ``single-point-of-failure`` — a minimal failing set of size 1: one
  link/node/interface/policy flip alone breaks the property.
* ``failure-set`` — a minimal failing set of size >= 2: the property
  survives any strict subset but breaks when these fail together.

They are :class:`repro.findings.Finding`s (category ``resilience``,
the failing ``elements`` and the ``property`` under ``properties``), so
they render to JSON and SARIF exactly as lint findings do; locations
point at the config file of the first device each failing element
touches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.findings import (
    Finding,
    Location,
    RuleInfo,
    Severity,
    render_rows,
)
from repro.sweep.engine import SweepResult

TOOL_NAME = "repro-sweep"

_BASE_BROKEN = RuleInfo(
    "base-broken", Severity.ERROR, "resilience",
    "The property fails on the unmodified snapshot",
)
_SPOF = RuleInfo(
    "single-point-of-failure", Severity.ERROR, "resilience",
    "A single failure element breaks the property",
)
_FAILURE_SET = RuleInfo(
    "failure-set", Severity.WARNING, "resilience",
    "A minimal combination of failure elements breaks the property",
)
RULES = (_BASE_BROKEN, _SPOF, _FAILURE_SET)
RULE_BASE_BROKEN, RULE_SPOF, RULE_FAILURE_SET = (r.rule_id for r in RULES)

#: --fail-on gate levels, weakest to strictest. They select by rule id
#: (a base-broken and a single point of failure are both errors), which
#: a severity threshold cannot express.
FAIL_ON_CHOICES = ("none", "base", "spof", "any")


def findings_from_result(
    result: SweepResult, host_to_file: Optional[Dict[str, str]] = None
) -> List[Finding]:
    """Distill a sweep result into resilience findings."""
    host_to_file = host_to_file or {}
    prop = result.prop.describe()
    if result.base_broken:
        return [
            _BASE_BROKEN.finding(
                f"property {prop} fails on the unmodified snapshot — "
                "no failure needed",
                elements=(),
                property=prop,
            )
        ]
    findings: List[Finding] = []
    for failing_set in result.minimal_failing_sets:
        # The anchor is the first hostname embedded in an element id
        # that names one of the snapshot's config files.
        host = next(
            (
                h
                for h in map(_host_of_element, failing_set)
                if h in host_to_file
            ),
            None,
        )
        if len(failing_set) == 1:
            rule = _SPOF
            message = (
                f"single point of failure: {failing_set[0]} alone "
                f"breaks {prop}"
            )
        else:
            rule = _FAILURE_SET
            message = (
                f"minimal failing set {{{', '.join(failing_set)}}} "
                f"breaks {prop} (every proper subset survives)"
            )
        findings.append(
            rule.finding(
                message,
                host or "",
                Location(host_to_file[host]) if host else Location(),
                elements=tuple(failing_set),
                property=prop,
            )
        )
    return findings


def _host_of_element(element_id: str) -> Optional[str]:
    """The first hostname embedded in a canonical element id."""
    kind, _sep, rest = element_id.partition(":")
    if not rest:
        return None
    if kind == "node":
        return rest
    # link:a[i]--b[j], iface:a[i], ospf-passive:a[i]
    return rest.split("[", 1)[0] or None


def gate_exit_code(findings: Sequence[Finding], fail_on: str) -> int:
    """The process exit code the --fail-on gate dictates."""
    if fail_on not in FAIL_ON_CHOICES:
        raise ValueError(
            f"unknown --fail-on level {fail_on!r} "
            f"(choose from {', '.join(FAIL_ON_CHOICES)})"
        )
    if fail_on == "none":
        return 0
    rules = {f.rule_id for f in findings}
    if fail_on == "base":
        return 1 if RULE_BASE_BROKEN in rules else 0
    if fail_on == "spof":
        return 1 if rules & {RULE_BASE_BROKEN, RULE_SPOF} else 0
    return 1 if findings else 0


# ----------------------------------------------------------------------
# Renderers


def render_text(
    result: SweepResult,
    findings: Sequence[Finding],
    verbose: bool = False,
) -> str:
    stats = result.stats
    lines: List[str] = []
    lines.append("== resilience sweep ==")
    lines.append(f"property        {result.prop.describe()}")
    lines.append(
        "base verdict    "
        + ("holds" if result.base_verdict.holds else "FAILS")
    )
    lines.append(
        f"scenarios       {stats.scenarios} over {stats.elements} elements "
        f"(k<={result.k}, kinds: {', '.join(result.kinds)})"
    )
    lines.append(
        f"evaluated       {stats.evaluated}  "
        f"pruned {stats.pruned} ({stats.pruned_fraction:.0%}: "
        f"{stats.pruned_cut} cut, {stats.pruned_duplicate} duplicate)"
    )
    if stats.truncated:
        lines.append(
            f"truncated       {stats.truncated} scenarios dropped by --limit"
        )
    lines.append(
        f"wall            {stats.wall_seconds:.2f}s "
        f"({stats.scenarios_per_second:.1f} scenarios/s)"
    )
    failing = result.failing()
    lines.append(
        f"verdicts        {len(result.outcomes) - len(failing)} hold, "
        f"{len(failing)} fail"
    )
    lines.append("")
    if not findings:
        lines.append(
            f"resilient: property survives every swept combination of "
            f"up to {result.k} failure(s)"
        )
    else:
        lines.append(f"{len(findings)} finding(s):")
        lines.extend(f"  {row}" for row in render_rows(findings))
    if verbose:
        lines.append("")
        lines.append("per-scenario verdicts:")
        for outcome in result.outcomes:
            verdict = "holds" if outcome.verdict.holds else "FAILS"
            extra = outcome.status
            if outcome.representative:
                extra += f" via {outcome.representative}"
            lines.append(
                f"  {verdict:6s} {outcome.scenario_id}  ({extra})"
            )
    return "\n".join(lines) + "\n"


def report_json(result: SweepResult, findings: Sequence[Finding]) -> Dict:
    """The sweep's wire shape: the result plus its distilled findings."""
    body = result.to_json()
    body["findings"] = [f.to_json() for f in findings]
    return body
