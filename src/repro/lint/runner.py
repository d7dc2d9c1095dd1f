"""Lint runner: executes registered rules over a snapshot, in parallel,
with per-rule timing, suppression handling, and metrics.

Rules are independent, so they parallelize trivially with
``repro.parallel.pmap`` (fork-based; each worker gets a copy-on-write
view of the snapshot and builds its own BDD engines). Timing and
finding counts land in the ``repro.obs`` metrics registry
unconditionally — the service ``/metrics`` endpoint then shows
``lint.findings.<rule>`` counters without tracing enabled. A lint run
opens no coverage scope of its own: it is one run of whatever scope
its caller opened, and the rules' touches on pmap workers come back
into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.config.model import Snapshot
from repro.findings import Finding, Severity, sort_findings
from repro.lint.model import LintConfig
from repro.lint.registry import Rule, all_rules
from repro.parallel import pmap


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    rules_run: List[str] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Propagation-fixpoint stats when any dataflow-scoped rule ran:
    #: {"fixpoint_seconds", "iterations", "nodes", "edges"}.
    dataflow: Optional[Dict] = None

    def active(self) -> List[Finding]:
        """Findings not suppressed by lint-disable comments or config."""
        return [f for f in self.findings if not f.suppressed]

    def counts_by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.active():
            counts[finding.severity.label] = (
                counts.get(finding.severity.label, 0) + 1
            )
        return counts

    def counts_by_rule(self) -> Dict[str, int]:
        counts = {rule_id: 0 for rule_id in self.rules_run}
        for finding in self.active():
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def exit_code(self, fail_on: Optional[str]) -> int:
        """0 when clean under the threshold, 1 otherwise."""
        if not fail_on or fail_on == "never":
            return 0
        threshold = Severity.from_name(fail_on)
        return (
            1
            if any(f.severity >= threshold for f in self.active())
            else 0
        )

    def to_json(self) -> Dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "summary": {
                "total": len(self.active()),
                "suppressed": len(self.findings) - len(self.active()),
                "by_severity": self.counts_by_severity(),
                "by_rule": self.counts_by_rule(),
            },
            "rule_seconds": {
                rule_id: round(seconds, 6)
                for rule_id, seconds in sorted(self.rule_seconds.items())
            },
            "total_seconds": round(self.total_seconds, 6),
            **({"dataflow": self.dataflow} if self.dataflow else {}),
        }


def _apply_suppressions(
    findings: Sequence[Finding], snapshot: Snapshot, config: LintConfig
) -> List[Finding]:
    """Mark findings suppressed by in-source ``lint-disable`` comments
    (device-scoped) or by lintconfig suppress entries. Suppressed
    findings stay in the report (and SARIF) but don't fail the run."""
    out: List[Finding] = []
    for finding in findings:
        suppression = ""
        device = snapshot.devices.get(finding.hostname)
        if device is not None:
            for rule_id, source_file, source_line in device.lint_suppressions:
                if rule_id in ("*", finding.rule_id):
                    suppression = (
                        f"lint-disable at {source_file}:{source_line}"
                    )
                    break
        if not suppression and config.suppresses(finding):
            suppression = "lintconfig suppression"
        if suppression:
            finding = replace(
                finding, suppressed=True, suppression=suppression
            )
        out.append(finding)
    return out


def lint_snapshot(
    snapshot: Snapshot,
    config: Optional[LintConfig] = None,
    jobs: Optional[int] = None,
) -> LintReport:
    """Run every enabled rule against ``snapshot`` and assemble a report.

    ``jobs`` follows the ``pmap`` convention (None = auto). Rules run in
    parallel; results come back in registry order so reports are
    deterministic regardless of scheduling.
    """
    config = config or LintConfig()
    rules = [r for r in all_rules() if config.rule_enabled(r.rule_id)]

    # Dataflow-scoped rules share one propagation fixpoint. Compute it
    # before the pool forks: workers inherit the BDD tables and the
    # analysis copy-on-write through the module-global slot.
    dataflow_stats: Optional[Dict] = None
    if any(rule.scope == "dataflow" for rule in rules):
        from repro.lint.dataflow import engine as dataflow_engine

        analysis = dataflow_engine.analyze(snapshot)
        dataflow_engine.set_shared(snapshot, analysis)
        dataflow_stats = {
            "fixpoint_seconds": round(analysis.fixpoint_seconds, 6),
            "iterations": analysis.iterations,
            "nodes": len(analysis.graph.nodes),
            "edges": len(analysis.graph.edges),
        }
        metrics = obs.metrics()
        metrics.observe(
            "lint.dataflow.fixpoint_seconds", analysis.fixpoint_seconds
        )
        metrics.observe("lint.dataflow.iterations", analysis.iterations)

    def run_one(rule: Rule):
        start = time.perf_counter()
        findings = rule.run(snapshot)
        return findings, time.perf_counter() - start

    started = time.perf_counter()
    try:
        results = pmap(run_one, rules, jobs=jobs, min_items=2)
    finally:
        if dataflow_stats is not None:
            from repro.lint.dataflow import engine as dataflow_engine

            dataflow_engine.clear_shared()
    total_seconds = time.perf_counter() - started

    report = LintReport(total_seconds=total_seconds, dataflow=dataflow_stats)
    metrics = obs.metrics()
    collected: List[Finding] = []
    for rule, (findings, seconds) in zip(rules, results):
        report.rules_run.append(rule.rule_id)
        report.rule_seconds[rule.rule_id] = seconds
        override = config.severity.get(rule.rule_id)
        if override is not None:
            findings = [replace(f, severity=override) for f in findings]
        collected.extend(findings)
        metrics.observe(f"lint.rule_seconds.{rule.rule_id}", seconds)
    collected = _apply_suppressions(collected, snapshot, config)
    report.findings = sort_findings(collected)
    for rule_id, count in report.counts_by_rule().items():
        metrics.inc(f"lint.findings.{rule_id}", count)
    metrics.inc("lint.runs")
    metrics.observe("lint.seconds", total_seconds)
    obs.observe_phase("lint", total_seconds)
    return report
