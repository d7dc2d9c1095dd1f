"""Lint runner: executes registered rules over a snapshot, in parallel,
with per-rule timing, suppression handling, and metrics.

Rules are independent, so they parallelize trivially with
``repro.parallel.pmap`` (fork-based; each worker gets a copy-on-write
view of the snapshot and builds its own BDD engines). Timing and
finding counts land in the ``repro.obs`` metrics registry
unconditionally — the service ``/metrics`` endpoint then shows
``lint.findings.<rule>`` counters without tracing enabled.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.config.model import Device, Snapshot
from repro.core.cache import engine_version
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
    #: {"fixpoint_seconds", "iterations", "nodes", "edges", "warm_start"}.
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


def _device_lint_key(rule: Rule, device: Device) -> str:
    """Content address of one device-scoped rule evaluation: code
    version + rule + the device model's bytes. An unchanged file parses
    to an identical Device, so its key (and memoized findings) survive
    edits elsewhere in the snapshot."""
    digest = hashlib.sha256(engine_version().encode())
    digest.update(b"\x00lint\x00")
    digest.update(rule.rule_id.encode())
    digest.update(b"\x00")
    digest.update(pickle.dumps(device, protocol=pickle.HIGHEST_PROTOCOL))
    return digest.hexdigest()


def lint_snapshot(
    snapshot: Snapshot,
    config: Optional[LintConfig] = None,
    jobs: Optional[int] = None,
    cache=None,
    snapshot_key: Optional[str] = None,
    delta: Optional[Dict] = None,
) -> LintReport:
    """Run every enabled rule against ``snapshot`` and assemble a report.

    ``jobs`` follows the ``pmap`` convention (None = auto). Rules run in
    parallel; results come back in registry order so reports are
    deterministic regardless of scheduling.

    ``cache`` (a :class:`repro.core.cache.SnapshotCache`) memoizes
    device-scoped rules per device: when an incremental update touches
    two files out of two hundred, only those two devices' semantic
    checks (the expensive BDD ones) re-run. Snapshot-scoped rules —
    which relate devices to each other — always run in full. Findings
    are memoized *pre*-suppression and *pre*-severity-override, so
    lintconfig changes apply to memoized findings too.

    ``snapshot_key`` / ``delta`` wire the dataflow fixpoint into the
    incremental pipeline: the fixpoint is persisted under
    ``snapshot_key`` and, on a delta-derived session, ``delta =
    {"base_key", "dirty_devices", "fallback"}`` lets it warm-start from
    the base snapshot's cached fixpoint (only the dirty propagation
    subgraph re-iterates).
    """
    config = config or LintConfig()
    rules = [r for r in all_rules() if config.rule_enabled(r.rule_id)]

    # Dataflow-scoped rules share one propagation fixpoint. Compute it
    # before the pool forks: workers inherit the BDD tables and the
    # analysis copy-on-write through the module-global slot.
    dataflow_stats: Optional[Dict] = None
    if any(rule.scope == "dataflow" for rule in rules):
        from repro.lint.dataflow import engine as dataflow_engine

        analysis = dataflow_engine.analyze(
            snapshot, cache=cache, snapshot_key=snapshot_key, delta=delta
        )
        dataflow_engine.set_shared(snapshot, analysis)
        dataflow_stats = {
            "fixpoint_seconds": round(analysis.fixpoint_seconds, 6),
            "iterations": analysis.iterations,
            "nodes": len(analysis.graph.nodes),
            "edges": len(analysis.graph.edges),
            "warm_start": analysis.warm_start,
        }
        metrics = obs.metrics()
        metrics.observe(
            "lint.dataflow.fixpoint_seconds", analysis.fixpoint_seconds
        )
        metrics.observe("lint.dataflow.iterations", analysis.iterations)
        if analysis.warm_start:
            metrics.inc("lint.dataflow.warm_starts")

    # Work items: one per snapshot-scoped rule, one per (device rule,
    # device) pair not served from the memo. hostname None = whole
    # snapshot.
    items: List[Tuple[Rule, Optional[str]]] = []
    memoized: List[Tuple[str, List[Finding]]] = []
    memo_keys: Dict[Tuple[str, str], str] = {}
    for rule in rules:
        if rule.scope != "device" or cache is None:
            items.append((rule, None))
            continue
        for hostname in snapshot.hostnames():
            key = _device_lint_key(rule, snapshot.device(hostname))
            memo_keys[(rule.rule_id, hostname)] = key
            hit = cache.load("lint", key)
            if hit is not None:
                memoized.append((rule.rule_id, hit))
                obs.metrics().inc("lint.device_memo_hits")
            else:
                items.append((rule, hostname))
                obs.metrics().inc("lint.device_memo_misses")

    def run_one(item: Tuple[Rule, Optional[str]]):
        rule, hostname = item
        start = time.perf_counter()
        # Coverage touches made by this rule land in the
        # ``lint/<rule_id>`` vector (rolled up under ``lint`` by
        # prefix), whether the rule runs inline or on a pmap worker.
        with obs.context.attribution(f"lint/{rule.rule_id}"):
            if hostname is None:
                findings = rule.run(snapshot)
            else:
                # Device-scoped rules see a single-device snapshot; by
                # the scope contract this yields exactly the findings
                # the full snapshot would produce for that device.
                findings = rule.run(
                    Snapshot(devices={hostname: snapshot.device(hostname)})
                )
        elapsed = time.perf_counter() - start
        # Lands in the pmap worker's flight ring and ships back to the
        # parent with the originating request id — the per-rule trail a
        # postmortem of a slow or crashed lint job needs.
        obs.flight.record(
            "lint.rule", rule.rule_id,
            device=hostname or "", findings=len(findings),
            wall_s=round(elapsed, 6),
        )
        return rule.rule_id, hostname, findings, elapsed

    started = time.perf_counter()
    try:
        results = pmap(run_one, items, jobs=jobs, min_items=2)
    finally:
        if dataflow_stats is not None:
            from repro.lint.dataflow import engine as dataflow_engine

            dataflow_engine.clear_shared()
    total_seconds = time.perf_counter() - started

    report = LintReport(total_seconds=total_seconds, dataflow=dataflow_stats)
    metrics = obs.metrics()
    raw: Dict[str, List[Finding]] = {rule.rule_id: [] for rule in rules}
    seconds_by_rule: Dict[str, float] = {rule.rule_id: 0.0 for rule in rules}
    for rule_id, hostname, findings, seconds in results:
        raw[rule_id].extend(findings)
        seconds_by_rule[rule_id] += seconds
        if hostname is not None and cache is not None:
            cache.store("lint", memo_keys[(rule_id, hostname)], findings)
    for rule_id, findings in memoized:
        raw[rule_id].extend(findings)

    collected: List[Finding] = []
    for rule in rules:
        findings = raw[rule.rule_id]
        report.rules_run.append(rule.rule_id)
        report.rule_seconds[rule.rule_id] = seconds_by_rule[rule.rule_id]
        override = config.severity.get(rule.rule_id)
        if override is not None:
            findings = [replace(f, severity=override) for f in findings]
        collected.extend(findings)
        metrics.observe(
            f"lint.rule_seconds.{rule.rule_id}", seconds_by_rule[rule.rule_id]
        )
    collected = _apply_suppressions(collected, snapshot, config)
    report.findings = sort_findings(collected)
    for rule_id, count in report.counts_by_rule().items():
        metrics.inc(f"lint.findings.{rule_id}", count)
    metrics.inc("lint.runs")
    metrics.observe("lint.seconds", total_seconds)
    obs.observe_phase("lint", total_seconds)
    return report
