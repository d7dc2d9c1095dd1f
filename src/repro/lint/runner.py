"""Lint runner: executes registered rules over a snapshot, in registry
order, with per-rule timing, suppression handling, and metrics.

Every rule is called with the run's :class:`LintStage` (a session's, or
the run's own) and reads what it needs off it, lazily, under the lock
the run holds. Rules run inline, one after another: a process pool per
run lost to its fork and pickle costs at every registry size (DESIGN.md,
"Performance architecture"). Timing and finding counts land in the
``repro.obs`` metrics registry unconditionally (``/metrics`` shows
``lint.findings.<rule>`` without tracing). A lint run opens no coverage
scope of its own: it is one run of whatever scope its caller opened.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.config.model import Snapshot
from repro.dataplane.acl import line_space
from repro.findings import Finding, Severity, sort_findings
from repro.hdr.headerspace import PacketEncoder
from repro.lint.dataflow.domain import build_universe
from repro.lint.dataflow.engine import DataflowAnalysis, analyze
from repro.lint.dataflow.graph import BgpSessions
from repro.lint.model import LintConfig
from repro.lint.registry import Rule, all_rules
from repro.routing.bgp import compute_bgp_sessions
from repro.routing.routespace import RouteSpaceUniverse
from repro.routing.topology import Layer3Topology, build_layer3_topology


class _Built:
    """The inputs a stage built, and its lock: shared by every stage
    carried from it (:meth:`LintStage.carried_to`)."""

    __slots__ = (
        "lock", "topology", "bgp_sessions", "universe", "dataflow",
        "packet_encoder", "line_spaces",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.topology: Optional[Layer3Topology] = None
        self.bgp_sessions: Optional[BgpSessions] = None
        self.universe: Optional[RouteSpaceUniverse] = None
        self.dataflow: Optional[DataflowAnalysis] = None
        self.packet_encoder: Optional[PacketEncoder] = None
        self.line_spaces: Dict[Tuple[str, str], List[int]] = {}


class LintStage:
    """What every lint rule is called with: the snapshot and what rules
    read besides it, each built at most once, when first read:

    * its layer-3 topology and BGP session set;
    * its route-space universe (:func:`build_universe`), which compiles
      each route map once for the semantic rules and the fixpoint alike;
    * the dataflow fixpoint over all three (its graph builds the
      topology and the session set, and the stage keeps those: read
      after the fixpoint, neither is built again);
    * each ACL line's packet space, in one :class:`PacketEncoder`.

    A :class:`~repro.core.session.Session` builds one as its ``lint``
    stage and keeps it for its life: a session's snapshot never changes,
    so nothing here is keyed or evicted. A delta whose edit moved no
    device's lint projection (:func:`repro.delta.fingerprint.lint_fingerprint`)
    takes its base's stage :meth:`carried_to` its own snapshot. The
    rules extend the universe's and the packet encoder's BDD engines and
    the fixpoint's ``edge_stages`` cache, none safe under concurrent
    writes, so a run holds ``lock`` from its first read to its last
    rule: runs on one stage, and on the stages carried from it, take
    turns.
    """

    def __init__(self, snapshot: Snapshot, built: Optional[_Built] = None):
        self.snapshot = snapshot
        self._built = built or _Built()

    @property
    def lock(self) -> threading.Lock:
        return self._built.lock

    def carried_to(self, snapshot: Snapshot) -> "LintStage":
        """This stage for ``snapshot``, whose devices have this one's
        lint projections: it reads, and builds into, what this one
        built, under the same lock."""
        return LintStage(snapshot, self._built)

    @property
    def topology(self) -> Layer3Topology:
        built = self._built
        if built.topology is None:
            built.topology = build_layer3_topology(self.snapshot)
        return built.topology

    @property
    def bgp_sessions(self) -> BgpSessions:
        built = self._built
        if built.bgp_sessions is None:
            built.bgp_sessions = compute_bgp_sessions(self.snapshot)
        return built.bgp_sessions

    @property
    def universe(self) -> RouteSpaceUniverse:
        built = self._built
        if built.universe is None:
            built.universe = build_universe(self.snapshot)
        return built.universe

    @property
    def has_dataflow(self) -> bool:
        return self._built.dataflow is not None

    @property
    def dataflow(self) -> DataflowAnalysis:
        built = self._built
        if built.dataflow is None:
            analysis = analyze(self.snapshot, self.universe)
            built.topology = analysis.graph.topology
            built.bgp_sessions = analysis.graph.bgp_sessions
            built.dataflow = analysis
        return built.dataflow

    @property
    def packet_encoder(self) -> PacketEncoder:
        """The engine of :meth:`line_spaces`."""
        return self._encode()

    def line_spaces(self, hostname: str, acl: str) -> List[int]:
        """Each line's packet space, in order, of ``hostname``'s ACL ``acl``."""
        self._encode()
        return self._built.line_spaces[hostname, acl]

    def _encode(self) -> PacketEncoder:
        built = self._built
        if built.packet_encoder is None:
            encoder = PacketEncoder()
            for hostname in self.snapshot.hostnames():
                device = self.snapshot.device(hostname)
                for name in sorted(device.acls):
                    built.line_spaces[hostname, name] = [
                        line_space(line, encoder) for line in device.acls[name].lines
                    ]
            built.packet_encoder = encoder
        return built.packet_encoder


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    rules_run: List[str] = field(default_factory=list)
    #: ``rule_seconds`` summed.
    total_seconds: float = 0.0
    #: Propagation-fixpoint stats when any dataflow rule ran:
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
    stage: Optional[LintStage] = None,
) -> LintReport:
    """Run every enabled rule against ``snapshot``, in registry order,
    and assemble a report. ``stage`` is the snapshot's
    :class:`LintStage` to read rule inputs from and keep them on (a
    session's); without one the run builds its own.
    """
    config = config or LintConfig()
    rules = [r for r in all_rules() if config.rule_enabled(r.rule_id)]
    if stage is None:
        stage = LintStage(snapshot)
    elif stage.snapshot is not snapshot:
        raise ValueError("the lint stage belongs to another snapshot")
    with stage.lock:
        return _run(stage, config, rules)


def _run(stage: LintStage, config: LintConfig, rules: List[Rule]) -> LintReport:
    snapshot = stage.snapshot
    dataflow_stats: Optional[Dict] = None
    # The fixpoint first: it builds the topology and sessions it reads.
    if any(rule.category == "dataflow" for rule in rules):
        reused = stage.has_dataflow
        analysis = stage.dataflow
        dataflow_stats = {
            "fixpoint_seconds": round(analysis.fixpoint_seconds, 6),
            "iterations": analysis.iterations,
            "nodes": len(analysis.graph.nodes),
            "edges": len(analysis.graph.edges),
        }
        if reused:
            obs.add("lint.dataflow.reused")
        else:
            obs.add("lint.dataflow.built")
            obs.observe(
                "lint.dataflow.fixpoint_seconds", analysis.fixpoint_seconds
            )
            obs.observe(
                "lint.dataflow.iterations", analysis.iterations, obs.COUNT_BUCKETS
            )

    report = LintReport(dataflow=dataflow_stats)
    collected: List[Finding] = []
    with obs.phase("lint"):
        for rule in rules:
            start = time.perf_counter()
            findings = rule.fn(stage)
            seconds = time.perf_counter() - start
            report.rules_run.append(rule.rule_id)
            report.rule_seconds[rule.rule_id] = seconds
            override = config.severity.get(rule.rule_id)
            if override is not None:
                findings = [replace(f, severity=override) for f in findings]
            collected.extend(findings)
            obs.observe("lint.rule.seconds", seconds, rule=rule.rule_id)
    report.total_seconds = sum(report.rule_seconds.values())
    collected = _apply_suppressions(collected, snapshot, config)
    report.findings = sort_findings(collected)
    for rule_id, count in report.counts_by_rule().items():
        obs.add(f"lint.findings.{rule_id}", count)
    obs.add("lint.runs")
    return report
