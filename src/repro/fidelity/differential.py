"""Differential engine testing (§4.3.2).

Batfish has two independent forwarding engines — the symbolic BDD
engine and the concrete traceroute engine. "Validating that such
engines produce identical results is instrumental in uncovering
modeling bugs." Three validation directions:

1. *Reachability verifies traceroute*: for each final location, run the
   (backward) reachability query, collect (start location, headerspace)
   tuples, pick a representative packet from each headerspace, run the
   traceroute engine, and check that the final location and disposition
   match.
2. *Traceroute verifies reachability*: walk each node's FIB; for each
   entry choose a packet matching the entry's prefix; trace it to its
   terminal location and disposition; then check the symbolic analysis
   agrees (the computed start set contains the original start).
3. *Traceroute verifies the fates*: for every start location and every
   disposition — the failures too, which the first two directions never
   ask about — pick the preferred packet of
   :meth:`NetworkAnalyzer.fates` there, trace it from that location and
   check that it can meet that disposition.

Each direction takes the analyzer and the concrete engine of the same
snapshot: a delta session may hold its base's analyzer, never its base's
concrete engine (``Session.validate_engines``).

A separate comparison holds the imperative control-plane engine against
the original Datalog model (:func:`validate_imperative_against_datalog`)
and, on any forwarding mismatch, attaches both engines' provenance
derivation trees plus the first-divergence diff — the located witness a
human needs to debug a modeling disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bdd.engine import FALSE
from repro.hdr import fields as f
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.provenance import (
    DerivationTree,
    Divergence,
    build_route_tree,
    datalog_route_tree,
    first_divergence,
    render_divergence_report,
)
from repro.provenance import record as prov
from repro.reachability.examples import default_preferences
from repro.reachability.graph import Disposition, src_node
from repro.reachability.queries import NetworkAnalyzer
from repro.traceroute.engine import TracerouteEngine


@dataclass
class Mismatch:
    """One disagreement between the two engines."""

    direction: str  # "symbolic->concrete" | "concrete->symbolic" | "fates->concrete"
    start: Tuple[str, str]
    packet: Packet
    expected: str
    actual: str

    def describe(self) -> str:
        return (
            f"[{self.direction}] {self.packet.describe()} from "
            f"{self.start[0]}[{self.start[1]}]: expected {self.expected}, "
            f"got {self.actual}"
        )


@dataclass
class DifferentialReport:
    checks: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def merge(self, other: "DifferentialReport") -> None:
        self.checks += other.checks
        self.mismatches.extend(other.mismatches)


def validate_symbolic_against_concrete(
    analyzer: NetworkAnalyzer, tracer: TracerouteEngine, max_locations: Optional[int] = None
) -> DifferentialReport:
    """Direction 1: the traceroute engine verifies the BDD engine.

    For every delivery location, pick representative packets from the
    symbolic answer and confirm the concrete engine delivers them there.
    """
    report = DifferentialReport()
    encoder = analyzer.encoder
    locations: List[Tuple[str, Optional[str]]] = []
    for node in analyzer.graph.sink_nodes():
        if node[0] == "sink":
            locations.append((node[1], node[2]))
    if max_locations is not None:
        locations = locations[:max_locations]
    preferences = default_preferences(encoder)
    for hostname, iface_name in locations:
        start_sets = analyzer.destination_reachability(hostname, iface_name)
        for start, packet_set in sorted(
            start_sets.items(), key=lambda kv: tuple(map(str, kv[0]))
        ):
            packet = encoder.example_packet(packet_set, preferences)
            if packet is None:
                continue
            report.checks += 1
            traces = tracer.trace(packet, start[1], start[2])
            delivered_here = any(
                trace.disposition
                in (Disposition.DELIVERED, Disposition.ACCEPTED)
                and trace.hops[-1].node == hostname
                for trace in traces
            )
            if not delivered_here:
                report.mismatches.append(
                    Mismatch(
                        direction="symbolic->concrete",
                        start=(start[1], start[2]),
                        packet=packet,
                        expected=f"delivered at {hostname}[{iface_name}]",
                        actual=", ".join(t.describe() for t in traces),
                    )
                )
    return report


def validate_concrete_against_symbolic(
    analyzer: NetworkAnalyzer,
    tracer: TracerouteEngine,
    max_entries_per_node: Optional[int] = None,
) -> DifferentialReport:
    """Direction 2: the BDD engine verifies the traceroute engine.

    Walk each FIB; for each entry choose a packet destined inside the
    entry's prefix, trace it, then check the symbolic forward analysis
    from the same start reports the same disposition for that packet.
    """
    report = DifferentialReport()
    encoder = analyzer.encoder
    engine = encoder.engine
    for hostname in tracer.dataplane.snapshot.hostnames():
        fib = tracer.fibs[hostname]
        start_interfaces = [
            node[2] for node in analyzer.graph.source_nodes()
            if node[1] == hostname
        ]
        if not start_interfaces:
            continue
        start_interface = start_interfaces[0]
        entries = fib.entries()
        if max_entries_per_node is not None:
            entries = entries[:max_entries_per_node]
        for prefix, _fib_entries in entries:
            # A deterministic probe inside the prefix (prefer a host
            # address over the network address).
            probe_ip = prefix.first_ip if prefix.length >= 31 else Ip(
                prefix.first_ip.value + 1
            )
            packet = Packet(
                dst_ip=probe_ip,
                src_ip=Ip("192.0.2.77"),
                dst_port=80,
                src_port=55555,
                ip_protocol=f.PROTO_TCP,
            )
            report.checks += 1
            traces = tracer.trace(packet, hostname, start_interface)
            concrete = {trace.disposition for trace in traces}
            answer = analyzer.reachability(
                {src_node(hostname, start_interface): encoder.packet_bdd(packet)}
            )
            symbolic = {
                disposition
                for disposition, packet_set in answer.by_disposition.items()
                if packet_set != FALSE
            }
            if not concrete <= symbolic:
                report.mismatches.append(
                    Mismatch(
                        direction="concrete->symbolic",
                        start=(hostname, start_interface),
                        packet=packet,
                        expected=f"symbolic includes {sorted(d.value for d in concrete)}",
                        actual=f"symbolic has {sorted(d.value for d in symbolic)}",
                    )
                )
    return report


def validate_fates_against_concrete(
    analyzer: NetworkAnalyzer, tracer: TracerouteEngine
) -> DifferentialReport:
    """Direction 3: the traceroute engine verifies the fates at the
    source.

    For every ``src`` node and every disposition with a non-empty
    :meth:`NetworkAnalyzer.fates` set there, the preferred example of
    that set, traced from that source, must meet that disposition on
    some path. The sets are in source coordinates, so the example is
    injected as it is, NAT or not.
    """
    report = DifferentialReport()
    encoder = analyzer.encoder
    preferences = default_preferences(encoder)
    sources = analyzer.graph.source_nodes()
    for fate, arriving in analyzer.fates().items():
        for source in sources:
            packet = encoder.example_packet(
                arriving.get(source, FALSE), preferences
            )
            if packet is None:
                continue
            report.checks += 1
            traces = tracer.trace(packet, source[1], source[2])
            if not any(trace.disposition is fate for trace in traces):
                report.mismatches.append(
                    Mismatch(
                        direction="fates->concrete",
                        start=(source[1], source[2]),
                        packet=packet,
                        expected=fate.value,
                        actual=", ".join(t.describe() for t in traces),
                    )
                )
    return report


@dataclass
class DataplaneMismatch:
    """One (node, prefix) where the imperative engine and the Datalog
    model derived different forwarding, with both provenance trees and
    the first point where their derivations diverge."""

    node: str
    prefix: str
    imperative_next_hops: Tuple[str, ...]
    datalog_next_hops: Tuple[str, ...]
    imperative_tree: DerivationTree
    datalog_tree: DerivationTree
    divergence: Optional[Divergence]

    def describe(self) -> str:
        header = (
            f"{self.node} {self.prefix}: imperative forwards via "
            f"{list(self.imperative_next_hops) or 'nothing'}, datalog via "
            f"{list(self.datalog_next_hops) or 'nothing'}"
        )
        return header + "\n" + render_divergence_report(
            self.imperative_tree, self.datalog_tree, self.divergence
        )


@dataclass
class ImperativeDatalogReport:
    """Outcome of the imperative-vs-Datalog dataplane comparison."""

    checks: int = 0
    mismatches: List[DataplaneMismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.passed:
            return f"imperative and datalog dataplanes agree ({self.checks} tuples)"
        parts = [
            f"{len(self.mismatches)} dataplane mismatch(es) over "
            f"{self.checks} tuples"
        ]
        parts.extend(m.describe() for m in self.mismatches)
        return "\n\n".join(parts)


def validate_imperative_against_datalog(
    snapshot, settings=None, semantics=None
) -> ImperativeDatalogReport:
    """The original Datalog model verifies the imperative
    control-plane engine (both simulate the same snapshot; their
    ``(node, prefix, next-hop-node)`` relations must agree on the
    protocols Datalog models: connected/static/OSPF).

    The imperative run happens under provenance recording; every
    mismatched (node, prefix) is reported with the imperative derivation
    tree, the Datalog derivation tree, and the first divergence between
    them.
    """
    from repro.original.cp_model import compute_dataplane_datalog
    from repro.routing.engine import ConvergenceSettings, compute_dataplane
    from repro.routing.policy import DEFAULT_SEMANTICS
    from repro.dataplane.fib import FibActionType, compute_fibs

    datalog = compute_dataplane_datalog(snapshot)
    with prov.recording() as recorder:
        imperative = compute_dataplane(
            snapshot, settings or ConvergenceSettings(),
            semantics or DEFAULT_SEMANTICS,
        )
        fibs = compute_fibs(imperative)

    ip_owner: Dict[Ip, str] = {}
    for hostname in snapshot.hostnames():
        for _name, address, _length in snapshot.device(hostname).interface_ips():
            ip_owner.setdefault(address, hostname)
    imperative_forwards = set()
    for hostname, fib in fibs.items():
        for prefix, entries in fib.entries():
            for entry in entries:
                if entry.action is not FibActionType.FORWARD:
                    continue
                if entry.arp_ip is None:
                    continue  # connected: the datalog model omits these
                neighbor = ip_owner.get(entry.arp_ip)
                if neighbor:
                    imperative_forwards.add((hostname, prefix, neighbor))

    report = ImperativeDatalogReport(
        checks=len(imperative_forwards | datalog.forwards)
    )
    disagreeing = sorted(
        {
            (node, str(prefix))
            for node, prefix, _neighbor in
            imperative_forwards ^ datalog.forwards
        }
    )
    for node, prefix_str in disagreeing:
        left = build_route_tree(recorder, imperative, fibs, node, prefix_str)
        right = datalog_route_tree(datalog, node, prefix_str)
        report.mismatches.append(
            DataplaneMismatch(
                node=node,
                prefix=prefix_str,
                imperative_next_hops=tuple(sorted(
                    neighbor
                    for n, p, neighbor in imperative_forwards
                    if n == node and str(p) == prefix_str
                )),
                datalog_next_hops=tuple(sorted(
                    neighbor
                    for n, p, neighbor in datalog.forwards
                    if n == node and str(p) == prefix_str
                )),
                imperative_tree=left,
                datalog_tree=right,
                divergence=first_divergence(left, right),
            )
        )
    return report


def run_differential_suite(
    analyzer: NetworkAnalyzer, tracer: TracerouteEngine
) -> DifferentialReport:
    """All three directions, merged (the routine §4.3.2
    cross-validation)."""
    report = validate_symbolic_against_concrete(analyzer, tracer)
    report.merge(validate_concrete_against_symbolic(analyzer, tracer))
    report.merge(validate_fates_against_concrete(analyzer, tracer))
    return report
