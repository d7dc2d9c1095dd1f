"""Cross-device lint rules.

These require two devices' configurations at once — the class of check
only a whole-snapshot tool can do (and where Batfish found most of its
early adoption: half-open BGP peerings and mismatched adjacency
parameters that no per-device linter can see). They read the snapshot's
BGP session set or layer-3 topology off the run's
:class:`~repro.lint.runner.LintStage`, which builds each once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

from repro.config.model import Device, Interface
from repro.findings import Finding, Location, Related, Severity
from repro.lint.registry import rule
from repro.routing.topology import Layer3Edge, Layer3Topology

if TYPE_CHECKING:
    from repro.lint.runner import LintStage


def _neighbor_location(device: Device, peer_ip) -> Location:
    if device.bgp is None:
        return Location()
    neighbor = device.bgp.neighbors.get(peer_ip)
    if neighbor is None:
        return Location()
    return Location(neighbor.source_file, neighbor.source_line)


def _iface_location(iface: Interface) -> Location:
    return Location(iface.source_file, iface.source_line)


@rule(
    "bgp-session-compat",
    Severity.ERROR,
    "cross-device",
    "BGP neighbor statements that cannot form a working session: unknown "
    "peer address, missing reciprocal configuration, AS number mismatch, "
    "or one-sided update-source / ebgp-multihop settings.",
)
def bgp_session_compat(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    findings: List[Finding] = []
    sessions, issues = stage.bgp_sessions
    for issue in issues:
        device = snapshot.device(issue.node)
        findings.append(
            Finding(
                "bgp-session-compat",
                Severity.ERROR,
                "cross-device",
                issue.node,
                f"BGP neighbor {issue.peer_ip}: {issue.issue}",
                _neighbor_location(device, issue.peer_ip),
            )
        )
    # Consistency checks on candidate sessions: the peering may come up,
    # but one-sided knobs are a classic latent failure (the session drops
    # the day the topology makes the asymmetry matter).
    seen_pairs: Set[Tuple] = set()
    for session in sessions:
        pair = tuple(
            sorted(
                [
                    (session.local_node, str(session.remote_ip)),
                    (session.remote_node, str(session.local_ip)),
                ]
            )
        )
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        local_device = snapshot.device(session.local_node)
        remote_device = snapshot.device(session.remote_node)
        local_nb = session.neighbor
        remote_nb = (
            remote_device.bgp.neighbors.get(session.local_ip)
            if remote_device.bgp
            else None
        )
        if remote_nb is None:
            continue
        if local_nb.ebgp_multihop != remote_nb.ebgp_multihop:
            with_it, without = (
                (session.local_node, session.remote_node)
                if local_nb.ebgp_multihop
                else (session.remote_node, session.local_node)
            )
            findings.append(
                Finding(
                    "bgp-session-compat",
                    Severity.ERROR,
                    "cross-device",
                    session.local_node,
                    f"BGP session with {session.remote_node}: "
                    f"ebgp-multihop is set on {with_it} but not on "
                    f"{without}",
                    _neighbor_location(local_device, session.remote_ip),
                    (
                        Related(
                            _neighbor_location(remote_device, session.local_ip),
                            f"{session.remote_node} neighbor statement",
                        ),
                    ),
                )
            )
        if local_nb.update_source:
            source_iface = local_device.interfaces.get(local_nb.update_source)
            if (
                source_iface is not None
                and source_iface.address is not None
                and source_iface.address != session.local_ip
            ):
                findings.append(
                    Finding(
                        "bgp-session-compat",
                        Severity.ERROR,
                        "cross-device",
                        session.local_node,
                        f"BGP neighbor {session.remote_ip}: update-source "
                        f"{local_nb.update_source} sources the session from "
                        f"{source_iface.address}, but {session.remote_node} "
                        f"peers with {session.local_ip}",
                        _neighbor_location(local_device, session.remote_ip),
                        (
                            Related(
                                _neighbor_location(
                                    remote_device, session.local_ip
                                ),
                                f"{session.remote_node} expects the session "
                                f"from {session.local_ip}",
                            ),
                        ),
                    )
                )
    return findings


def _undirected_edges(topology: Layer3Topology) -> List[Layer3Edge]:
    """One representative per physical adjacency (tail < head)."""
    return [
        edge for edge in topology.edges() if (edge.tail, edge.head) == tuple(
            sorted([edge.tail, edge.head])
        )
    ]


@rule(
    "ospf-adjacency-mismatch",
    Severity.ERROR,
    "cross-device",
    "L3-adjacent interfaces whose OSPF parameters can never form an "
    "adjacency: area, hello-interval, or dead-interval disagree, or OSPF "
    "runs on only one end.",
)
def ospf_adjacency_mismatch(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    findings: List[Finding] = []
    for edge in _undirected_edges(stage.topology):
        a = snapshot.device(edge.tail.node).interfaces[edge.tail.interface]
        b = snapshot.device(edge.head.node).interfaces[edge.head.interface]
        link = f"{edge.tail} <-> {edge.head}"
        witness = (Related(_iface_location(b), f"remote end {edge.head}"),)
        if a.ospf_enabled and b.ospf_enabled:
            mismatches = []
            if a.ospf_area != b.ospf_area:
                mismatches.append(f"area {a.ospf_area} vs {b.ospf_area}")
            if a.ospf_hello_interval != b.ospf_hello_interval:
                mismatches.append(
                    f"hello-interval {a.ospf_hello_interval} vs "
                    f"{b.ospf_hello_interval}"
                )
            if a.ospf_dead_interval != b.ospf_dead_interval:
                mismatches.append(
                    f"dead-interval {a.ospf_dead_interval} vs "
                    f"{b.ospf_dead_interval}"
                )
            for mismatch in mismatches:
                findings.append(
                    Finding(
                        "ospf-adjacency-mismatch",
                        Severity.ERROR,
                        "cross-device",
                        edge.tail.node,
                        f"OSPF adjacency {link} cannot form: {mismatch}",
                        _iface_location(a),
                        witness,
                    )
                )
        elif a.ospf_enabled != b.ospf_enabled:
            enabled_end = edge.tail if a.ospf_enabled else edge.head
            silent_end = edge.head if a.ospf_enabled else edge.tail
            silent_device = snapshot.device(silent_end.node)
            # Only flag when the silent side runs OSPF elsewhere — a
            # host-facing or BGP-only neighbor is not a mistake.
            if silent_device.ospf is not None:
                findings.append(
                    Finding(
                        "ospf-adjacency-mismatch",
                        Severity.ERROR,
                        "cross-device",
                        enabled_end.node,
                        f"OSPF runs on {enabled_end} but not on the "
                        f"adjacent {silent_end}, though {silent_end.node} "
                        "has an OSPF process",
                        _iface_location(a if a.ospf_enabled else b),
                        (
                            Related(
                                _iface_location(b if a.ospf_enabled else a),
                                f"silent end {silent_end}",
                            ),
                        ),
                    )
                )
    return findings


@rule(
    "mtu-mismatch",
    Severity.WARNING,
    "cross-device",
    "L3-adjacent interfaces with different MTUs: OSPF adjacencies stall "
    "in ExStart and large packets blackhole.",
)
def mtu_mismatch(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    findings: List[Finding] = []
    for edge in _undirected_edges(stage.topology):
        a = snapshot.device(edge.tail.node).interfaces[edge.tail.interface]
        b = snapshot.device(edge.head.node).interfaces[edge.head.interface]
        if a.mtu != b.mtu:
            findings.append(
                Finding(
                    "mtu-mismatch",
                    Severity.WARNING,
                    "cross-device",
                    edge.tail.node,
                    f"MTU mismatch on link {edge.tail} <-> {edge.head}: "
                    f"{a.mtu} vs {b.mtu}",
                    _iface_location(a),
                    (
                        Related(
                            _iface_location(b),
                            f"remote end {edge.head} (mtu {b.mtu})",
                        ),
                    ),
                )
            )
    return findings
