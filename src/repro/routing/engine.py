"""The imperative data-plane generation engine (§4.1).

This replaces the original Datalog model (Lesson 1) with custom code
running a fixed-point computation. The schedule encodes the paper's
optimizations explicitly:

1. connected and static routes first (with recursive next-hop
   resolution to a fixed point),
2. the IGP (OSPF) converges fully before BGP starts ("allowing IGP
   protocols to converge prior to beginning BGP computation"),
3. BGP session viability is evaluated against the partial data plane
   (reachability of the peer address, ACLs on the TCP/179 path) and
   re-evaluated after BGP converges — sessions that become (in)viable
   trigger another round,
4. the BGP fixed point uses protocol-specific graph coloring plus
   logical clocks for deterministic convergence (§4.1.2), and RIB-delta
   pulls with no per-neighbor queues for memory (§4.1.3): a receiver
   pulls a neighbor's delta and runs the neighbor's export policy, its
   own import policy, and the RIB merge in one step.

Non-convergence is *detected and reported*, not forced: the engine
hashes global BGP state each iteration and reports an oscillation when a
state repeats (Figure 1's patterns, reproduced in the convergence
benchmark).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.provenance import record as prov
from repro.config.model import Action, Device, Protocol, Snapshot
from repro.hdr import fields as hdr_fields
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.routing.bgp import (
    BgpRib,
    BgpSession,
    SessionCompatibilityIssue,
    accepts_route,
    compute_bgp_sessions,
    export_route,
    local_route,
)
from repro.routing.coloring import color_classes, greedy_coloring
from repro.routing.ospf import compute_ospf, compute_ospf_externals
from repro.routing.policy import (
    DEFAULT_SEMANTICS,
    PolicyResult,
    PolicyRoute,
    PolicySemantics,
    apply_route_map,
)
from repro.routing.rib import Rib, RibDelta
from repro.routing.route import (
    BgpRoute,
    ConnectedRoute,
    OspfRoute,
    StaticRouteEntry,
    intern_as_path,
    intern_communities,
)
from repro.routing.topology import InterfaceId, Layer3Topology, build_layer3_topology

DEFAULT_EXTERNAL_METRIC = 20

#: Why the exchange dropped an advertisement, in the order it checks.
SPLIT_HORIZON = "split_horizon"
AS_PATH_LOOP = "as_path_loop"
ORIGINATOR_LOOP = "originator_loop"
EXPORT_DENY = "export_deny"
IMPORT_DENY = "import_deny"
SUPPRESSION_REASONS = (
    SPLIT_HORIZON, AS_PATH_LOOP, ORIGINATOR_LOOP, EXPORT_DENY, IMPORT_DENY,
)


@dataclass
class ConvergenceSettings:
    """Knobs for the convergence study (Figure 1 benchmark)."""

    #: "colored": color classes execute sequentially (the paper's
    #: technique). "lockstep": all nodes exchange in the same iteration —
    #: the uncontrolled parallelism that triggers pathological cases.
    schedule: str = "colored"
    use_logical_clocks: bool = True
    max_iterations: int = 500
    #: Re-evaluations of session viability after BGP convergence.
    max_session_rounds: int = 3


@dataclass
class NodeState:
    """Routing state of one simulated node."""

    device: Device
    main_rib: Rib = field(default_factory=Rib)
    bgp_rib: Optional[BgpRib] = None
    connected_routes: List[ConnectedRoute] = field(default_factory=list)
    #: BGP routes currently merged into the main RIB.
    bgp_in_main: List[BgpRoute] = field(default_factory=list)


@dataclass
class DataPlaneStats:
    iterations: int = 0
    session_rounds: int = 0
    bgp_routes_processed: int = 0
    #: Total best-route churn (delta entries published); logical clocks
    #: exist to keep this low when equally good routes race (§4.1.2).
    best_route_changes: int = 0
    elapsed_seconds: float = 0.0
    total_routes: int = 0
    #: Advertisements the exchange dropped, by the rule that dropped
    #: them: where the difference between ``bgp_routes_processed`` and
    #: the routes that reached a BGP RIB went.
    suppressed: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(SUPPRESSION_REASONS, 0)
    )
    #: Route-map evaluations of the exchange (a session side without a
    #: route-map evaluates nothing).
    policy_evals: int = 0


@dataclass
class IgpRecord:
    """The IGP stage's output per device: the OSPF intra- and inter-area
    routes, the (prefix, metric) pairs it redistributed into OSPF, and
    the external routes those became."""

    routes: Dict[str, List[OspfRoute]]
    redistributed: Dict[str, List[Tuple[Prefix, int]]]
    externals: Dict[str, List[OspfRoute]]


@dataclass
class BgpReads:
    """Everything one session round of the BGP stage read from one
    device's main RIB, keyed by what it asked, with the answer it got."""

    #: Peer address -> whether an LPM matched it (session viability).
    peers: Dict[Ip, bool] = field(default_factory=dict)
    #: Next hop -> IGP cost (None: unresolvable), one per BGP run.
    costs: Dict[Ip, Optional[int]] = field(default_factory=dict)
    #: ``network``-statement prefix -> whether the RIB has it.
    networks: Dict[Prefix, bool] = field(default_factory=dict)
    #: (prefix, protocol, med) of each route a redistribution into BGP
    #: walked; None in a round that ran no BGP.
    redistributed: Optional[List[Tuple[Prefix, Protocol, int]]] = None


@dataclass
class BgpRound:
    """One session round of the BGP stage."""

    reads: Dict[str, BgpReads]
    #: The BGP routes each BGP speaker's main RIB held after the round's
    #: run; None when the round found the session set unchanged.
    merged: Optional[Dict[str, List[BgpRoute]]] = None


@dataclass
class RoutingStages:
    """The routing stages as a data plane records them: what a delta of
    its snapshot may take over (each stage's output, and what the BGP
    stage read of the main RIBs), and how it was itself produced."""

    igp: IgpRecord
    rounds: List[BgpRound]
    #: Stage ("igp", "bgp") -> why it was computed rather than taken
    #: from a base data plane; "" where it was taken.
    recomputed: Dict[str, str]
    #: Devices whose main RIB this computation built; every other
    #: device's is its base's object.
    rebuilt: List[str]


@dataclass
class DataPlane:
    """The computed data-plane state of a snapshot."""

    snapshot: Snapshot
    topology: Layer3Topology
    nodes: Dict[str, NodeState]
    sessions: List[BgpSession]
    session_issues: List[SessionCompatibilityIssue]
    converged: bool
    oscillating_prefixes: List[Prefix]
    stats: DataPlaneStats
    stages: RoutingStages

    def main_rib(self, hostname: str) -> Rib:
        return self.nodes[hostname].main_rib

    def route_counts(self) -> Dict[str, int]:
        return {name: len(state.main_rib) for name, state in self.nodes.items()}


def compute_dataplane(
    snapshot: Snapshot,
    settings: Optional[ConvergenceSettings] = None,
    semantics: PolicySemantics = DEFAULT_SEMANTICS,
    base: Optional[DataPlane] = None,
    changed: Optional[Mapping[str, Collection[str]]] = None,
) -> DataPlane:
    """Derive the data plane implied by a configuration snapshot.

    ``base`` is the data plane of a snapshot this one edits, computed
    with the same settings and semantics; ``changed`` names, per stage
    (``local`` = connected/static, ``igp``, ``bgp``), the devices whose
    projection for that stage differs from the base's
    (:func:`repro.delta.fingerprint.routing_fingerprint`). A stage whose
    key is equal takes its output from ``base``: the IGP stage when its
    projections and the contributions redistributed into OSPF are, the
    BGP stage when its projections are and every read it logged of a
    main RIB answers as it did. A device whose connected/static inputs
    did not change keeps the base's ``Rib`` when both stages are taken.
    While provenance records, every stage runs (running emits the
    events).
    """
    settings = settings or ConvergenceSettings()
    started = time.perf_counter()
    changed = changed or {}
    unusable = _base_unusable(base, snapshot)
    if unusable:
        base = None
    stats = DataPlaneStats()
    recomputed: Dict[str, str] = {}
    with obs.span("dataplane", devices=len(snapshot.devices)):
        with obs.span("dataplane.igp"):
            recomputed["igp"] = unusable or _changed_config(changed, "igp", "OSPF")
            nodes: Dict[str, NodeState] = {}
            if not recomputed["igp"]:
                topology, igp = base.topology, base.stages.igp
                nodes = _new_nodes(snapshot, changed.get("local", ()))
                recomputed["igp"] = _pre_bgp(nodes, igp, semantics)
            if recomputed["igp"]:
                topology = build_layer3_topology(snapshot)
                nodes = _new_nodes(snapshot, snapshot.hostnames())
                _install_connected(nodes)
                _install_static(nodes)
                igp = _run_ospf(snapshot, topology, nodes, semantics)
        with obs.span("dataplane.bgp"):
            recomputed["bgp"] = unusable or (
                "" if base.converged else "base data plane did not converge"
            ) or _changed_config(changed, "bgp", "BGP")
            if not recomputed["bgp"]:
                recomputed["bgp"] = _replay_bgp(nodes, base.stages.rounds)
            if recomputed["bgp"]:
                rest = _new_nodes(
                    snapshot, [h for h in snapshot.hostnames() if h not in nodes]
                )
                _pre_bgp(rest, igp)
                nodes.update(rest)
                sessions, issues, converged, oscillating, rounds = _run_bgp_rounds(
                    snapshot, nodes, settings, semantics, stats
                )
            else:
                for hostname, state in nodes.items():
                    state.bgp_rib = base.nodes[hostname].bgp_rib
                sessions, issues = base.sessions, base.session_issues
                converged, oscillating = True, []
                rounds = base.stages.rounds
                stats = dataclasses.replace(
                    base.stats, suppressed=dict(base.stats.suppressed)
                )
        rebuilt = sorted(nodes)
        for hostname in snapshot.hostnames():
            if hostname not in nodes:
                kept = base.nodes[hostname]
                nodes[hostname] = NodeState(
                    device=snapshot.device(hostname),
                    main_rib=kept.main_rib,
                    bgp_rib=kept.bgp_rib,
                    connected_routes=kept.connected_routes,
                    bgp_in_main=kept.bgp_in_main,
                )
        nodes = {hostname: nodes[hostname] for hostname in snapshot.hostnames()}
        stats.elapsed_seconds = time.perf_counter() - started
        stats.total_routes = sum(len(state.main_rib) for state in nodes.values())
        if obs.active():
            obs.add("dataplane.runs")
            if recomputed["bgp"]:
                obs.add("dataplane.bgp.iterations", stats.iterations)
                obs.add("dataplane.session_rounds", stats.session_rounds)
                obs.add("dataplane.bgp.routes_processed", stats.bgp_routes_processed)
                obs.add("dataplane.bgp.policy_evals", stats.policy_evals)
                for reason, count in stats.suppressed.items():
                    obs.add(f"dataplane.bgp.suppressed.{reason}", count)
                obs.observe("dataplane.convergence_iterations", stats.iterations)
            obs.gauge("dataplane.total_routes", stats.total_routes)
            if not converged:
                obs.add("dataplane.oscillations")
    return DataPlane(
        snapshot=snapshot,
        topology=topology,
        nodes=nodes,
        sessions=sessions,
        session_issues=issues,
        converged=converged,
        oscillating_prefixes=oscillating,
        stats=stats,
        stages=RoutingStages(igp, rounds, recomputed, rebuilt),
    )


def _base_unusable(base: Optional[DataPlane], snapshot: Snapshot) -> str:
    """Why no stage can be taken from ``base`` ("" when stages can)."""
    if base is None:
        return "no base data plane"
    if prov.enabled():
        return "provenance is recording"
    moved = base.nodes.keys() ^ snapshot.devices.keys()
    if moved:
        return f"device set changed ({_shown(sorted(moved))})"
    return ""


def _changed_config(
    changed: Mapping[str, Collection[str]], stage: str, protocol: str
) -> str:
    hosts = sorted(changed.get(stage, ()))
    return f"{protocol} inputs of {_shown(hosts)} changed" if hosts else ""


def _shown(names: List[str]) -> str:
    shown = ", ".join(names[:3])
    return shown + (f" (+{len(names) - 3} more)" if len(names) > 3 else "")


def _new_nodes(snapshot: Snapshot, hostnames) -> Dict[str, NodeState]:
    return {
        hostname: NodeState(
            device=snapshot.device(hostname),
            # Owner wires main-RIB install/suppress outcomes into the
            # provenance record (no-op unless recording).
            main_rib=Rib(owner=hostname),
        )
        for hostname in sorted(hostnames)
    }


# ----------------------------------------------------------------------
# Connected and static routes


def _install_connected(nodes: Dict[str, NodeState]) -> None:
    # Sorted hostname order: install order feeds RIB deltas, and the
    # parallel/serial equivalence tests assert byte-identical FIBs.
    recording = prov.enabled()
    for hostname, state in sorted(nodes.items()):
        for iface in sorted(state.device.interfaces.values(), key=lambda i: i.name):
            if not iface.enabled or iface.prefix is None:
                continue
            route = ConnectedRoute(prefix=iface.prefix, interface=iface.name)
            state.connected_routes.append(route)
            if recording:
                prov.route_event(
                    hostname, iface.prefix, "connected", "installed",
                    f"interface {iface.name} is up with address "
                    f"{iface.address}/{iface.prefix.length}",
                )
            state.main_rib.merge(route)


def _install_static(nodes: Dict[str, NodeState]) -> None:
    """Activate static routes, resolving recursive next hops iteratively:
    a static route is active when null-routed or when its next hop
    resolves in the (growing) main RIB."""
    pending: Dict[str, List[StaticRouteEntry]] = {}
    for hostname, state in nodes.items():
        entries = [
            StaticRouteEntry(
                prefix=config_route.prefix,
                next_hop_ip=config_route.next_hop_ip,
                next_hop_interface=config_route.next_hop_interface,
                admin_distance=config_route.admin_distance,
                tag=config_route.tag,
            )
            for config_route in state.device.static_routes
        ]
        pending[hostname] = entries
    recording = prov.enabled()
    changed = True
    while changed:
        changed = False
        for hostname in sorted(pending):
            state = nodes[hostname]
            still_pending: List[StaticRouteEntry] = []
            for entry in pending[hostname]:
                resolution = ""
                if entry.is_null_routed:
                    resolvable = True
                    resolution = "null-routed (discard)"
                elif entry.next_hop_interface is not None:
                    # Forwards out of the interface whatever else is
                    # configured: active only while the interface is up.
                    out = state.device.interfaces.get(entry.next_hop_interface)
                    resolvable = out is not None and out.enabled
                    resolution = f"via configured interface {entry.next_hop_interface}"
                elif entry.next_hop_ip is None:
                    resolvable = True
                    resolution = "no next hop"
                else:
                    match = state.main_rib.longest_match(entry.next_hop_ip)
                    # Require the resolving route to be less specific
                    # than the static route itself (no self-resolution).
                    resolvable = match is not None and match[0] != entry.prefix
                    if resolvable:
                        resolution = (
                            f"next hop {entry.next_hop_ip} resolved via {match[0]}"
                        )
                if resolvable:
                    if recording:
                        prov.route_event(
                            hostname, entry.prefix, "static", "installed",
                            f"static route activated: {resolution}",
                        )
                    if state.main_rib.merge(entry):
                        changed = True
                else:
                    still_pending.append(entry)
            pending[hostname] = still_pending
    if recording:
        # Whatever never resolved explains the *absence* of a FIB entry.
        for hostname in sorted(pending):
            for entry in pending[hostname]:
                reason = (
                    f"interface {entry.next_hop_interface} is missing or shut down"
                    if entry.next_hop_interface is not None
                    else f"next hop {entry.next_hop_ip} unresolvable in main RIB"
                )
                prov.route_event(
                    hostname, entry.prefix, "static", "suppressed",
                    f"static route inactive: {reason}",
                )


# ----------------------------------------------------------------------
# OSPF


def _run_ospf(
    snapshot: Snapshot,
    topology: Layer3Topology,
    nodes: Dict[str, NodeState],
    semantics: PolicySemantics,
) -> IgpRecord:
    """Converge OSPF and merge results into the nodes' main RIBs."""
    computation = compute_ospf(snapshot, topology)
    for hostname, routes in computation.routes.items():
        state = nodes[hostname]
        for route in routes:
            if prov.enabled():
                prov.route_event(
                    hostname, route.prefix, "ospf", "installed",
                    f"SPF result: {route.describe()} "
                    f"(next hop {route.next_hop_ip})",
                    neighbor=str(route.next_hop_ip)
                    if route.next_hop_ip is not None
                    else None,
                )
            state.main_rib.merge(route)
    redistributed = _ospf_contributions(nodes, semantics)
    externals: Dict[str, List[OspfRoute]] = {}
    if redistributed:
        externals = compute_ospf_externals(snapshot, computation, redistributed)
        for hostname, routes in externals.items():
            state = nodes[hostname]
            for route in routes:
                if prov.enabled():
                    prov.route_event(
                        hostname, route.prefix, "ospf", "installed",
                        f"external (redistributed): {route.describe()}",
                    )
                state.main_rib.merge(route)
    return IgpRecord(computation.routes, redistributed, externals)


def _pre_bgp(
    nodes: Dict[str, NodeState],
    igp: IgpRecord,
    semantics: Optional[PolicySemantics] = None,
) -> str:
    """Give ``nodes`` their main RIB as the IGP stage ``igp`` recorded
    leaves it: connected, static, OSPF, then external routes, in the
    order a full run merges them. With ``semantics``, first check that
    what the nodes redistribute into OSPF is what the record says;
    returns "" when it is (or unchecked), else why the stage must run
    (the nodes then hold no external route)."""
    _install_connected(nodes)
    _install_static(nodes)
    _merge_routes(nodes, igp.routes)
    if semantics is not None:
        contributions = _ospf_contributions(nodes, semantics)
        moved = [h for h in nodes if contributions.get(h) != igp.redistributed.get(h)]
        if moved:
            return f"redistribution into OSPF at {_shown(moved)} changed"
    _merge_routes(nodes, igp.externals)
    return ""


def _merge_routes(
    nodes: Dict[str, NodeState], routes: Dict[str, List[OspfRoute]]
) -> None:
    for hostname, state in nodes.items():
        for route in routes.get(hostname, ()):
            state.main_rib.merge(route)


def _ospf_contributions(
    nodes: Dict[str, NodeState], semantics: PolicySemantics
) -> Dict[str, List[Tuple[Prefix, int]]]:
    """What each device redistributes into OSPF, read from its main RIB
    as connected, static and OSPF routes left it."""
    # Walked in sorted hostname order for schedule-independent results.
    redistributed: Dict[str, List[Tuple[Prefix, int]]] = {}
    for hostname, state in sorted(nodes.items()):
        device = state.device
        if device.ospf is None or not device.ospf.redistributions:
            continue
        contributions: List[Tuple[Prefix, int]] = []
        recording = prov.enabled()
        for redist in device.ospf.redistributions:
            metric = redist.metric or DEFAULT_EXTERNAL_METRIC
            for route in state.main_rib.routes():
                if not _matches_redist_source(route, redist.source):
                    continue
                policy_route = PolicyRoute(
                    prefix=route.prefix, source_protocol=route.protocol
                )
                result = apply_route_map(
                    device, redist.route_map, policy_route, semantics
                )
                if recording:
                    prov.route_event(
                        hostname, route.prefix, "ospf",
                        "redistributed" if result.permitted else "rejected",
                        f"redistribute {redist.source.value} into OSPF "
                        f"(metric {metric}): "
                        + ("permitted" if result.permitted else "denied"),
                        policy=_policy_label(redist.route_map, result),
                    )
                if result.permitted:
                    contributions.append((route.prefix, metric))
        if contributions:
            redistributed[hostname] = sorted(set(contributions))
    return redistributed


def _policy_label(
    route_map_name: Optional[str], result: Optional[PolicyResult]
) -> str:
    """Render the deciding policy clause for a provenance event
    (``result`` None: nothing was evaluated)."""
    if route_map_name is None:
        return ""
    if result is None or result.matched_clause is None:
        return f"route-map {route_map_name} (no clause matched)"
    return f"route-map {route_map_name} clause {result.matched_clause}"


def _matches_redist_source(route, source: Protocol) -> bool:
    if source is Protocol.CONNECTED:
        return isinstance(route, ConnectedRoute)
    if source is Protocol.STATIC:
        return isinstance(route, StaticRouteEntry)
    if source is Protocol.OSPF:
        return isinstance(route, OspfRoute)
    if source is Protocol.BGP:
        return isinstance(route, BgpRoute)
    return False


# ----------------------------------------------------------------------
# BGP session viability (partial-data-plane dependence, §4.1.1)


def _run_bgp_rounds(
    snapshot: Snapshot,
    nodes: Dict[str, NodeState],
    settings: ConvergenceSettings,
    semantics: PolicySemantics,
    stats: DataPlaneStats,
) -> Tuple[
    List[BgpSession], List[SessionCompatibilityIssue], bool, List[Prefix],
    List[BgpRound],
]:
    """The BGP stage: sessions, then rounds of viability and the fixed
    point until the established set stops changing, each round logging
    what it read of the main RIBs."""
    sessions, issues = compute_bgp_sessions(snapshot)
    converged = True
    oscillating: List[Prefix] = []
    established_keys: Set[Tuple[str, str, str]] = set()
    rounds: List[BgpRound] = []
    for round_number in range(settings.max_session_rounds):
        stats.session_rounds = round_number + 1
        rounds.append(BgpRound({}))
        reads = rounds[-1].reads
        _evaluate_session_viability(snapshot, nodes, sessions, reads)
        new_keys = {s.key for s in sessions if s.established}
        if round_number > 0 and new_keys == established_keys:
            break
        established_keys = new_keys
        converged, oscillating = _run_bgp(
            snapshot, nodes, sessions, settings, semantics, stats, reads
        )
        rounds[-1].merged = _merge_bgp_into_main(nodes)
        if not converged:
            break
    return sessions, issues, converged, oscillating, rounds


def _replay_bgp(nodes: Dict[str, NodeState], rounds: List[BgpRound]) -> str:
    """Replay the base BGP stage's reads on ``nodes``, the devices whose
    pre-BGP main RIB is not the base's by construction, round by round,
    merging each round's BGP routes into their RIBs as the stage did.

    Returns "" when every read answers as it did — the stage would
    compute the base's output — else the first read that does not, as
    the reason to run it (the nodes' RIBs then hold no BGP route).
    """
    for bgp_round in rounds:
        for hostname, state in nodes.items():
            reads = bgp_round.reads.get(hostname)
            moved = _moved_read(state, reads) if reads is not None else ""
            if moved:
                for node in nodes.values():
                    _merge_into_main(node, [])
                return f"{moved} at {hostname} changed"
        if bgp_round.merged is not None:
            for hostname, state in nodes.items():
                _merge_into_main(state, bgp_round.merged.get(hostname, []))
    return ""


def _moved_read(state: NodeState, reads: BgpReads) -> str:
    """The first of ``reads`` the node's main RIB answers differently
    ("" if none)."""
    rib = state.main_rib
    for peer, reachable in reads.peers.items():
        if (rib.longest_match(peer) is not None) != reachable:
            return f"reachability of peer {peer}"
    for next_hop, cost in reads.costs.items():
        if _igp_cost(rib, next_hop) != cost:
            return f"igp cost of {next_hop}"
    for prefix, present in reads.networks.items():
        if bool(rib.best_routes(prefix)) != present:
            return f"presence of network {prefix}"
    if reads.redistributed is not None and reads.redistributed != [
        _redistributed(route) for _redist, route in _bgp_redistribution(state)
    ]:
        return "what is redistributed into BGP"
    return ""


def _evaluate_session_viability(
    snapshot: Snapshot,
    nodes: Dict[str, NodeState],
    sessions: List[BgpSession],
    reads: Dict[str, BgpReads],
) -> None:
    recording = prov.enabled()
    for session in sessions:
        session.established, session.failure_reason = _session_viable(
            snapshot, nodes, session, reads
        )
        if recording and not session.established:
            # A down session suppresses every route it would have
            # carried; record it against the wildcard prefix.
            prov.route_event(
                session.local_node, "*", "session", "down",
                f"BGP session to {session.remote_node} ({session.remote_ip}) "
                f"not established: {session.failure_reason}",
                neighbor=str(session.remote_ip),
            )


def _session_viable(
    snapshot: Snapshot,
    nodes: Dict[str, NodeState],
    session: BgpSession,
    reads: Dict[str, BgpReads],
) -> Tuple[bool, str]:
    state = nodes[session.local_node]
    device = state.device
    # Reachability of the peer address.
    if session.is_ibgp or session.neighbor.ebgp_multihop:
        reachable = state.main_rib.longest_match(session.remote_ip) is not None
        reads.setdefault(session.local_node, BgpReads()).peers[session.remote_ip] = reachable
        if not reachable:
            return False, f"peer {session.remote_ip} unreachable"
    else:
        # Single-hop eBGP: the peer must be directly connected.
        if not any(
            route.prefix.contains_ip(session.remote_ip)
            for route in state.connected_routes
        ):
            return False, f"peer {session.remote_ip} not directly connected"
    # TCP viability through ACLs on the interfaces facing the peer: the
    # local outgoing filter and the remote incoming filter must both
    # permit BGP (TCP/179) between the session addresses.
    probe = Packet(
        dst_ip=session.remote_ip,
        src_ip=session.local_ip,
        dst_port=179,
        src_port=33000,
        ip_protocol=hdr_fields.PROTO_TCP,
    )
    local_iface = _interface_owning(device, session.local_ip)
    if local_iface is not None and local_iface.outgoing_acl:
        if not _acl_permits(device, local_iface.outgoing_acl, probe):
            return False, f"outgoing ACL {local_iface.outgoing_acl} blocks TCP/179"
    remote_device = snapshot.device(session.remote_node)
    remote_iface = _interface_owning(remote_device, session.remote_ip)
    if remote_iface is not None and remote_iface.incoming_acl:
        if not _acl_permits(remote_device, remote_iface.incoming_acl, probe):
            return False, (
                f"incoming ACL {remote_iface.incoming_acl} on "
                f"{session.remote_node} blocks TCP/179"
            )
    return True, ""


def _interface_owning(device: Device, address: Ip):
    for iface in device.interfaces.values():
        if iface.address == address:
            return iface
    return None


def _acl_permits(device: Device, acl_name: str, packet: Packet) -> bool:
    from repro.dataplane.acl import evaluate_acl

    acl = device.acls.get(acl_name)
    if acl is None:
        return True  # undefined ACL: permit (model default, Lesson 3)
    result = evaluate_acl(acl, packet)
    if obs.active():
        obs.touch(
            "acl_line",
            device.hostname,
            acl_name,
            result.line_index if result.line_index is not None else -1,
        )
    return result.action is Action.PERMIT


# ----------------------------------------------------------------------
# BGP fixed point


def _run_bgp(
    snapshot: Snapshot,
    nodes: Dict[str, NodeState],
    sessions: List[BgpSession],
    settings: ConvergenceSettings,
    semantics: PolicySemantics,
    stats: DataPlaneStats,
    reads: Dict[str, BgpReads],
) -> Tuple[bool, List[Prefix]]:
    """Run the BGP exchange to a fixed point (or detect oscillation),
    logging what each node reads of its main RIB into ``reads``.

    Returns (converged, oscillating_prefixes).
    """
    established = [s for s in sessions if s.established]
    bgp_nodes = sorted(
        {s.local_node for s in established}
        | {
            hostname
            for hostname, state in nodes.items()
            if state.device.bgp is not None
        }
    )
    if not bgp_nodes:
        return True, []
    # (Re)create BGP RIBs and seed them with local routes.
    clock_counter = [0]

    def next_clock() -> int:
        clock_counter[0] += 1
        return clock_counter[0]

    for hostname in bgp_nodes:
        state = nodes[hostname]
        device = state.device
        logged = reads.setdefault(hostname, BgpReads())
        state.bgp_rib = BgpRib(
            local_as=device.bgp.local_as,
            multipath=device.bgp.maximum_paths,
            igp_cost=_igp_cost_fn(state.main_rib, logged.costs),
            use_clocks=settings.use_logical_clocks,
            owner=hostname,
        )
        _originate_local_bgp(state, semantics, next_clock, logged)

    # Per directed session edge (the session as seen by the *sender*;
    # the receiver pulls through it): the exchange and the pending delta
    # the receiver has not consumed yet. Routes are references into the
    # sender's RIB (shared, interned objects) — this is the "no queues"
    # hybrid (§4.1.3).
    in_sessions: Dict[str, List[Tuple[_Exchange, RibDelta]]] = {}
    out_pending: Dict[str, List[RibDelta]] = {}
    for session in established:
        exchange = _Exchange(
            session,
            snapshot.device(session.local_node),
            nodes[session.remote_node].device,
            semantics,
            stats,
        )
        pending = RibDelta()
        in_sessions.setdefault(session.remote_node, []).append((exchange, pending))
        out_pending.setdefault(session.local_node, []).append(pending)

    def publish(sender: str, delta: RibDelta) -> None:
        if delta.empty:
            return
        for pending in out_pending.get(sender, ()):
            pending.extend(delta)

    # Seed: every node publishes its initial best routes.
    for hostname in bgp_nodes:
        delta = nodes[hostname].bgp_rib.take_delta()
        publish(hostname, delta)

    # Scheduling order: colored classes or one lockstep class.
    if settings.schedule == "colored":
        session_edges = [(s.local_node, s.remote_node) for s in established]
        colors = greedy_coloring(bgp_nodes, session_edges)
        schedule = color_classes(colors)
    else:
        schedule = [list(bgp_nodes)]

    seen_states: Dict[int, int] = {}
    previous_best: Dict[str, Tuple] = {}
    converged = False
    oscillating: List[Prefix] = []
    observing = obs.enabled()
    recording = prov.enabled()
    for iteration in range(1, settings.max_iterations + 1):
        stats.iterations = iteration
        if recording:
            # Stamp subsequent derivation events with the convergence
            # iteration that produced them (§4.1.2 diagnosability).
            prov.set_iteration(iteration)
        any_change = False
        iteration_delta_routes = 0
        for color_class in schedule:
            # Two-phase within a class: snapshot pendings first so nodes
            # of one class see a consistent pre-class state (they are
            # pairwise non-adjacent under coloring, so this only matters
            # for the lockstep schedule).
            pulls = {
                hostname: [
                    (exchange, pending.clear())
                    for exchange, pending in in_sessions.get(hostname, ())
                ]
                for hostname in color_class
            }
            deltas: Dict[str, RibDelta] = {}
            for hostname in color_class:
                state = nodes[hostname]
                for exchange, delta in pulls[hostname]:
                    if not delta.empty:
                        _process_incoming(state, exchange, delta, next_clock)
                deltas[hostname] = state.bgp_rib.take_delta()
                delta_size = len(deltas[hostname].added) + len(
                    deltas[hostname].removed
                )
                stats.best_route_changes += delta_size
                iteration_delta_routes += delta_size
            for hostname in color_class:
                delta = deltas[hostname]
                if not delta.empty:
                    any_change = True
                    publish(hostname, delta)
        if observing:
            # Per-iteration RIB-delta telemetry: the §4.1.3 churn signal
            # used to diagnose slow or diverging convergence.
            obs.observe("dataplane.bgp.iteration_delta_routes", iteration_delta_routes)
        if not any_change and all(
            pending.empty for queue in out_pending.values() for pending in queue
        ):
            converged = True
            break
        # Oscillation detection: a repeated global state means a cycle.
        state_hash, best_map = _global_state(nodes, bgp_nodes)
        if state_hash in seen_states:
            oscillating = _diff_prefixes(previous_best, best_map)
            converged = False
            break
        seen_states[state_hash] = iteration
        previous_best = best_map
    if recording:
        prov.set_iteration(0)  # later events are outside the fixed point
    return converged, sorted(set(oscillating), key=str)


def _igp_cost(rib: Rib, next_hop: Ip) -> Optional[int]:
    """The IGP cost to ``next_hop`` by ``rib`` (None: unresolvable)."""
    match = rib.longest_match(next_hop)
    if match is None:
        return None
    _prefix, routes = match
    best = routes[0]
    if isinstance(best, OspfRoute):
        return best.cost
    if isinstance(best, (ConnectedRoute, StaticRouteEntry)):
        return 0
    return None  # next hop resolving via BGP is not allowed


def _igp_cost_fn(rib: Rib, resolved: Dict[Ip, Optional[int]]):
    """The IGP cost resolver of one node for one ``_run_bgp`` call: the
    main RIB does not change inside one, so each next hop is resolved
    (one LPM) once, into ``resolved`` — the run's log of those reads."""

    def igp_cost(next_hop: Ip) -> Optional[int]:
        try:
            return resolved[next_hop]
        except KeyError:
            cost = resolved[next_hop] = _igp_cost(rib, next_hop)
            return cost

    return igp_cost


def _bgp_redistribution(state: NodeState):
    """(redistribution, route) for each main-RIB route a redistribution
    into BGP walks, in the order it walks them."""
    return [
        (redist, route)
        for redist in state.device.bgp.redistributions
        for route in state.main_rib.routes()
        if _matches_redist_source(route, redist.source)
    ]


def _redistributed(route) -> Tuple[Prefix, Protocol, int]:
    """What a redistribution into BGP reads of one route."""
    return route.prefix, route.protocol, getattr(route, "cost", 0)


def _originate_local_bgp(
    state: NodeState, semantics, next_clock, reads: BgpReads
) -> None:
    device = state.device
    bgp = device.bgp
    local_ip = device.router_id()
    recording = prov.enabled()
    hostname = device.hostname
    for prefix in bgp.networks:
        # A network statement originates only if the prefix is present
        # in the main RIB (IGP/connected/static), per vendor semantics.
        present = reads.networks[prefix] = bool(state.main_rib.best_routes(prefix))
        if present:
            if recording:
                prov.route_event(
                    hostname, prefix, "bgp", "originated",
                    f"network statement for {prefix}: prefix present in "
                    "main RIB, originated into BGP",
                )
            state.bgp_rib.put(
                local_route(prefix, local_ip, bgp.local_as), next_clock()
            )
        elif recording:
            prov.route_event(
                hostname, prefix, "bgp", "suppressed",
                f"network statement for {prefix} did not originate: "
                "prefix absent from main RIB",
            )
    walked = _bgp_redistribution(state)
    reads.redistributed = [_redistributed(route) for _redist, route in walked]
    for (redist, route), (prefix, protocol, med) in zip(walked, reads.redistributed):
        result = apply_route_map(
            device,
            redist.route_map,
            PolicyRoute(prefix=prefix, source_protocol=protocol, med=med),
            semantics,
        )
        if recording:
            prov.route_event(
                hostname, prefix, "bgp",
                "originated" if result.permitted else "rejected",
                f"redistribute {redist.source.value} into BGP: "
                + ("permitted" if result.permitted else "denied"),
                policy=_policy_label(redist.route_map, result),
            )
        if not result.permitted:
            continue
        transformed = result.route
        state.bgp_rib.put(
            local_route(
                prefix,
                local_ip,
                bgp.local_as,
                source_protocol=protocol,
                med=transformed.med,
                communities=tuple(transformed.communities),
            ),
            next_clock(),
        )


class _Exchange:
    """One directed session of the BGP exchange: what a pull needs that
    does not depend on the route, worked out once per session instead of
    once per advertisement."""

    __slots__ = (
        "session", "sender_device", "receiver_device", "semantics", "stats",
        "export_policy", "import_policy", "receiver_view",
    )

    def __init__(
        self,
        session: BgpSession,
        sender_device: Device,
        receiver_device: Device,
        semantics: PolicySemantics,
        stats: DataPlaneStats,
    ):
        self.session = session  # as seen by the sender
        self.sender_device = sender_device
        self.receiver_device = receiver_device
        self.semantics = semantics
        self.stats = stats
        self.export_policy = session.neighbor.export_policy
        receiver_neighbor = receiver_device.bgp.neighbors.get(session.local_ip)
        self.import_policy = (
            receiver_neighbor.import_policy if receiver_neighbor else None
        )
        self.receiver_view = _receiver_view(session)

    def advertise(
        self, route: BgpRoute
    ) -> Tuple[
        Optional[BgpRoute], str,
        Tuple[Optional[PolicyResult], Optional[PolicyResult]],
    ]:
        """Carry the sender's best ``route`` across the session.

        Returns ``(installed, "", results)`` with the route the receiver
        puts into its BGP RIB, or ``(None, reason, results)`` with the
        suppression reason; ``results`` is the export and the import
        evaluation, each None where no route-map ran (a policy deny is
        the last one that did). Every BGP rule runs before a
        ``BgpRoute`` or an attribute bundle is built, and a side without
        a route-map builds no ``PolicyRoute``: split horizon first (a
        route-map cannot change ``from_ibgp``, and a router never offers
        such a route to its outbound policy), then the export route-map,
        then the receiver's loop checks on what the route-map left of
        the path.
        """
        session = self.session
        attrs = route.attributes
        if (
            session.is_ibgp
            and attrs.from_ibgp
            and not session.neighbor.route_reflector_client
        ):
            return None, SPLIT_HORIZON, (None, None)
        as_path = attrs.as_path
        exported: Optional[PolicyResult] = None
        if self.export_policy is not None:
            self.stats.policy_evals += 1
            exported = apply_route_map(
                self.sender_device, self.export_policy,
                _to_policy_route(route), self.semantics,
            )
            if not exported.permitted:
                return None, EXPORT_DENY, (exported, None)
            as_path = exported.route.as_path
        if session.is_ibgp:
            originator = attrs.originator_id or (
                route.received_from if attrs.from_ibgp else None
            )
            if originator is not None and originator == session.remote_ip:
                return None, ORIGINATOR_LOOP, (exported, None)
        elif session.remote_as in as_path:
            # The sender's own AS, prepended on the way out, is not the
            # receiver's: the session is eBGP.
            return None, AS_PATH_LOOP, (exported, None)
        if exported is not None:
            route = _from_policy_route(route, exported.route)
        advertisement = export_route(session, route)
        if advertisement is None:
            return None, SPLIT_HORIZON, (exported, None)
        # The advertisement as built (prepends included) is what the
        # receiver's loop prevention sees.
        accepted, _why = accepts_route(self.receiver_view, advertisement)
        if not accepted:
            loop = ORIGINATOR_LOOP if session.is_ibgp else AS_PATH_LOOP
            return None, loop, (exported, None)
        if self.import_policy is None:
            return advertisement, "", (exported, None)
        self.stats.policy_evals += 1
        imported = apply_route_map(
            self.receiver_device, self.import_policy,
            _to_policy_route(advertisement), self.semantics,
        )
        if not imported.permitted:
            return None, IMPORT_DENY, (exported, imported)
        installed = _from_policy_route(advertisement, imported.route)
        return installed, "", (exported, imported)


def _process_incoming(
    state: NodeState, exchange: _Exchange, delta: RibDelta, next_clock
) -> None:
    """Pull one neighbor's RIB delta: run the sender's export policy, the
    local import policy, and the RIB merge in a single step (§4.1.3)."""
    stats = exchange.stats
    peer_ip = exchange.session.local_ip
    recording = prov.enabled()
    receiver = state.device.hostname
    sender = exchange.session.local_node
    # Withdrawals: remove whatever we had from this peer for the prefix.
    for route in delta.removed:
        stats.bgp_routes_processed += 1
        if recording:
            prov.route_event(
                receiver, route.prefix, "bgp", "withdrawn",
                f"withdrawal pulled from {sender}",
                neighbor=str(peer_ip),
            )
        state.bgp_rib.withdraw(route.prefix, peer_ip)
    advertised: Set[Prefix] = set()
    for route in delta.added:
        stats.bgp_routes_processed += 1
        if route.prefix in advertised:
            continue  # one advertisement per prefix (no add-path)
        advertised.add(route.prefix)
        installed, reason, (exported, imported) = exchange.advertise(route)
        if installed is None:
            stats.suppressed[reason] += 1
            if recording:
                _record_suppressed(
                    exchange, route, reason,
                    exported if reason == EXPORT_DENY else imported,
                )
            state.bgp_rib.withdraw(route.prefix, peer_ip)
            continue
        if recording:
            export_label = _policy_label(exchange.export_policy, exported)
            prov.route_event(
                receiver, route.prefix, "bgp", "installed",
                f"received from {sender} via {peer_ip}: "
                f"as-path {list(installed.attributes.as_path)}, "
                f"local-pref {installed.attributes.local_pref}, "
                f"med {installed.attributes.med}; export "
                + (f"[{export_label}]" if export_label else "[no policy]")
                + "; import "
                + (
                    f"[{_policy_label(exchange.import_policy, imported)}]"
                    if exchange.import_policy
                    else "[no policy]"
                ),
                neighbor=str(peer_ip),
            )
        state.bgp_rib.put(installed, next_clock())


def _record_suppressed(
    exchange: _Exchange, route: BgpRoute, reason: str, result: Optional[PolicyResult]
) -> None:
    """The provenance event for an advertisement that was not installed."""
    session = exchange.session
    sender = session.local_node
    action, policy = "suppressed", ""
    if reason == SPLIT_HORIZON:
        detail = (
            f"not advertised by {sender}: iBGP-learned route to "
            "non-route-reflector-client peer"
        )
    elif reason == EXPORT_DENY:
        detail = f"denied by {sender}'s export policy"
        policy = _policy_label(exchange.export_policy, result)
    elif reason == IMPORT_DENY:
        detail = f"advertisement from {sender} denied by import policy"
        policy = _policy_label(exchange.import_policy, result)
    else:
        action = "rejected"
        loop = "as-path loop" if reason == AS_PATH_LOOP else "originator-id loop"
        detail = f"advertisement from {sender} rejected: {loop}"
    prov.route_event(
        session.remote_node, route.prefix, "bgp", action, detail,
        neighbor=str(session.local_ip), policy=policy,
    )


def _receiver_view(sender_session: BgpSession) -> BgpSession:
    """The session as the receiver sees it (local/remote swapped)."""
    return BgpSession(
        local_node=sender_session.remote_node,
        remote_node=sender_session.local_node,
        local_ip=sender_session.remote_ip,
        remote_ip=sender_session.local_ip,
        local_as=sender_session.remote_as,
        remote_as=sender_session.local_as,
        neighbor=sender_session.neighbor,
        is_ibgp=sender_session.is_ibgp,
        established=sender_session.established,
    )


def _to_policy_route(route: BgpRoute) -> PolicyRoute:
    attrs = route.attributes
    return PolicyRoute(
        prefix=route.prefix,
        next_hop_ip=route.next_hop_ip,
        as_path=attrs.as_path,
        local_pref=attrs.local_pref,
        med=attrs.med,
        origin=attrs.origin,
        communities=set(attrs.communities),
        weight=attrs.weight,
        tag=attrs.tag,
        source_protocol=attrs.source_protocol,
    )


def _from_policy_route(base: BgpRoute, policy_route: PolicyRoute) -> BgpRoute:
    attrs = base.attributes.with_changes(
        as_path=intern_as_path(policy_route.as_path),
        local_pref=policy_route.local_pref,
        med=policy_route.med,
        origin=policy_route.origin,
        communities=intern_communities(tuple(policy_route.communities)),
        weight=policy_route.weight,
        tag=policy_route.tag,
    )
    next_hop = policy_route.next_hop_ip or base.next_hop_ip
    return BgpRoute(
        prefix=base.prefix,
        next_hop_ip=next_hop,
        attributes=attrs,
        received_from=base.received_from,
    )


def _global_state(nodes, bgp_nodes) -> Tuple[int, Dict[str, Tuple]]:
    best_map: Dict[str, Tuple] = {}
    for hostname in bgp_nodes:
        rib = nodes[hostname].bgp_rib
        best_map[hostname] = tuple(
            (route.prefix, route.next_hop_ip, route.attributes)
            for route in rib.all_best()
        )
    return hash(tuple(sorted(best_map.items()))), best_map


def _diff_prefixes(old: Dict[str, Tuple], new: Dict[str, Tuple]) -> List[Prefix]:
    changed: List[Prefix] = []
    for hostname in sorted(new):
        old_set = set(old.get(hostname, ()))
        new_set = set(new.get(hostname, ()))
        # Set iteration order is hash-seed dependent; sort so reports
        # are identical across processes (parallel workers included).
        changed.extend(sorted((entry[0] for entry in old_set ^ new_set), key=str))
    return changed


def _merge_bgp_into_main(nodes: Dict[str, NodeState]) -> Dict[str, List[BgpRoute]]:
    """Replace each node's BGP routes in its main RIB with its BGP best
    routes; returns them per BGP speaker."""
    merged: Dict[str, List[BgpRoute]] = {}
    for hostname, state in sorted(nodes.items()):
        if state.bgp_rib is None:
            _merge_into_main(state, [])
            continue
        merged[hostname] = [
            route
            for route in state.bgp_rib.all_best()
            # Locally originated routes are in the main RIB already.
            if route.received_from is not None
        ]
        _merge_into_main(state, merged[hostname])
    return merged


def _merge_into_main(state: NodeState, routes: List[BgpRoute]) -> None:
    for route in state.bgp_in_main:
        state.main_rib.withdraw(route)
    for route in routes:
        state.main_rib.merge(route)
    state.bgp_in_main = routes
