"""The static route-propagation graph and its transfer summaries.

Nodes are ``(hostname, domain)`` pairs, one per RIB domain a device
owns: ``connected``, ``static``, ``ospf``, ``bgp``. Edges mirror the
three ways the concrete engine moves routes between domains:

* ``redistribute`` — intra-device, from the source protocol's domain
  into OSPF or BGP, through the statement's route-map;
* ``bgp-session`` — inter-device, sender's export policy composed with
  the receiver's import policy (one directed edge per candidate session
  direction from :func:`repro.routing.bgp.compute_bgp_sessions`);
* ``ospf-adjacency`` — inter-device identity edges between OSPF domains
  of L3-adjacent, OSPF-enabled interfaces (intra-area and external
  flooding over-approximated as "everything reaches everyone").

Each route-map referenced by an edge is read from the universe's
compiled summaries (:meth:`~repro.routing.routespace.RouteSpaceUniverse.policy`):
per clause, a guard BDD and the match and set rows of
:mod:`repro.routing.policy` for what the BDD cannot express. Session
viability, next-hop resolution, route-reflector rules and
community-stripping (``send_community``) are deliberately *not*
modelled — every omission only adds routes, preserving the containment
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config.model import Device, Protocol, Redistribution, Snapshot
from repro.findings import Location
from repro.hdr.ip import Prefix
from repro.lint.dataflow.domain import DEFAULT_TAG, AbstractRoutes
from repro.routing.bgp import (
    BgpSession,
    SessionCompatibilityIssue,
    compute_bgp_sessions,
)
from repro.routing.policy import PolicySummary
from repro.routing.routespace import RouteSpaceUniverse
from repro.routing.topology import Layer3Topology, build_layer3_topology

NodeId = Tuple[str, str]  # (hostname, domain)

#: What :func:`~repro.routing.bgp.compute_bgp_sessions` returns: the
#: candidate sessions and the neighbor statements that form none.
BgpSessions = Tuple[List[BgpSession], List[SessionCompatibilityIssue]]

DOMAIN_CONNECTED = "connected"
DOMAIN_STATIC = "static"
DOMAIN_OSPF = "ospf"
DOMAIN_BGP = "bgp"

#: Which domain feeds a ``redistribute <source>`` statement, and the
#: concrete ``Protocol.value`` strings routes from that domain may carry
#: (what ``match protocol`` compares against via ``startswith``).
_REDIST_DOMAIN: Dict[Protocol, str] = {
    Protocol.CONNECTED: DOMAIN_CONNECTED,
    Protocol.STATIC: DOMAIN_STATIC,
    Protocol.OSPF: DOMAIN_OSPF,
    Protocol.BGP: DOMAIN_BGP,
}

DOMAIN_PROTOCOL_VALUES: Dict[str, Tuple[str, ...]] = {
    DOMAIN_CONNECTED: (Protocol.CONNECTED.value,),
    DOMAIN_STATIC: (Protocol.STATIC.value,),
    DOMAIN_OSPF: (
        Protocol.OSPF.value,
        Protocol.OSPF_IA.value,
        Protocol.OSPF_E2.value,
    ),
    DOMAIN_BGP: (Protocol.BGP.value, Protocol.IBGP.value),
}


@dataclass(frozen=True)
class Edge:
    """A directed propagation edge with everything blame needs."""

    src: NodeId
    dst: NodeId
    kind: str  # "redistribute" | "bgp-session" | "ospf-adjacency"
    #: Device to blame (dst-side for redistribute, sender for sessions).
    hostname: str
    location: Location = Location()
    #: Redistribute edges: the statement.
    redist: Optional[Redistribution] = None
    #: Session edges.
    is_ebgp: bool = False
    export_policy: Optional[str] = None
    import_policy: Optional[str] = None
    #: Receiver-side neighbor statement (import blame anchor).
    import_location: Location = Location()

    def describe(self) -> str:
        if self.kind == "redistribute":
            assert self.redist is not None
            via = (
                f" route-map {self.redist.route_map}"
                if self.redist.route_map
                else ""
            )
            return (
                f"{self.hostname}: redistribute {self.redist.source.value} "
                f"into {self.dst[1]}{via}"
            )
        if self.kind == "bgp-session":
            flavor = "eBGP" if self.is_ebgp else "iBGP"
            return f"{flavor} session {self.src[0]} -> {self.dst[0]}"
        return f"OSPF adjacency {self.src[0]} -> {self.dst[0]}"


@dataclass
class PropagationGraph:
    """Nodes, edges, seeds, and compiled policy summaries, with the
    layer-3 topology and BGP session set the edges were read from."""

    universe: RouteSpaceUniverse
    topology: Layer3Topology
    bgp_sessions: BgpSessions
    nodes: List[NodeId] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    seeds: Dict[NodeId, AbstractRoutes] = field(default_factory=dict)
    out_edges: Dict[NodeId, List[int]] = field(default_factory=dict)
    #: The maps some edge applies; the universe may hold more.
    summaries: Dict[Tuple[str, Optional[str]], PolicySummary] = field(
        default_factory=dict
    )

    def summary(
        self, hostname: str, name: Optional[str]
    ) -> Optional[PolicySummary]:
        """The compiled summary for ``name`` on ``hostname``; ``None``
        when no policy applies at all."""
        if name is None:
            return None
        return self.summaries.get((hostname, name))

    def edge_pairs(self) -> List[Tuple[NodeId, NodeId]]:
        return [(edge.src, edge.dst) for edge in self.edges]


def originated_prefixes(device: Device) -> Dict[str, List[Prefix]]:
    """The prefixes each of ``device``'s RIB domains originates, by
    domain: what its node is seeded with."""
    domains = {
        DOMAIN_CONNECTED: [
            iface.prefix
            for iface in device.interfaces.values()
            if iface.enabled and iface.prefix is not None
        ],
        DOMAIN_STATIC: [route.prefix for route in device.static_routes],
    }
    if device.ospf is not None:
        ospf_prefixes = [
            iface.prefix
            for iface in device.interfaces.values()
            if iface.enabled and iface.ospf_enabled and iface.prefix is not None
        ]
        if device.ospf.default_information_originate:
            ospf_prefixes.append(Prefix("0.0.0.0/0"))
        domains[DOMAIN_OSPF] = ospf_prefixes
    if device.bgp is not None:
        domains[DOMAIN_BGP] = list(device.bgp.networks)
    return domains


def _seed(universe: RouteSpaceUniverse, prefixes: List[Prefix]) -> AbstractRoutes:
    """Freshly-originated routes for ``prefixes``: exact atoms carrying
    no communities, no flags, and the default tag."""
    if not prefixes:
        return AbstractRoutes.bottom()
    return AbstractRoutes(universe.originated(prefixes), frozenset({DEFAULT_TAG}))


def build_graph(
    snapshot: Snapshot, universe: RouteSpaceUniverse
) -> PropagationGraph:
    """The graph of ``snapshot`` over ``universe``; it keeps the layer-3
    topology and BGP session set it reads."""
    graph = PropagationGraph(
        universe=universe,
        topology=build_layer3_topology(snapshot),
        bgp_sessions=compute_bgp_sessions(snapshot),
    )

    def ensure_summary(device: Device, name: Optional[str]) -> None:
        if name is not None:
            graph.summaries[device.hostname, name] = universe.policy(device, name)

    # -- nodes + seeds -----------------------------------------------------
    for hostname in snapshot.hostnames():
        domains = originated_prefixes(snapshot.device(hostname))
        for domain, prefixes in domains.items():
            graph.nodes.append((hostname, domain))
            graph.seeds[(hostname, domain)] = _seed(universe, prefixes)
    node_set: Set[NodeId] = set(graph.nodes)

    # -- redistribution edges ----------------------------------------------
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        targets: List[Tuple[str, List[Redistribution]]] = []
        if device.ospf is not None:
            targets.append((DOMAIN_OSPF, list(device.ospf.redistributions)))
        if device.bgp is not None:
            targets.append((DOMAIN_BGP, list(device.bgp.redistributions)))
        for domain, redistributions in targets:
            for redist in redistributions:
                src_domain = _REDIST_DOMAIN.get(redist.source)
                if src_domain is None:
                    continue
                src = (hostname, src_domain)
                if src not in node_set or src_domain == domain:
                    continue  # no such routes can exist on this device
                ensure_summary(device, redist.route_map)
                graph.edges.append(
                    Edge(
                        src=src,
                        dst=(hostname, domain),
                        kind="redistribute",
                        hostname=hostname,
                        location=Location(
                            redist.source_file, redist.source_line
                        ),
                        redist=redist,
                    )
                )

    # -- OSPF adjacency edges ----------------------------------------------
    seen_adjacent: Set[Tuple[NodeId, NodeId]] = set()
    for l3_edge in graph.topology.edges():
        tail_host, head_host = l3_edge.tail.node, l3_edge.head.node
        if tail_host == head_host:
            continue
        tail_node, head_node = (tail_host, DOMAIN_OSPF), (head_host, DOMAIN_OSPF)
        if tail_node not in node_set or head_node not in node_set:
            continue
        tail_iface = snapshot.device(tail_host).interfaces.get(
            l3_edge.tail.interface
        )
        head_iface = snapshot.device(head_host).interfaces.get(
            l3_edge.head.interface
        )
        if (
            tail_iface is None
            or head_iface is None
            or not tail_iface.ospf_enabled
            or not head_iface.ospf_enabled
        ):
            continue
        # Passive interfaces form no adjacency concretely; keeping the
        # edge anyway only over-approximates, and tolerates dialects
        # that advertise-but-not-peer differently.
        if (tail_node, head_node) in seen_adjacent:
            continue
        seen_adjacent.add((tail_node, head_node))
        graph.edges.append(
            Edge(
                src=tail_node,
                dst=head_node,
                kind="ospf-adjacency",
                hostname=head_host,
                location=Location(
                    head_iface.source_file, head_iface.source_line
                ),
            )
        )

    # -- BGP session edges -------------------------------------------------
    sessions, _issues = graph.bgp_sessions
    for session in sessions:
        src = (session.local_node, DOMAIN_BGP)
        dst = (session.remote_node, DOMAIN_BGP)
        if src not in node_set or dst not in node_set or src == dst:
            continue
        sender = snapshot.device(session.local_node)
        receiver = snapshot.device(session.remote_node)
        export_policy = session.neighbor.export_policy
        receiver_neighbor = (
            receiver.bgp.neighbors.get(session.local_ip)
            if receiver.bgp is not None
            else None
        )
        import_policy = (
            receiver_neighbor.import_policy if receiver_neighbor else None
        )
        ensure_summary(sender, export_policy)
        ensure_summary(receiver, import_policy)
        graph.edges.append(
            Edge(
                src=src,
                dst=dst,
                kind="bgp-session",
                hostname=session.local_node,
                location=Location(
                    session.neighbor.source_file, session.neighbor.source_line
                ),
                is_ebgp=not session.is_ibgp,
                export_policy=export_policy,
                import_policy=import_policy,
                import_location=(
                    Location(
                        receiver_neighbor.source_file,
                        receiver_neighbor.source_line,
                    )
                    if receiver_neighbor is not None
                    else Location()
                ),
            )
        )

    graph.nodes.sort()
    graph.edges.sort(key=lambda e: (e.src, e.dst, e.kind, str(e.location)))
    graph.out_edges = {node: [] for node in graph.nodes}
    for index, edge in enumerate(graph.edges):
        graph.out_edges[edge.src].append(index)
    return graph
