"""Verification queries over the BDD dataflow analysis.

:class:`NetworkAnalyzer` is the user-facing facade: it builds (and
optionally compresses) the forwarding graph once and answers queries:

* forward reachability with per-disposition answers,
* destination reachability via backward propagation (§4.2.3),
* fates at the source — one backward fixpoint per disposition, shared by
  every question that asks "what can happen to a packet injected here",
* multipath consistency (the paper's §6 benchmark query),
* waypoint enforcement using waypoint bits (§4.2.3),
* bidirectional reachability with firewall session fast paths (§4.2.3),
* forwarding-loop detection.

Scoped defaults (§4.4.2) are implemented by
:meth:`NetworkAnalyzer.default_sources`: starting locations are limited
to host-facing and network-edge interfaces, and source IPs to addresses
that can plausibly originate there — which suppresses the "spoofed
source IP" class of uninteresting violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Device
from repro.dataplane.fib import Fib, compute_fibs
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.reachability.bddreach import propagate
from repro.reachability.compress import CompressionStats, compress_edges
from repro.reachability.examples import default_preferences
from repro.reachability.graph import (
    Compose,
    Constraint,
    Disposition,
    Edge,
    ForwardingGraph,
    GraphNode,
    Segment,
    SetBit,
    destination_labels,
    destination_markers,
    device_pipeline,
    disp_node,
    fwd_node,
    grafted_labels,
    sink_node,
    src_node,
)
from repro.routing.engine import DataPlane
from repro.routing.topology import InterfaceId

SUCCESS_DISPOSITIONS = (
    Disposition.ACCEPTED,
    Disposition.DELIVERED,
    Disposition.EXITS_NETWORK,
)
FAILURE_DISPOSITIONS = (
    Disposition.DENIED_IN,
    Disposition.DENIED_OUT,
    Disposition.NO_ROUTE,
    Disposition.NULL_ROUTED,
    Disposition.LOOP,
)


@dataclass
class ReachabilityAnswer:
    """Per-disposition reachable sets (§4.4.3). From the forward engine
    (:meth:`NetworkAnalyzer.reachability`) they are the headers as they
    *arrive* at the sinks, after NAT; from
    :meth:`NetworkAnalyzer.source_reachability` they are the headers as
    *injected* at the sources, and ``by_sink`` and ``reach`` are empty.
    Where no path rewrites a header the two are equal node for node."""

    #: disposition -> union of packet sets meeting that fate.
    by_disposition: Dict[Disposition, int] = field(default_factory=dict)
    #: (sink graph node) -> packet set.
    by_sink: Dict[GraphNode, int] = field(default_factory=dict)
    #: full reach map (node -> set), for deeper inspection.
    reach: Dict[GraphNode, int] = field(default_factory=dict)

    def success_set(self) -> int:
        return self._union(SUCCESS_DISPOSITIONS)

    def failure_set(self) -> int:
        return self._union(FAILURE_DISPOSITIONS)

    def _union(self, dispositions) -> int:
        result = FALSE
        for disposition in dispositions:
            value = self.by_disposition.get(disposition, FALSE)
            if value != FALSE:
                result = value if result == FALSE else self._or(result, value)
        return result

    _or = None  # bound by NetworkAnalyzer


@dataclass
class MultipathViolation:
    """A flow accepted along some paths and dropped along others.

    ``packet_set`` and ``example`` are in **source coordinates**: the
    headers as injected at ``source``, before any NAT on the way. Every
    packet of the set can meet one of ``success_dispositions`` on some
    path from ``source`` and one of ``failure_dispositions`` on another.
    """

    source: GraphNode
    packet_set: int
    example: Optional[Packet]
    success_dispositions: List[Disposition]
    failure_dispositions: List[Disposition]


@dataclass
class LoopViolation:
    cycle: List[GraphNode]
    packet_set: int
    example: Optional[Packet]


class NetworkAnalyzer:
    """Builds the dataflow graph for a data plane and answers queries.

    A delta session whose edit moved no forwarding input takes its
    base's analyzer whole (``core.session._build_analyzer``): the two
    sessions then share one analyzer and one BDD engine, as two
    questions on one session do, and its ``.dataplane``, ``.fibs`` and
    build records (``reused_pipelines``, ``grafted_segments``) are the
    base's. Only what the graph reads of them is equal to the delta's
    own: its FIBs, links and devices (all but the management plane);
    ``Session.validate_engines`` holds it against the delta's own
    concrete engine."""

    def __init__(
        self,
        dataplane: DataPlane,
        encoder: Optional[PacketEncoder] = None,
        fibs: Optional[Dict[str, Fib]] = None,
        compress: bool = True,
        base: Optional["NetworkAnalyzer"] = None,
        edited: Collection[str] = (),
    ):
        """``base``: the analyzer of a snapshot this one is an edit of,
        ``edited`` naming the devices whose config text differs. The
        build then starts on a private fork of the base's encoder as it
        stands, nodes and operation caches included (every question the
        base answered leaves the fork warmer), and takes the base's
        :class:`Segment` itself for every device due the same one again:
        same text, same ``Fib`` object, equal topology edges out of it,
        and the same ``compress`` (unless ``encoder`` is given). A segment it builds
        grafts its destination labels onto the base's where the device's
        markers are the base's (:func:`grafted_labels`), and folds them
        whole otherwise."""
        self.dataplane = dataplane
        self.fibs = fibs if fibs is not None else compute_fibs(dataplane)
        reuse: Dict[str, Segment] = {}
        if base is not None and encoder is None:
            encoder = base.encoder.fork()
            links = dataplane.topology.node_edges
            base_links = base.dataplane.topology.node_edges
            if (base.compression is not None) == compress:
                reuse = {
                    hostname: segment
                    for hostname, segment in base.graph.segments.items()
                    if hostname not in edited
                    and hostname in self.fibs
                    and self.fibs[hostname] is base.fibs.get(hostname)
                    and links(hostname) == base_links(hostname)
                }
        else:
            base = None  # its node ids mean nothing to another encoder
        self.encoder = encoder or PacketEncoder()
        snapshot = dataplane.snapshot
        built = len(snapshot.devices) - len(reuse)
        #: Devices whose segment was built with labels grafted onto the
        #: base's; every other built segment folded its labels whole.
        self.grafted_segments: List[str] = []
        with obs.span(
            "bdd.graph_build", devices=len(snapshot.devices), reused=len(reuse),
            compressed=built if compress else 0, forked=base is not None,
        ) as span:
            self.graph = ForwardingGraph({
                hostname: reuse.get(hostname) or self._segment(
                    snapshot.device(hostname), base, compress
                )
                for hostname in snapshot.hostnames()
            })
            span.set("grafted", len(self.grafted_segments))
        self.compression: Optional[CompressionStats] = (
            CompressionStats.total(
                segment.stats for segment in self.graph.segments.values()
            )
            if compress else None
        )
        if base is not None:
            obs.add("bdd.fork")
        if compress:
            obs.add("bdd.segments.compressed", built)
        obs.add("reachability.labels.grafted", len(self.grafted_segments))
        obs.add("reachability.labels.folded", built - len(self.grafted_segments))
        #: Devices whose segment came from ``base``.
        self.reused_pipelines = sorted(reuse)
        self._fates: Optional[Dict[Disposition, Dict[GraphNode, int]]] = None
        self._source_scopes: Optional[List[Tuple[GraphNode, int]]] = None

    def _segment(
        self, device: Device, base: Optional["NetworkAnalyzer"], compress: bool
    ) -> Segment:
        """The segment this build makes for ``device``."""
        labels = self._destination_labels(device, base)
        edges = device_pipeline(self.encoder, device, labels, self.dataplane.topology)
        if not compress:
            return Segment(tuple(edges), labels)
        edges, stats = compress_edges(edges, self.encoder.engine)
        return Segment(tuple(edges), labels, stats)

    def _destination_labels(
        self, device: Device, base: Optional["NetworkAnalyzer"]
    ) -> Dict[tuple, int]:
        """The destination labels of a segment this build makes: grafted
        onto the base's where ``device``'s markers equal its base
        device's, folded whole where they do not or there is no base."""
        hostname, topology = device.hostname, self.dataplane.topology
        fib = self.fibs[hostname]
        kept = base.graph.segments.get(hostname) if base is not None else None
        if kept is not None:
            markers = destination_markers(device, topology)
            base_device = base.dataplane.snapshot.device(hostname)
            if markers == destination_markers(base_device, base.dataplane.topology):
                self.grafted_segments.append(hostname)
                return grafted_labels(
                    kept.labels, base.fibs[hostname], fib, markers, self.encoder
                )
        return destination_labels(device, fib, topology, self.encoder)

    # ------------------------------------------------------------------
    # Sources and scoping defaults (§4.4.2)

    def all_sources(self, headerspace_bdd: int = TRUE) -> Dict[GraphNode, int]:
        """Every interface as a starting location, unscoped headers."""
        return {node: headerspace_bdd for node in self.graph.source_nodes()}

    def default_sources(
        self, headerspace_bdd: int = TRUE
    ) -> Dict[GraphNode, int]:
        """Scoped default search space: start only at host-facing or
        network-edge interfaces, with source IPs limited to addresses
        that can plausibly originate there."""
        and_ = self.encoder.engine.and_
        sources: Dict[GraphNode, int] = {}
        for node, prefix_scope in self._default_scopes():
            scope = and_(headerspace_bdd, prefix_scope)
            if scope != FALSE:
                sources[node] = scope
        return sources

    def _default_scopes(self) -> List[Tuple[GraphNode, int]]:
        """Each default source with its source-prefix scope, built on
        first use and kept for the analyzer's life (like :meth:`fates`:
        two first callers build equal lists, and one assignment wins)."""
        if self._source_scopes is None:
            scopes: List[Tuple[GraphNode, int]] = []
            snapshot, topology = self.dataplane.snapshot, self.dataplane.topology
            for hostname in snapshot.hostnames():
                for iface in snapshot.device(hostname).interfaces.values():
                    if not iface.enabled or iface.prefix is None:
                        continue
                    if topology.has_remote_end(InterfaceId(hostname, iface.name)):
                        continue  # inter-router link, commonly not of interest
                    scopes.append((
                        src_node(hostname, iface.name),
                        self.encoder.ip_in_prefix(f.SRC_IP, iface.prefix),
                    ))
            self._source_scopes = scopes
        return self._source_scopes

    def sources_at(
        self,
        locations: Sequence[Tuple[str, Optional[str]]],
        headerspace_bdd: int = TRUE,
    ) -> Dict[GraphNode, int]:
        """Sources from (node, interface) pairs; interface None = all
        interfaces of the node."""
        sources: Dict[GraphNode, int] = {}
        for hostname, iface_name in locations:
            if iface_name is not None:
                sources[src_node(hostname, iface_name)] = headerspace_bdd
                continue
            for node in self.graph.source_nodes():
                if node[1] == hostname:
                    sources[node] = headerspace_bdd
        return sources

    # ------------------------------------------------------------------
    # Core queries

    def reachability(
        self, sources: Dict[GraphNode, int]
    ) -> ReachabilityAnswer:
        """Forward reachability from the given sources."""
        return self._reachability(self.graph, sources)

    def _reachability(
        self, graph: ForwardingGraph, sources: Dict[GraphNode, int]
    ) -> ReachabilityAnswer:
        """:meth:`reachability` over ``graph``: the analyzer's own, or
        one a question derives from it."""
        engine = self.encoder.engine
        with obs.span("query.reachability", sources=len(sources)):
            reach = propagate(graph, self.encoder, sources)
            answer = ReachabilityAnswer(reach=reach)
            answer._or = engine.or_
            for node, packet_set in reach.items():
                if node[0] == "disp":
                    disposition = Disposition(node[2])
                    answer.by_disposition[disposition] = engine.or_(
                        answer.by_disposition.get(disposition, FALSE), packet_set
                    )
                    answer.by_sink[node] = packet_set
                elif node[0] == "sink":
                    answer.by_disposition[Disposition.DELIVERED] = engine.or_(
                        answer.by_disposition.get(Disposition.DELIVERED, FALSE),
                        packet_set,
                    )
                    answer.by_sink[node] = packet_set
            self._touch_reach_coverage(reach)
            if obs.active():
                obs.add("query.reachability_runs")
        return answer

    def _touch_reach_coverage(self, reach: Dict[GraphNode, int]) -> None:
        """Symbolic coverage: an interface counts as exercised when any
        packet set flowed through one of its graph nodes."""
        if not obs.coverage_scoped():
            return
        for node, packet_set in reach.items():
            if packet_set == FALSE or len(node) < 3:
                continue
            if node[0] in ("src", "in", "out", "egress", "sink"):
                obs.touch("interface", node[1], str(node[2]))

    def destination_reachability(
        self, hostname: str, interface: Optional[str] = None,
        headerspace_bdd: int = TRUE,
    ) -> Dict[GraphNode, int]:
        """Which packets, starting where, can be delivered at a given
        device (interface)? Uses backward propagation (§4.2.3): walks
        only the destination's forwarding tree."""
        engine = self.encoder.engine
        with obs.span("query.destination_reachability", target=hostname):
            targets: Dict[GraphNode, int] = {}
            accepted = disp_node(hostname, Disposition.ACCEPTED)
            if accepted in self.graph.nodes:
                targets[accepted] = headerspace_bdd
            for node in self.graph.nodes:
                if node[0] == "sink" and node[1] == hostname:
                    if interface is None or node[2] == interface:
                        targets[node] = headerspace_bdd
            reach = propagate(self.graph, self.encoder, targets, backward=True)
            self._touch_reach_coverage(reach)
            if obs.active():
                obs.add("query.destination_reachability_runs")
            return {
                node: packet_set
                for node, packet_set in reach.items()
                if node[0] == "src" and packet_set != FALSE
            }

    def fates(self) -> Dict[Disposition, Dict[GraphNode, int]]:
        """Per disposition, per graph node: the packets that, *arriving
        at that node*, can end with that fate.

        One backward fixpoint per disposition the graph has a sink for,
        from all of its sinks seeded with every packet (``("sink", …)``
        nodes are ``DELIVERED``, ``("disp", …, d)`` nodes are ``d``), so
        the cost follows the sinks' forwarding trees and not the number
        of places a packet can start (§4.2.3). Sets are in the
        coordinates of the node they are read at — at a ``src`` node,
        the header as injected, whatever NAT rewrites it later — which
        is what a question about sources has to compare its scope with.

        Built on first use and kept for the analyzer's life. The seeds
        do not depend on the question and the graph never changes once
        built, so there is nothing to key, invalidate or evict.
        """
        if self._fates is None:
            sinks: Dict[Disposition, Dict[GraphNode, int]] = {}
            for node in self.graph.sink_nodes():
                fate = (
                    Disposition.DELIVERED if node[0] == "sink"
                    else Disposition(node[2])
                )
                sinks.setdefault(fate, {})[node] = TRUE
            with obs.span("query.fates", dispositions=len(sinks)):
                built = {
                    fate: propagate(self.graph, self.encoder, sinks[fate], backward=True)
                    for fate in Disposition
                    if fate in sinks
                }
                for reach in built.values():
                    self._touch_reach_coverage(reach)
                if obs.active():
                    obs.add("query.fate_fixpoints", len(built))
            self._fates = built
        return self._fates

    def fated(
        self, node: GraphNode, dispositions: Sequence[Disposition],
        scope: int = TRUE,
    ) -> int:
        """The packets of ``scope`` that, arriving at ``node``, can meet
        one of ``dispositions`` (a union of :meth:`fates` sets)."""
        fates = self.fates()
        engine = self.encoder.engine
        return engine.and_(
            scope,
            engine.or_all(
                fates[fate].get(node, FALSE)
                for fate in dispositions
                if fate in fates
            ),
        )

    def source_reachability(
        self, sources: Dict[GraphNode, int]
    ) -> ReachabilityAnswer:
        """Reachability from the given sources read off :meth:`fates`:
        ``by_disposition[d]`` is the union over sources of the packets
        of the source's scope that, injected there, can meet ``d``.

        Sets are in **source coordinates** (the header as injected,
        before any NAT). No forward fixpoint runs, so ``by_sink`` and
        ``reach`` stay empty; a question that needs at-sink sets asks
        :meth:`reachability`."""
        engine = self.encoder.engine
        with obs.span("query.source_reachability", sources=len(sources)):
            answer = ReachabilityAnswer()
            answer._or = engine.or_
            for fate in self.fates():
                packets = engine.or_all(
                    self.fated(source, (fate,), scope)
                    for source, scope in sources.items()
                )
                if packets != FALSE:
                    answer.by_disposition[fate] = packets
        return answer

    def multipath_consistency(
        self, sources: Optional[Dict[GraphNode, int]] = None
    ) -> List[MultipathViolation]:
        """Find flows accepted along some paths and dropped along others
        (the paper's §6 verification benchmark). Each source's scope is
        intersected with its :meth:`fates`; no forward fixpoint runs."""
        engine = self.encoder.engine
        sources = sources if sources is not None else self.all_sources()
        with obs.span("query.multipath_consistency", sources=len(sources)):
            violations = self._multipath_consistency(engine, sources)
        if obs.active():
            obs.add("query.multipath_runs")
            obs.add("query.multipath_violations", len(violations))
        return violations

    def _multipath_consistency(
        self, engine, sources: Dict[GraphNode, int]
    ) -> List[MultipathViolation]:
        violations: List[MultipathViolation] = []
        preferences = default_preferences(self.encoder)
        for source in sorted(sources, key=lambda n: tuple(map(str, n))):
            scope = sources[source]
            both = engine.and_(
                self.fated(source, SUCCESS_DISPOSITIONS, scope),
                self.fated(source, FAILURE_DISPOSITIONS, scope),
            )
            if both == FALSE:
                continue
            violations.append(
                MultipathViolation(
                    source=source,
                    packet_set=both,
                    example=self.encoder.example_packet(both, preferences),
                    success_dispositions=[
                        d for d in SUCCESS_DISPOSITIONS
                        if self.fated(source, (d,), both) != FALSE
                    ],
                    failure_dispositions=[
                        d for d in FAILURE_DISPOSITIONS
                        if self.fated(source, (d,), both) != FALSE
                    ],
                )
            )
        return violations

    # ------------------------------------------------------------------
    # Waypoints (§4.2.3)

    def waypoint_reachability(
        self,
        sources: Dict[GraphNode, int],
        waypoint_hostname: str,
        waypoint_bit: int = 0,
    ) -> Tuple[int, int]:
        """Split delivered traffic by whether it traversed a waypoint.

        Runs the analysis on a graph derived from the analyzer's with a
        marking step at the waypoint's FIB node (the bit is set when the
        packet passes through) and returns ``(through_waypoint,
        bypassing_waypoint)`` for all delivered/accepted traffic.
        Requires only one extra BDD bit.
        """
        engine = self.encoder.engine
        level = self.encoder.layout.var(f.WAYPOINT, waypoint_bit)
        marked = engine.var(level)
        unmarked = engine.nvar(level)
        waypoint = fwd_node(waypoint_hostname)
        if waypoint not in self.graph.nodes:
            raise ValueError(f"no such device in graph: {waypoint_hostname}")
        # A derived graph: the marker in front of the waypoint's
        # outgoing edges, which its own segment holds.
        mark_fn = SetBit(level)
        segments = dict(self.graph.segments)
        segment = segments[waypoint_hostname]
        segments[waypoint_hostname] = segment._replace(edges=tuple(
            Edge(edge.tail, edge.head, Compose([mark_fn, edge.fn]))
            if edge.tail == waypoint else edge
            for edge in segment.edges
        ))
        graph = ForwardingGraph(segments)
        # Sources start with the bit clear.
        scoped = {
            node: engine.and_(packet_set, unmarked)
            for node, packet_set in sources.items()
        }
        delivered = self._reachability(graph, scoped).success_set()
        through = engine.and_(delivered, marked)
        bypass = engine.and_(delivered, unmarked)
        # Erase the waypoint bit so callers see pure header sets.
        cube = engine.cube([level])
        return engine.exists(through, cube), engine.exists(bypass, cube)

    # ------------------------------------------------------------------
    # Bidirectional reachability (§4.2.3)

    def bidirectional_reachability(
        self,
        sources: Dict[GraphNode, int],
        return_sources: Sequence[Tuple[str, str]],
    ) -> Tuple[int, int]:
        """Round-trip analysis with stateful session fast paths.

        Runs the forward analysis, derives the firewall session sets,
        derives a graph with session fast-path edges, and runs the
        return direction from ``return_sources`` (the destination-side
        locations). Returns ``(forward_delivered, roundtrip_ok)`` where
        ``roundtrip_ok`` is the subset of forward flows whose return
        traffic reaches back.

        NAT coordinates: session sets are recorded at the firewalls'
        ``post_zone`` points, *before* source NAT, so they are expressed
        in original (inside) addresses. The return pass injects the
        endpoint-swapped session set at ``return_sources`` — modeling
        the firewall's session table un-translating return traffic —
        and ``roundtrip_ok`` is reported in the same pre-NAT
        coordinates. Without stateful devices, the plain delivered set
        is swapped instead.
        """
        engine = self.encoder.engine
        forward_answer = self.reachability(sources)
        delivered = forward_answer.success_set()
        if delivered == FALSE:
            return FALSE, FALSE
        sessions = self._session_sets(forward_answer)
        swap = self._endpoint_swap_map()
        # A derived graph: each firewall's segment plus its session
        # fast-path edges (out of its own pipeline's nodes).
        segments = dict(self.graph.segments)
        for firewall, session_set in sessions.items():
            return_match = engine.permute(session_set, swap)
            fast_paths: List[Edge] = []
            for node in self.graph.nodes:
                skip_to = _FAST_PATHS.get(node[0])
                if skip_to is None or node[1] != firewall:
                    continue
                head = (skip_to, node[1], node[2])
                if head in self.graph.nodes:
                    fast_paths.append(Edge(
                        node, head,
                        Constraint(return_match, "session fast path"),
                    ))
            segment = segments[firewall]
            segments[firewall] = segment._replace(edges=segment.edges + tuple(fast_paths))
        graph = ForwardingGraph(segments)
        if sessions:
            forward_base = engine.or_all(sessions.values())
        else:
            forward_base = delivered
        return_header = engine.permute(forward_base, swap)
        back_sources = {
            src_node(node, iface): return_header
            for node, iface in return_sources
        }
        returned = self._reachability(graph, back_sources).success_set()
        roundtrip = engine.and_(forward_base, engine.permute(returned, swap))
        return delivered, roundtrip

    def _session_sets(self, answer: ReachabilityAnswer) -> Dict[str, int]:
        """Per-stateful-device session sets: flows that passed its zone
        policies in the forward direction."""
        engine = self.encoder.engine
        sessions: Dict[str, int] = {}
        for node, packet_set in answer.reach.items():
            if node[0] == "post_zone":
                hostname = node[1]
                sessions[hostname] = engine.or_(
                    sessions.get(hostname, FALSE), packet_set
                )
        return sessions

    def _endpoint_swap_map(self) -> Dict[int, int]:
        layout = self.encoder.layout
        mapping: Dict[int, int] = {}
        for field_a, field_b in ((f.DST_IP, f.SRC_IP), (f.DST_PORT, f.SRC_PORT)):
            for bit in range(layout.width(field_a)):
                a = layout.var(field_a, bit)
                b = layout.var(field_b, bit)
                mapping[a] = b
                mapping[b] = a
        return mapping

    # ------------------------------------------------------------------
    # Loop detection

    def detect_loops(
        self, sources: Optional[Dict[GraphNode, int]] = None
    ) -> List[LoopViolation]:
        """Find forwarding loops: cycles in the graph that some packet
        can traverse end to end."""
        engine = self.encoder.engine
        sources = sources if sources is not None else self.all_sources()
        reach = propagate(self.graph, self.encoder, sources)
        # Restrict to nodes with flow, then find cycles.
        import networkx as nx

        digraph = nx.DiGraph()
        for edge in self.graph.edges:
            if reach.get(edge.tail, FALSE) == FALSE:
                continue
            digraph.add_edge(edge.tail, edge.head, fn=edge.fn)
        violations: List[LoopViolation] = []
        for component in nx.strongly_connected_components(digraph):
            if len(component) < 2:
                node = next(iter(component))
                if not digraph.has_edge(node, node):
                    continue
            subgraph = digraph.subgraph(component)
            try:
                cycle_edges = nx.find_cycle(subgraph)
            except nx.NetworkXNoCycle:
                continue
            survivor = reach.get(cycle_edges[0][0], FALSE)
            cycle_nodes = [cycle_edges[0][0]]
            for tail, head in cycle_edges:
                survivor = digraph[tail][head]["fn"].forward(self.encoder, survivor)
                cycle_nodes.append(head)
                if survivor == FALSE:
                    break
            if survivor == FALSE:
                continue
            example = self.encoder.example_packet(
                survivor, default_preferences(self.encoder)
            )
            violations.append(
                LoopViolation(
                    cycle=cycle_nodes, packet_set=survivor, example=example
                )
            )
        return violations


#: Where a firewall's session table lets return traffic skip to: past
#: the zone policy, and past the ingress ACL.
_FAST_PATHS = {"zone_policy": "zone_clear", "in_acl": "post_in_acl"}
