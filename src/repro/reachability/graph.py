"""The dataflow (forwarding) graph of §4.2.

Nodes represent points in the general device pipeline (§7.2): packet
sources per interface, the incoming ACL, destination NAT, the FIB
lookup, source NAT, the outgoing ACL, per-interface destination sinks,
and per-node disposition sinks. Edge labels are packet sets (BDDs)
derived from FIBs and ACLs; NAT edges carry transformation relations;
zone-based firewalls set/test/erase zone bits (§4.2.3).

Edge semantics are packaged as :class:`EdgeFunction` objects supporting
forward and backward application, so the same graph serves forward
reachability, the backward single-destination optimization, and the
instrumented return-direction pass of bidirectional reachability. They
are plain data, applied with the encoder passed at call time, and the
graph is one :class:`Segment` per device: a value a delta's graph takes
from its base's by identity where the device is due the same segment
again (DESIGN.md, "Why a shared segment is taken as it is").
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Device
from repro.dataplane.acl import acl_permit_space
from repro.dataplane.fib import Fib, FibActionType
from repro.dataplane.nat import NatPipeline
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Prefix
from repro.routing.topology import InterfaceId

if TYPE_CHECKING:
    from repro.reachability.compress import CompressionStats


class Disposition(enum.Enum):
    """Terminal fates of a packet (mirrors Batfish's flow dispositions)."""

    ACCEPTED = "accepted"  # delivered to the device itself
    DELIVERED = "delivered"  # delivered to a host on a connected subnet
    EXITS_NETWORK = "exits-network"  # leaves the modeled network
    DENIED_IN = "denied-in"
    DENIED_OUT = "denied-out"
    NO_ROUTE = "no-route"
    NULL_ROUTED = "null-routed"
    LOOP = "loop"


# Graph node naming. Nodes are plain tuples so they hash/sort cheaply:
#   ("src", node, iface)        packets entering at iface
#   ("in", node, iface)         post-ingress (after in ACL and dst NAT)
#   ("fwd", node)               FIB lookup point
#   ("out", node, iface)        pre-egress (before src NAT / out ACL)
#   ("egress", node, iface)     after egress processing, on the wire
#   ("sink", node, iface)       delivered/exits sink per interface
#   ("disp", node, disposition) per-node disposition sink
GraphNode = Tuple


def src_node(node: str, iface: str) -> GraphNode:
    return ("src", node, iface)


def fwd_node(node: str) -> GraphNode:
    return ("fwd", node)


def sink_node(node: str, iface: str) -> GraphNode:
    return ("sink", node, iface)


def disp_node(node: str, disposition: Disposition) -> GraphNode:
    return ("disp", node, disposition.value)


class EdgeFunction:
    """Base edge semantics: how a packet set crosses an edge.

    An edge function is plain data — notes, field names, values and
    node-id labels — and is applied with the encoder its labels belong
    to (``fn.forward(encoder, packet_set)``). It holds no engine, so a
    delta's graph shares a reused segment's functions with its base's
    as they are: a fork keeps the node ids they name.

    Edge functions are the graph's hot per-edge objects — one per FIB
    action, ACL hop and link — so every subclass declares ``__slots__``
    to drop the per-instance ``__dict__``.
    """

    __slots__ = ()

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        raise NotImplementedError

    def backward(self, encoder: PacketEncoder, packet_set: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class Identity(EdgeFunction):
    __slots__ = ()

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        return packet_set

    def backward(self, encoder: PacketEncoder, packet_set: int) -> int:
        return packet_set

    def describe(self) -> str:
        return "identity"


class Constraint(EdgeFunction):
    """Intersect with a fixed packet set (FIB entry, ACL space, ...)."""

    __slots__ = ("label", "note")

    def __init__(self, label: int, note: str = ""):
        self.label = label
        self.note = note

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        return encoder.engine.and_(packet_set, self.label)

    backward = forward

    def describe(self) -> str:
        return f"constraint({self.note})" if self.note else "constraint"


class Transform(EdgeFunction):
    """A packet transformation (NAT rule set) with pass-through for
    non-matching packets, built from a NatPipeline. Its relations are
    compiled on the encoder it is applied with."""

    __slots__ = ("_pipeline", "note")

    def __init__(self, pipeline: NatPipeline, note: str = ""):
        self._pipeline = pipeline
        self.note = note

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        return self._pipeline.apply_symbolic(encoder, packet_set)

    def backward(self, encoder: PacketEncoder, packet_set: int) -> int:
        # Preimage: packets that the pipeline maps into packet_set.
        engine, layout = encoder.engine, encoder.layout
        remaining_pre = TRUE
        preimage_parts: List[int] = []
        for step in self._pipeline.symbolic_steps(encoder):
            # Packets matching this step: preimage through the relation.
            field = step.field
            out_map = engine.rename_map(
                {
                    layout.var(field, bit): layout.out_var(field, bit)
                    for bit in range(layout.width(field))
                }
            )
            shifted = engine.rename(packet_set, out_map)
            out_cube = engine.cube(layout.out_vars_of(field))
            pre = engine.and_exists(shifted, step.relation, out_cube)
            preimage_parts.append(engine.and_(pre, step.match))
            remaining_pre = engine.diff(remaining_pre, step.match)
        # Non-matching packets pass through unchanged.
        preimage_parts.append(engine.and_(packet_set, remaining_pre))
        return engine.or_all(preimage_parts)

    def describe(self) -> str:
        return f"transform({self.note})" if self.note else "transform"


class AssignField(EdgeFunction):
    """Set a field to a constant (zone tagging)."""

    __slots__ = ("field_name", "value")

    def __init__(self, field_name: str, value: int):
        self.field_name = field_name
        self.value = value

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        erased = encoder.erase(packet_set, [self.field_name])
        return encoder.engine.and_(erased, encoder.field_eq(self.field_name, self.value))

    def backward(self, encoder: PacketEncoder, packet_set: int) -> int:
        narrowed = encoder.engine.and_(
            packet_set, encoder.field_eq(self.field_name, self.value)
        )
        return encoder.erase(narrowed, [self.field_name])

    def describe(self) -> str:
        return f"assign({self.field_name}={self.value})"


class EraseField(EdgeFunction):
    """Existentially erase a field (leaving a firewall's zone scope)."""

    __slots__ = ("field_name",)

    def __init__(self, field_name: str):
        self.field_name = field_name

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        return encoder.erase(packet_set, [self.field_name])

    # Preimage of erase for reachability: any pre-value whose erased
    # image intersects the target. (Over-approximation-free here
    # because erase only widens.)
    backward = forward

    def describe(self) -> str:
        return f"erase({self.field_name})"


class SetBit(EdgeFunction):
    """Set one BDD variable to 1 (the waypoint marker)."""

    __slots__ = ("level",)

    def __init__(self, level: int):
        self.level = level

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        engine = encoder.engine
        erased = engine.exists(packet_set, engine.cube([self.level]))
        return engine.and_(erased, engine.var(self.level))

    def backward(self, encoder: PacketEncoder, packet_set: int) -> int:
        engine = encoder.engine
        narrowed = engine.and_(packet_set, engine.var(self.level))
        return engine.exists(narrowed, engine.cube([self.level]))

    def describe(self) -> str:
        return f"set-bit({self.level})"


class Compose(EdgeFunction):
    """Sequential composition of edge functions (graph compression)."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[EdgeFunction]):
        self.parts = parts

    def forward(self, encoder: PacketEncoder, packet_set: int) -> int:
        for part in self.parts:
            packet_set = part.forward(encoder, packet_set)
            if packet_set == FALSE:
                return FALSE
        return packet_set

    def backward(self, encoder: PacketEncoder, packet_set: int) -> int:
        for part in reversed(self.parts):
            packet_set = part.backward(encoder, packet_set)
            if packet_set == FALSE:
                return FALSE
        return packet_set

    def describe(self) -> str:
        return " ; ".join(part.describe() for part in self.parts)


@dataclass(slots=True)
class Edge:
    tail: GraphNode
    head: GraphNode
    fn: EdgeFunction


class Segment(NamedTuple):
    """One device's part of the graph, as an analyzer built it: the
    edges out of its own pipeline's nodes (compressed when the analyzer
    compresses), the destination labels they were built from (node ids
    of the analyzer's engine, which a fork keeps, for an edit's build to
    graft onto) and its compression stats (None uncompressed). Only a
    ``src`` node is entered from another device's segment, so a segment
    compresses on its own, and a delta's build that is due the same one
    again takes it whole (DESIGN.md, "Delta engine")."""

    edges: Tuple[Edge, ...]
    labels: Dict[tuple, int]
    stats: Optional["CompressionStats"] = None


class ForwardingGraph:
    """The dataflow graph plus indices for traversal; immutable once
    built (a question that needs other edges builds a derived graph
    from ``segments``). It holds no encoder: whoever walks it passes
    the one its labels belong to."""

    def __init__(self, segments: Dict[str, Segment]):
        #: hostname -> its :class:`Segment`.
        self.segments = segments
        self.edges: List[Edge] = [
            edge for segment in segments.values() for edge in segment.edges
        ]
        self._out: Dict[GraphNode, List[Edge]] = {}
        self._in: Dict[GraphNode, List[Edge]] = {}
        for edge in self.edges:
            self._out.setdefault(edge.tail, []).append(edge)
            self._in.setdefault(edge.head, []).append(edge)
        self.nodes: Set[GraphNode] = self._out.keys() | self._in.keys()

    def out_edges(self, node: GraphNode) -> List[Edge]:
        return self._out.get(node, [])

    def in_edges(self, node: GraphNode) -> List[Edge]:
        return self._in.get(node, [])

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        return len(self.edges)

    def source_nodes(self) -> List[GraphNode]:
        return sorted(n for n in self.nodes if n[0] == "src")

    def sink_nodes(self) -> List[GraphNode]:
        return sorted(
            (n for n in self.nodes if n[0] in ("sink", "disp")),
            key=lambda n: tuple(str(part) for part in n),
        )


#: In the order of their edges out of a ``fwd`` node.
_DROP_DISPOSITIONS = {
    FibActionType.DROP_NO_ROUTE: Disposition.NO_ROUTE,
    FibActionType.DROP_NULL: Disposition.NULL_ROUTED,
}


#: Label of a device's own addresses, accepted before the FIB lookup.
_ACCEPT = ("accept",)


def destination_markers(device: Device, topology) -> FrozenSet[Tuple[Prefix, tuple]]:
    """The markers that refine ``device``'s FIB partition into its
    destination labels, each named by the label it leads to: its own
    addresses (``("accept",)``), its modelled neighbours' addresses
    (``("to", iface, address)``) and its connected subnets
    (``("delivered", iface)``). With the FIB, all the labels read."""
    markers = {
        (Prefix(address, 32), _ACCEPT) for _name, address, _len in device.interface_ips()
    }
    interfaces = device.interfaces
    for l3_edge in topology.node_edges(device.hostname):
        iface = interfaces.get(l3_edge.tail.interface)
        if iface is not None and iface.enabled:
            markers.add(
                (Prefix(l3_edge.head_ip, 32), ("to", iface.name, l3_edge.head_ip))
            )
    for iface in interfaces.values():
        if iface.enabled and iface.prefix is not None:
            markers.add((iface.prefix, ("delivered", iface.name)))
    return frozenset(markers)


def destination_labels(
    device: Device, fib: Fib, topology, encoder: PacketEncoder
) -> Dict[tuple, int]:
    """Every edge label of ``device`` that is a function of the
    destination address alone, from one fold of its FIB (DESIGN.md,
    "Forwarding-graph build"): ``("accept",)``, ``("drop", disposition)``,
    ``("fib", iface)`` and, of the traffic out ``iface``, ``("to", iface,
    neighbour address)``, ``("delivered", iface)`` and ``("exits",
    iface)``. Labels no address falls under are left out.

    With dst-IP bits as BDD variables, MSB first (§4.2.2), the sorted
    FIB is the skeleton of these BDDs. Routes replace the action set
    they inherit; the device's own addresses, its modelled neighbours'
    and its connected subnets are markers that refine it, named by the
    label they lead to. The cells of that partition are pairwise
    disjoint, each belongs to a few labels, and a label is the union of
    its cells: nothing is intersected, negated or subtracted.
    """
    markers = destination_markers(device, topology)
    return _labels_under(fib, markers, encoder, [Prefix(0, 0)])[0]


def grafted_labels(
    base_labels: Dict[tuple, int],
    base_fib: Fib,
    fib: Fib,
    markers: FrozenSet[Tuple[Prefix, tuple]],
    encoder: PacketEncoder,
) -> Dict[tuple, int]:
    """:func:`destination_labels` of a device whose markers are
    ``markers`` and whose FIB is ``fib``, from its labels
    ``base_labels`` for the same markers and ``base_fib``: only the
    addresses under the prefixes where the two FIBs' actions differ are
    folded again, and each label takes its new part there in place of
    its old one (:meth:`BddEngine.graft`). The base's labels themselves
    where the FIBs forward alike.

    Exact: the longest match of an address outside those prefixes sees
    the same stored prefixes with the same actions, under the same
    markers, so its cell and labels are the base's; and a BDD is
    canonical, so the grafted label is the very node the full fold
    returns (DESIGN.md, "Why a graft is exact").
    """
    changed = fib.changed_prefixes(base_fib)
    if not changed:
        return base_labels
    engine = encoder.engine
    levels = encoder.layout.vars_of(f.DST_IP)
    parts = _labels_under(fib, markers, encoder, changed)
    labels = dict(base_labels)
    names = sorted(labels.keys() | {label for part in parts for label in part}, key=repr)
    for prefix, part in zip(changed, parts):
        path = levels[: prefix.length]
        value = prefix.network_value >> (32 - prefix.length)
        for label in names:
            labels[label] = engine.graft(
                labels.get(label, FALSE), path, value, part.get(label, FALSE)
            )
    return {label: labels[label] for label in names if labels[label] != FALSE}


def _labels_under(
    fib: Fib,
    markers: FrozenSet[Tuple[Prefix, tuple]],
    encoder: PacketEncoder,
    prefixes: List[Prefix],
) -> List[Dict[tuple, int]]:
    """Per prefix of ``prefixes``, every label's addresses under it
    (rooted at its depth): one fold of ``fib`` and ``markers`` below it,
    the cells unioned per label."""
    engine = encoder.engine
    neighbours = frozenset(label for _prefix, label in markers if label[0] == "to")
    levels = encoder.layout.vars_of(f.DST_IP)
    parts = []
    for classes in fib.lpm_classes_under(
        prefixes,
        lambda depth, lo, hi: engine.mk(levels[depth], lo, hi), TRUE, FALSE, markers,
        functools.cache(lambda state: _cell_labels(*state, neighbours)),
    ):
        cells: Dict[tuple, List[int]] = {}
        for labels, space in classes.items():
            for label in labels:
                cells.setdefault(label, []).append(space)
        # Sorted: a class is a pair of frozensets, whose order follows
        # the hash seed, and node ids must not.
        parts.append(
            {label: engine.or_all(cells[label]) for label in sorted(cells, key=repr)}
        )
    return parts


def _cell_labels(actions, marks, neighbours) -> FrozenSet[tuple]:
    """The labels of the addresses whose longest match takes ``actions``
    and that lie under ``marks``. Own addresses win over any route; of
    what is forwarded toward the destination itself (``arp_ip`` None), a
    modelled neighbour's address crosses the link, another address of
    the connected subnet is delivered, the rest exits; what is forwarded
    toward a next hop follows the next hop."""
    if _ACCEPT in marks:
        return frozenset((_ACCEPT,))
    labels = set()
    for action, out_interface, arp_ip in actions:
        if action is not FibActionType.FORWARD:
            labels.add(("drop", _DROP_DISPOSITIONS[action]))
            continue
        labels.add(("fib", out_interface))
        if arp_ip is not None:
            toward = ("to", out_interface, arp_ip)
        else:
            toward = next(
                (m for m in marks if m[0] == "to" and m[1] == out_interface),
                ("delivered", out_interface),
            )
        # Neither a modelled neighbour nor the subnet: out of the network.
        known = toward in neighbours or toward in marks
        labels.add(toward if known else ("exits", out_interface))
    return frozenset(labels)


def device_pipeline(
    encoder: PacketEncoder, device: Device, labels: Dict[tuple, int], topology
) -> List[Edge]:
    """The edges of ``device``'s pipeline, in build order, its
    :func:`destination_labels` given. They depend on its config, those
    labels (of its FIB) and the topology edges out of it alone."""
    engine = encoder.engine
    hostname = device.hostname
    zones = {name: i + 1 for i, name in enumerate(sorted(device.zones))}
    has_zones = bool(zones)
    edges: List[Edge] = []

    def add_edge(tail: GraphNode, head: GraphNode, fn: EdgeFunction) -> None:
        edges.append(Edge(tail, head, fn))

    # --- ingress side: src -> (in ACL, dst NAT, zone tag) -> fwd -------
    for iface in sorted(device.interfaces.values(), key=lambda i: i.name):
        if not iface.enabled or iface.address is None:
            continue
        entry = src_node(hostname, iface.name)
        current = entry
        if iface.incoming_acl:
            acl = device.acls.get(iface.incoming_acl)
            permit = acl_permit_space(acl, encoder) if acl else TRUE
            acl_point = ("in_acl", hostname, iface.name)
            add_edge(current, acl_point, Identity())
            add_edge(
                acl_point,
                ("post_in_acl", hostname, iface.name),
                Constraint(permit, f"acl {iface.incoming_acl} permits"),
            )
            add_edge(
                acl_point,
                disp_node(hostname, Disposition.DENIED_IN),
                Constraint(engine.not_(permit), "acl denies"),
            )
            current = ("post_in_acl", hostname, iface.name)
        if iface.dst_nat_rules:
            nat_point = ("dst_nat", hostname, iface.name)
            add_edge(current, nat_point, Identity())
            add_edge(
                nat_point,
                ("post_dst_nat", hostname, iface.name),
                Transform(
                    NatPipeline(device, iface.dst_nat_rules, kind=None),
                    f"dst-nat {iface.name}",
                ),
            )
            current = ("post_dst_nat", hostname, iface.name)
        if has_zones:
            zone_name = device.zone_of_interface(iface.name)
            zone_value = zones.get(zone_name, 0) if zone_name else 0
            tag_point = ("zone_tag", hostname, iface.name)
            add_edge(current, tag_point, Identity())
            add_edge(
                tag_point,
                fwd_node(hostname),
                AssignField(f.ZONE_IN, zone_value),
            )
        else:
            add_edge(current, fwd_node(hostname), Identity())

    # --- FIB lookup: fwd -> accept / out chains / drops ----------------
    # One edge per action, not per prefix: parallel constraint edges
    # carry exactly the union of their labels.
    fwd = fwd_node(hostname)

    def constrain(tail: GraphNode, label: tuple, head: GraphNode, note: str) -> None:
        if label in labels:
            add_edge(tail, head, Constraint(labels[label], note))

    add_edge(
        fwd,
        disp_node(hostname, Disposition.ACCEPTED),
        Constraint(labels.get(_ACCEPT, FALSE), "destined to device"),
    )
    for dropped in _DROP_DISPOSITIONS.values():
        constrain(fwd, ("drop", dropped), disp_node(hostname, dropped), dropped.value)
    for out_interface in sorted(label[1] for label in labels if label[0] == "fib"):
        constrain(
            fwd, ("fib", out_interface), ("out", hostname, out_interface),
            f"fib -> {out_interface}",
        )

    # --- egress side: out -> zone policy -> src NAT -> out ACL -> wire --
    # (An unnumbered interface has one too: what a static route sends
    # out of it exits the network.)
    for iface in sorted(device.interfaces.values(), key=lambda i: i.name):
        out_point = ("out", hostname, iface.name)
        if not iface.enabled or ("fib", iface.name) not in labels:
            continue  # no FIB entry forwards out this interface
        current = out_point
        if has_zones:
            current = _add_zone_policy(
                add_edge, encoder, device, iface.name, zones, current
            )
        if iface.src_nat_rules:
            nat_point = ("src_nat", hostname, iface.name)
            add_edge(current, nat_point, Identity())
            add_edge(
                nat_point,
                ("post_src_nat", hostname, iface.name),
                Transform(
                    NatPipeline(device, iface.src_nat_rules, kind=None),
                    f"src-nat {iface.name}",
                ),
            )
            current = ("post_src_nat", hostname, iface.name)
        if iface.outgoing_acl:
            acl = device.acls.get(iface.outgoing_acl)
            permit = acl_permit_space(acl, encoder) if acl else TRUE
            acl_point = ("out_acl", hostname, iface.name)
            add_edge(current, acl_point, Identity())
            add_edge(
                acl_point,
                ("post_out_acl", hostname, iface.name),
                Constraint(permit, f"acl {iface.outgoing_acl} permits"),
            )
            add_edge(
                acl_point,
                disp_node(hostname, Disposition.DENIED_OUT),
                Constraint(engine.not_(permit), "acl denies"),
            )
            current = ("post_out_acl", hostname, iface.name)
        egress = ("egress", hostname, iface.name)
        add_edge(current, egress, Identity())
        # On the wire: to the neighbour the FIB's next hop (or, on a
        # connected route, the destination) names, to a host of the
        # subnet, or out of the modelled network. The labels computed at
        # the lookup hold here: only source NAT ran in between.
        for l3_edge in topology.edges_from(InterfaceId(hostname, iface.name)):
            constrain(
                egress, ("to", iface.name, l3_edge.head_ip),
                src_node(l3_edge.head.node, l3_edge.head.interface),
                f"to {l3_edge.head.node}",
            )
        constrain(
            egress, ("delivered", iface.name), sink_node(hostname, iface.name),
            "delivered to subnet",
        )
        constrain(
            egress, ("exits", iface.name),
            disp_node(hostname, Disposition.EXITS_NETWORK), "exits network",
        )
    return edges


def _add_zone_policy(add_edge, encoder, device, iface_name, zones, current):
    """Edges enforcing zone-pair policies for traffic leaving via
    ``iface_name``; the zone-in bits are tested and then erased."""
    engine = encoder.engine
    hostname = device.hostname
    to_zone = device.zone_of_interface(iface_name)
    to_index = zones.get(to_zone, 0) if to_zone else 0
    # Intra-zone traffic is permitted by default.
    allowed_parts: List[int] = [encoder.field_eq(f.ZONE_IN, to_index)]
    for (from_zone, policy_to_zone), policy in sorted(device.zone_policies.items()):
        if policy_to_zone != to_zone:
            continue
        from_index = zones.get(from_zone, 0)
        acl = device.acls.get(policy.acl)
        permit = acl_permit_space(acl, encoder) if acl else FALSE
        allowed_parts.append(
            engine.and_(encoder.field_eq(f.ZONE_IN, from_index), permit)
        )
    allowed = engine.or_all(allowed_parts)
    policy_point = ("zone_policy", hostname, iface_name)
    add_edge(current, policy_point, Identity())
    add_edge(
        policy_point,
        disp_node(hostname, Disposition.DENIED_OUT),
        Constraint(engine.not_(allowed), "zone policy denies"),
    )
    cleared = ("zone_clear", hostname, iface_name)
    add_edge(
        policy_point,
        cleared,
        Constraint(allowed, "zone policy permits"),
    )
    erased = ("post_zone", hostname, iface_name)
    add_edge(cleared, erased, EraseField(f.ZONE_IN))
    return erased
