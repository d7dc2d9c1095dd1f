"""The forwarding-graph builder's *old* destination-address labels,
kept as a test-only reference.

Until PR 23 the builder took the FIB's action spaces from one fold of
the FIB (``fib_action_spaces``) and then carved everything else out of
them with BDD ``apply`` calls: ``∧ ¬own`` for the device's own
addresses (``own_ip_space``), and per egress interface an ``and_`` with
each neighbour's address cube and a ``diff`` against the connected
subnet and the neighbours together (``_wire_egress``). The builder now
reads all of those labels off one fold
(:func:`repro.reachability.graph.destination_labels`); this module is
the old arithmetic, moved here as it was, plus the two loops of
``_build_device_pipeline`` that turned it into edges.
"""

from typing import Dict, List, Optional, Tuple

from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Device
from repro.dataplane.fib import ActionKey, Fib, FibActionType
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Ip
from repro.reachability.graph import (
    Disposition,
    GraphNode,
    disp_node,
    fwd_node,
    sink_node,
    src_node,
)
from repro.routing.topology import InterfaceId

#: ``(tail, head, note, label)`` of a ``Constraint`` edge.
LabelledEdge = Tuple[GraphNode, GraphNode, str, int]

_DROP_DISPOSITIONS = {
    FibActionType.DROP_NULL: Disposition.NULL_ROUTED,
    FibActionType.DROP_NO_ROUTE: Disposition.NO_ROUTE,
}


def own_ip_space(device: Device, encoder: PacketEncoder) -> int:
    """Packets the device accepts: destined to one of its addresses."""
    return encoder.engine.or_all(
        encoder.ip_eq(f.DST_IP, address)
        for _name, address, _len in device.interface_ips()
    )


def fib_action_spaces(
    fib: Fib, own_ip_set: int, encoder: PacketEncoder
) -> Dict[ActionKey, int]:
    """The packet set each action of ``fib`` applies to: longest-prefix
    match, minus the device's own addresses (accepted before the
    lookup). Empty sets are left out; what no prefix covers is under
    ``NO_ROUTE_KEY`` together with the unresolvable routes."""
    engine = encoder.engine
    levels = encoder.layout.vars_of(f.DST_IP)
    parts: Dict[ActionKey, List[int]] = {}
    for (keys, _no_marks), space in fib.lpm_classes(
        lambda depth, lo, hi: engine.mk(levels[depth], lo, hi), TRUE, FALSE
    ).items():
        for key in keys:
            parts.setdefault(key, []).append(space)
    not_accepted = engine.not_(own_ip_set)
    spaces: Dict[ActionKey, int] = {}
    for key in sorted(parts, key=repr):
        space = engine.and_(engine.or_all(parts[key]), not_accepted)
        if space != FALSE:
            spaces[key] = space
    return spaces


def destination_edges(
    device: Device, fib: Fib, topology, encoder: PacketEncoder
) -> List[LabelledEdge]:
    """The edges out of the device's ``fwd`` node and out of its
    ``egress`` nodes, in the order the builder adds them."""
    hostname = device.hostname
    own_ip_set = own_ip_space(device, encoder)
    fwd = fwd_node(hostname)
    edges: List[LabelledEdge] = [
        (fwd, disp_node(hostname, Disposition.ACCEPTED), "destined to device", own_ip_set)
    ]
    # Per out-interface: which packet spaces are forwarded toward which
    # next hop (arp_ip None = deliver toward the destination itself).
    arp_spaces: Dict[str, Dict[Optional[Ip], int]] = {}
    for (action, out_interface, arp_ip), space in fib_action_spaces(
        fib, own_ip_set, encoder
    ).items():
        if action is FibActionType.FORWARD:
            arp_spaces.setdefault(out_interface, {})[arp_ip] = space
        else:
            dropped = _DROP_DISPOSITIONS[action]
            edges.append((fwd, disp_node(hostname, dropped), dropped.value, space))
    engine = encoder.engine
    for out_interface in sorted(arp_spaces):
        edges.append(
            (
                fwd,
                ("out", hostname, out_interface),
                f"fib -> {out_interface}",
                engine.or_all(arp_spaces[out_interface].values()),
            )
        )
    for iface in sorted(device.interfaces.values(), key=lambda i: i.name):
        if iface.enabled and iface.name in arp_spaces:
            edges += _wire_egress(
                device, iface, ("egress", hostname, iface.name), topology,
                encoder, arp_spaces[iface.name],
            )
    return edges


def _wire_egress(
    device, iface, egress, topology, encoder, arp_spaces: Dict[Optional[Ip], int]
) -> List[LabelledEdge]:
    """Connect an egress point to neighbors and/or sinks, honouring the
    FIB's next-hop choice on multi-access links.

    ``arp_spaces`` maps next-hop address (None = deliver toward the
    destination itself) to the dst-based packet space forwarded that
    way.
    """
    engine = encoder.engine
    hostname = device.hostname
    edges: List[LabelledEdge] = []
    interface_id = InterfaceId(hostname, iface.name)
    neighbor_edges = topology.edges_from(interface_id)
    neighbor_ip_set: Dict[Ip, object] = {e.head_ip: e for e in neighbor_edges}
    direct_space = arp_spaces.get(None, FALSE)
    for l3_edge in neighbor_edges:
        to_neighbor = arp_spaces.get(l3_edge.head_ip, FALSE)
        # Directly-delivered traffic destined to the neighbor's own
        # address also crosses the link.
        to_neighbor = engine.or_(
            to_neighbor,
            engine.and_(direct_space, encoder.ip_eq(f.DST_IP, l3_edge.head_ip)),
        )
        if to_neighbor == FALSE:
            continue
        head = src_node(l3_edge.head.node, l3_edge.head.interface)
        edges.append((egress, head, f"to {l3_edge.head.node}", to_neighbor))
    prefix = iface.prefix
    delivered = FALSE
    neighbor_ips = engine.or_all(
        encoder.ip_eq(f.DST_IP, ip) for ip in neighbor_ip_set
    )
    if prefix is not None:
        # Delivered to hosts on the connected subnet (addresses not owned
        # by modeled neighbors).
        subnet = encoder.ip_in_prefix(f.DST_IP, prefix)
        delivered = engine.and_(direct_space, engine.diff(subnet, neighbor_ips))
        if delivered != FALSE:
            edges.append(
                (egress, sink_node(hostname, iface.name), "delivered to subnet", delivered)
            )
    # Traffic forwarded toward an unmodeled next hop (e.g. a provider
    # address we do not have the config for), or directly forwarded
    # beyond the subnet, exits the network here.
    exit_parts: List[int] = [
        engine.diff(engine.diff(direct_space, delivered), neighbor_ips)
    ]
    for arp_ip in sorted(
        (ip for ip in arp_spaces if ip is not None), key=lambda ip: ip.value
    ):
        if arp_ip not in neighbor_ip_set:
            exit_parts.append(arp_spaces[arp_ip])
    exits = engine.or_all(exit_parts)
    if exits != FALSE:
        edges.append(
            (egress, disp_node(hostname, Disposition.EXITS_NETWORK), "exits network", exits)
        )
    return edges
