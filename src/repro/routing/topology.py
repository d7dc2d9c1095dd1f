"""Layer-3 topology inference.

Batfish infers adjacency from configuration alone: two enabled,
addressed interfaces are L3-adjacent when they share an IP subnet. This
also yields the "do we have the remote end of the link?" signal used by
the usability heuristics for identifying host-facing interfaces
(§4.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.config.model import Snapshot
from repro.hdr.ip import Ip, Prefix


@dataclass(frozen=True, order=True)
class InterfaceId:
    """A (device, interface) pair — the unit of topology and of query
    locations."""

    node: str
    interface: str

    def __str__(self) -> str:
        return f"{self.node}[{self.interface}]"


@dataclass(frozen=True)
class Layer3Edge:
    """A directed L3 adjacency from ``tail`` to ``head``."""

    tail: InterfaceId
    head: InterfaceId
    tail_ip: Ip
    head_ip: Ip

    def reversed(self) -> "Layer3Edge":
        return Layer3Edge(self.head, self.tail, self.head_ip, self.tail_ip)


class Layer3Topology:
    """The set of inferred L3 adjacencies with lookup indices."""

    def __init__(self, edges: List[Layer3Edge]):
        self._edges = sorted(edges, key=lambda e: (e.tail, e.head))
        self._by_tail: Dict[InterfaceId, List[Layer3Edge]] = {}
        self._by_node: Dict[str, List[Layer3Edge]] = {}
        for edge in self._edges:
            self._by_tail.setdefault(edge.tail, []).append(edge)
            self._by_node.setdefault(edge.tail.node, []).append(edge)

    def edges(self) -> List[Layer3Edge]:
        return list(self._edges)

    def edges_from(self, interface: InterfaceId) -> List[Layer3Edge]:
        return list(self._by_tail.get(interface, []))

    def node_edges(self, node: str) -> List[Layer3Edge]:
        """Edges whose tail is on ``node``."""
        return list(self._by_node.get(node, []))

    def neighbors(self, node: str) -> List[str]:
        return sorted({edge.head.node for edge in self._by_node.get(node, [])})

    def has_remote_end(self, interface: InterfaceId) -> bool:
        """Whether the snapshot contains the other end of this link."""
        return bool(self._by_tail.get(interface))


def build_layer3_topology(snapshot: Snapshot) -> Layer3Topology:
    """Infer L3 edges: interfaces whose addresses lie in a shared subnet.

    Point-to-point links produce two directed edges; LAN segments with
    more than two attached interfaces produce a full mesh.
    """
    attached: Dict[Prefix, List[Tuple[InterfaceId, Ip]]] = {}
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for iface_name, address, length in device.interface_ips():
            interface_id = InterfaceId(hostname, iface_name)
            prefix = Prefix(address, length)
            attached.setdefault(prefix, []).append((interface_id, address))
    edges: List[Layer3Edge] = []
    for prefix, members in attached.items():
        if len(members) < 2:
            continue
        for tail, tail_ip in members:
            for head, head_ip in members:
                if tail == head or tail.node == head.node:
                    continue
                edges.append(Layer3Edge(tail, head, tail_ip, head_ip))
    topology = Layer3Topology(edges)
    return topology


def duplicate_ips(
    snapshot: Snapshot, include_inactive: bool = False
) -> List[Tuple[Ip, List[InterfaceId]]]:
    """Addresses assigned to more than one interface (a Lesson 5 check).

    Administratively-shutdown interfaces are ignored by default: an
    address shared between a disabled interface and its replacement is
    routine (staged migration), not a conflict. Pass
    ``include_inactive=True`` to audit disabled interfaces too.
    """
    owners: Dict[Ip, List[InterfaceId]] = {}
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for iface_name, iface in sorted(device.interfaces.items()):
            if iface.address is None:
                continue
            if not iface.enabled and not include_inactive:
                continue
            owners.setdefault(iface.address, []).append(
                InterfaceId(hostname, iface_name)
            )
    return sorted(
        (ip, ifaces) for ip, ifaces in owners.items() if len(ifaces) > 1
    )
