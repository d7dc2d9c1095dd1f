"""The concrete traceroute engine.

This engine forwards one concrete packet hop by hop through the modeled
data plane, recording every ACL, FIB, NAT, and zone decision it touches.
It is deliberately an *independent implementation* of forwarding
semantics from the symbolic BDD engine: §4.3.2 uses the two engines to
cross-validate each other ("Batfish has two independent forwarding
analysis engines ... Validating that such engines produce identical
results is instrumental in uncovering modeling bugs").

It also powers Stage 4 (explaining violations): example packets from the
symbolic engine are traced here to annotate them with the specific
routing and filtering entries along their path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.config.model import Action, Device
from repro.dataplane.acl import evaluate_acl, evaluate_acl_trace
from repro.dataplane.fib import Fib, FibActionType
from repro.dataplane.nat import NatPipeline
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.provenance import record as prov
from repro.reachability.graph import Disposition
from repro.routing.engine import DataPlane
from repro.routing.topology import InterfaceId

_MAX_HOPS = 64


@dataclass
class TraceStep:
    kind: str  # "acl" | "fib" | "nat" | "zone" | "arrive" | "final"
    detail: str
    #: Per-line/rule evaluation records (ACL line walk, NAT rule walk,
    #: resolved route) — populated only while provenance recording is on.
    lines: Tuple[str, ...] = ()


@dataclass
class TraceHop:
    node: str
    steps: List[TraceStep] = field(default_factory=list)

    def add(self, kind: str, detail: str, lines: Tuple[str, ...] = ()) -> None:
        self.steps.append(TraceStep(kind, detail, lines))

    def describe(self) -> str:
        inner = "; ".join(step.detail for step in self.steps)
        return f"{self.node}: {inner}"


@dataclass
class Trace:
    """One path a packet takes (ECMP produces several traces)."""

    disposition: Disposition
    hops: List[TraceHop]
    final_packet: Packet  # after all transformations

    def path_nodes(self) -> List[str]:
        return [hop.node for hop in self.hops]

    def describe(self) -> str:
        path = " -> ".join(self.path_nodes())
        return f"[{self.disposition.value}] {path}"


class TracerouteEngine:
    """Forwards concrete packets through the computed data plane."""

    def __init__(self, dataplane: DataPlane, fibs: Dict[str, Fib]):
        self.dataplane = dataplane
        self.fibs = fibs
        self._own_ips: Dict[str, Set[Ip]] = {}
        for hostname in dataplane.snapshot.hostnames():
            device = dataplane.snapshot.device(hostname)
            self._own_ips[hostname] = {
                address for _n, address, _l in device.interface_ips()
            }

    def trace(
        self, packet: Packet, start_node: str, start_interface: str
    ) -> List[Trace]:
        """Trace a packet entering the network at (node, interface).

        Returns all ECMP paths; each with its disposition and the final
        (possibly NAT-transformed) packet.
        """
        with obs.span("traceroute", node=start_node, interface=start_interface):
            traces = self._arrive(
                packet, start_node, start_interface, hops=[], visited=set()
            )
        if obs.enabled():
            obs.add("traceroute.runs")
            obs.add("traceroute.paths", len(traces))
        return traces

    # ------------------------------------------------------------------

    def _arrive(
        self,
        packet: Packet,
        hostname: str,
        interface_name: str,
        hops: List[TraceHop],
        visited: Set[Tuple[str, str, Packet]],
    ) -> List[Trace]:
        state_key = (hostname, interface_name, packet)
        if state_key in visited or len(hops) >= _MAX_HOPS:
            hop = TraceHop(hostname)
            hop.add("final", "forwarding loop detected")
            return [Trace(Disposition.LOOP, hops + [hop], packet)]
        visited = visited | {state_key}
        device = self.dataplane.snapshot.device(hostname)
        hop = TraceHop(hostname)
        hop.add("arrive", f"received on {interface_name}: {packet.describe()}")
        iface = device.interfaces.get(interface_name)
        obs.add("traceroute.hops")
        obs.touch("interface", hostname, interface_name)
        recording = prov.enabled()
        # Ingress ACL.
        if iface is not None and iface.incoming_acl:
            acl = device.acls.get(iface.incoming_acl)
            if acl is not None:
                if recording:
                    result, acl_lines = evaluate_acl_trace(acl, packet)
                else:
                    result, acl_lines = evaluate_acl(acl, packet), []
                if result.line_index is not None:
                    obs.touch(
                        "acl_line", hostname, iface.incoming_acl, result.line_index
                    )
                hop.add(
                    "acl",
                    f"in acl {iface.incoming_acl}: {result.describe()}",
                    tuple(acl_lines),
                )
                if not result.permitted:
                    hop.add("final", "denied by ingress ACL")
                    return [Trace(Disposition.DENIED_IN, hops + [hop], packet)]
        # Destination NAT.
        if iface is not None and iface.dst_nat_rules:
            pipeline = NatPipeline(device, iface.dst_nat_rules, kind=None)
            if recording:
                transformed, nat_lines = pipeline.apply_concrete_trace(packet)
            else:
                transformed, nat_lines = pipeline.apply_concrete(packet), []
            if transformed != packet:
                hop.add(
                    "nat",
                    f"dst nat: {packet.dst_ip} -> {transformed.dst_ip}",
                    tuple(nat_lines),
                )
                packet = transformed
        in_zone = device.zone_of_interface(interface_name) if iface else None
        # Accept locally?
        if packet.dst_ip in self._own_ips[hostname]:
            hop.add("final", f"accepted: destined to {packet.dst_ip}")
            return [Trace(Disposition.ACCEPTED, hops + [hop], packet)]
        # FIB lookup.
        entries = self.fibs[hostname].lookup(packet.dst_ip)
        if not entries:
            hop.add("fib", "no matching route")
            hop.add("final", "no route")
            return [Trace(Disposition.NO_ROUTE, hops + [hop], packet)]
        traces: List[Trace] = []
        for entry in entries:
            branch_hop = TraceHop(hostname, steps=list(hop.steps))
            fib_lines: Tuple[str, ...] = ()
            if recording and entry.source_route is not None:
                fib_lines = (f"route: {entry.source_route.describe()}",)
            branch_hop.add("fib", f"matched {entry.describe()}", fib_lines)
            traces.extend(
                self._forward(
                    packet, device, entry, in_zone, branch_hop, hops, visited
                )
            )
        return traces

    def _forward(
        self, packet, device: Device, entry, in_zone, hop, hops, visited
    ) -> List[Trace]:
        hostname = device.hostname
        recording = prov.enabled()
        if entry.action is FibActionType.DROP_NULL:
            hop.add("final", "null routed")
            return [Trace(Disposition.NULL_ROUTED, hops + [hop], packet)]
        if entry.action is FibActionType.DROP_NO_ROUTE:
            hop.add("final", "unresolvable route")
            return [Trace(Disposition.NO_ROUTE, hops + [hop], packet)]
        out_iface = device.interfaces.get(entry.out_interface)
        # Zone policy (stateful firewall forward path).
        if device.zones:
            out_zone = device.zone_of_interface(entry.out_interface)
            permitted, detail, zone_lines = self._zone_permits(
                device, in_zone, out_zone, packet, recording
            )
            hop.add("zone", detail, tuple(zone_lines))
            if not permitted:
                hop.add("final", "denied by zone policy")
                return [Trace(Disposition.DENIED_OUT, hops + [hop], packet)]
        # Source NAT.
        if out_iface is not None and out_iface.src_nat_rules:
            pipeline = NatPipeline(device, out_iface.src_nat_rules, kind=None)
            if recording:
                transformed, nat_lines = pipeline.apply_concrete_trace(packet)
            else:
                transformed, nat_lines = pipeline.apply_concrete(packet), []
            if transformed != packet:
                hop.add(
                    "nat",
                    f"src nat: {packet.src_ip} -> {transformed.src_ip}",
                    tuple(nat_lines),
                )
                packet = transformed
        # Egress ACL.
        if out_iface is not None and out_iface.outgoing_acl:
            acl = device.acls.get(out_iface.outgoing_acl)
            if acl is not None:
                if recording:
                    result, acl_lines = evaluate_acl_trace(acl, packet)
                else:
                    result, acl_lines = evaluate_acl(acl, packet), []
                if result.line_index is not None:
                    obs.touch(
                        "acl_line",
                        hostname,
                        out_iface.outgoing_acl,
                        result.line_index,
                    )
                hop.add(
                    "acl",
                    f"out acl {out_iface.outgoing_acl}: {result.describe()}",
                    tuple(acl_lines),
                )
                if not result.permitted:
                    hop.add("final", "denied by egress ACL")
                    return [Trace(Disposition.DENIED_OUT, hops + [hop], packet)]
        # Hand off to the neighbor / sink.
        return self._transmit(packet, device, entry, out_iface, hop, hops, visited)

    def _transmit(
        self, packet, device, entry, out_iface, hop, hops, visited
    ) -> List[Trace]:
        hostname = device.hostname
        interface_id = InterfaceId(hostname, entry.out_interface)
        neighbor_edges = self.dataplane.topology.edges_from(interface_id)
        target_ip = entry.arp_ip if entry.arp_ip is not None else packet.dst_ip
        for l3_edge in neighbor_edges:
            if l3_edge.head_ip == target_ip:
                hop.add(
                    "final",
                    f"forwarded out {entry.out_interface} to "
                    f"{l3_edge.head.node} ({target_ip})",
                )
                return self._arrive(
                    packet,
                    l3_edge.head.node,
                    l3_edge.head.interface,
                    hops + [hop],
                    visited,
                )
        # No modeled neighbor owns the target address.
        prefix = out_iface.prefix if out_iface is not None else None
        if (
            entry.arp_ip is None
            and prefix is not None
            and prefix.contains_ip(packet.dst_ip)
        ):
            hop.add("final", f"delivered to subnet {prefix}")
            return [Trace(Disposition.DELIVERED, hops + [hop], packet)]
        hop.add("final", f"exits network via {entry.out_interface}")
        return [Trace(Disposition.EXITS_NETWORK, hops + [hop], packet)]

    def _zone_permits(
        self, device: Device, in_zone, out_zone, packet, recording: bool = False
    ) -> Tuple[bool, str, List[str]]:
        if in_zone == out_zone:
            return True, f"intra-zone {in_zone}: permit", []
        policy = device.zone_policies.get((in_zone, out_zone)) if in_zone and out_zone else None
        if policy is None:
            return False, f"no policy {in_zone} -> {out_zone}: deny", []
        acl = device.acls.get(policy.acl)
        if acl is None:
            return False, f"zone policy acl {policy.acl} undefined: deny", []
        if recording:
            result, acl_lines = evaluate_acl_trace(acl, packet)
        else:
            result, acl_lines = evaluate_acl(acl, packet), []
        if result.line_index is not None:
            obs.touch("acl_line", device.hostname, policy.acl, result.line_index)
        return (
            result.permitted,
            f"zone policy {in_zone} -> {out_zone}: {result.describe()}",
            acl_lines,
        )
