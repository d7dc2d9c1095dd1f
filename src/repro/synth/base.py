"""Configuration-text builders for synthetic networks.

The Table 1 networks are generated as real configuration *text* in both
supported vendor syntaxes, so benchmarks exercise the entire pipeline —
parsing, vendor-AST conversion, and the VI model — exactly as a real
snapshot would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hdr.ip import Ip, Prefix


@dataclass
class InterfaceSpec:
    name: str
    ip: str
    prefix_length: int
    ospf_area: Optional[int] = None
    ospf_cost: Optional[int] = None
    ospf_passive: bool = False
    acl_in: Optional[str] = None
    acl_out: Optional[str] = None
    zone: Optional[str] = None
    description: str = ""
    nat_inside: bool = False
    nat_outside: bool = False


@dataclass
class NeighborSpec:
    peer_ip: str
    remote_as: int
    route_map_in: Optional[str] = None
    route_map_out: Optional[str] = None
    next_hop_self: bool = False
    send_community: bool = False
    description: str = ""


class CiscoishBuilder:
    """Emit ciscoish configuration text."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self._interfaces: List[InterfaceSpec] = []
        self._statics: List[str] = []
        self._acls: Dict[str, List[str]] = {}
        self._prefix_lists: List[str] = []
        self._route_maps: List[str] = []
        self._community_lists: List[str] = []
        self._ospf: List[str] = []
        self._bgp_as: Optional[int] = None
        self._bgp_lines: List[str] = []
        self._router_id: Optional[str] = None
        self._zones: List[str] = []
        self._zone_pairs: List[Tuple[str, str, str]] = []
        self._nat_lines: List[str] = []
        self._extra: List[str] = []

    def interface(self, spec: InterfaceSpec) -> "CiscoishBuilder":
        self._interfaces.append(spec)
        return self

    def static(self, prefix: str, next_hop: str, admin: Optional[int] = None) -> "CiscoishBuilder":
        p = Prefix(prefix)
        line = f"ip route {p.network} {p.mask} {next_hop}"
        if admin is not None:
            line += f" {admin}"
        self._statics.append(line)
        return self

    def acl(self, name: str, lines: Sequence[str]) -> "CiscoishBuilder":
        self._acls[name] = list(lines)
        return self

    def prefix_list(self, name: str, entries: Sequence[str]) -> "CiscoishBuilder":
        for seq, entry in enumerate(entries, start=1):
            self._prefix_lists.append(f"ip prefix-list {name} seq {seq * 5} {entry}")
        return self

    def community_list(self, name: str, communities: Sequence[str]) -> "CiscoishBuilder":
        joined = " ".join(communities)
        self._community_lists.append(
            f"ip community-list standard {name} permit {joined}"
        )
        return self

    def route_map(self, name: str, action: str, seq: int,
                  matches: Sequence[str] = (), sets: Sequence[str] = ()) -> "CiscoishBuilder":
        self._route_maps.append(f"route-map {name} {action} {seq}")
        for match in matches:
            self._route_maps.append(f" match {match}")
        for set_line in sets:
            self._route_maps.append(f" set {set_line}")
        return self

    def router_id(self, rid: str) -> "CiscoishBuilder":
        self._router_id = rid
        return self

    def ospf(self, *lines: str) -> "CiscoishBuilder":
        self._ospf.extend(lines)
        return self

    def bgp(self, asn: int, *lines: str) -> "CiscoishBuilder":
        self._bgp_as = asn
        self._bgp_lines.extend(lines)
        return self

    def bgp_neighbor(self, spec: NeighborSpec) -> "CiscoishBuilder":
        peer = spec.peer_ip
        self._bgp_lines.append(f"neighbor {peer} remote-as {spec.remote_as}")
        if spec.description:
            self._bgp_lines.append(f"neighbor {peer} description {spec.description}")
        if spec.route_map_in:
            self._bgp_lines.append(f"neighbor {peer} route-map {spec.route_map_in} in")
        if spec.route_map_out:
            self._bgp_lines.append(
                f"neighbor {peer} route-map {spec.route_map_out} out"
            )
        if spec.next_hop_self:
            self._bgp_lines.append(f"neighbor {peer} next-hop-self")
        if spec.send_community:
            self._bgp_lines.append(f"neighbor {peer} send-community")
        return self

    def bgp_line(self, line: str) -> "CiscoishBuilder":
        """Append a raw line inside the ``router bgp`` block."""
        self._bgp_lines.append(line)
        return self

    def zone(self, name: str) -> "CiscoishBuilder":
        self._zones.append(name)
        return self

    def zone_pair(self, source: str, destination: str, acl: str) -> "CiscoishBuilder":
        self._zone_pairs.append((source, destination, acl))
        return self

    def nat_pool(self, name: str, start: str, end: str, length: int) -> "CiscoishBuilder":
        self._nat_lines.append(
            f"ip nat pool {name} {start} {end} prefix-length {length}"
        )
        return self

    def nat_source(self, acl: str, pool: str) -> "CiscoishBuilder":
        self._nat_lines.append(f"ip nat inside source list {acl} pool {pool}")
        return self

    def ntp(self, *servers: str) -> "CiscoishBuilder":
        self._extra.extend(f"ntp server {s}" for s in servers)
        return self

    def dns(self, *servers: str) -> "CiscoishBuilder":
        self._extra.extend(f"ip name-server {s}" for s in servers)
        return self

    def raw(self, *lines: str) -> "CiscoishBuilder":
        self._extra.extend(lines)
        return self

    def render(self) -> str:
        out: List[str] = [f"hostname {self.hostname}", "!"]
        for zone in self._zones:
            out.append(f"zone security {zone}")
        if self._zones:
            out.append("!")
        for iface in self._interfaces:
            out.append(f"interface {iface.name}")
            if iface.description:
                out.append(f" description {iface.description}")
            mask = Prefix(Ip(iface.ip).value, iface.prefix_length).mask
            out.append(f" ip address {iface.ip} {mask}")
            if iface.acl_in:
                out.append(f" ip access-group {iface.acl_in} in")
            if iface.acl_out:
                out.append(f" ip access-group {iface.acl_out} out")
            if iface.ospf_cost is not None:
                out.append(f" ip ospf cost {iface.ospf_cost}")
            if iface.ospf_area is not None:
                out.append(f" ip ospf area {iface.ospf_area}")
            if iface.ospf_passive:
                out.append(" ip ospf passive")
            if iface.zone:
                out.append(f" zone-member security {iface.zone}")
            if iface.nat_inside:
                out.append(" ip nat inside")
            if iface.nat_outside:
                out.append(" ip nat outside")
            out.append("!")
        if self._ospf or any(i.ospf_area is not None for i in self._interfaces):
            out.append("router ospf 1")
            if self._router_id:
                out.append(f" router-id {self._router_id}")
            out.extend(f" {line}" for line in self._ospf)
            out.append("!")
        if self._bgp_as is not None:
            out.append(f"router bgp {self._bgp_as}")
            if self._router_id:
                out.append(f" bgp router-id {self._router_id}")
            out.extend(f" {line}" for line in self._bgp_lines)
            out.append("!")
        out.extend(self._statics)
        if self._statics:
            out.append("!")
        for name, lines in self._acls.items():
            out.append(f"ip access-list extended {name}")
            out.extend(f" {line}" for line in lines)
            out.append("!")
        out.extend(self._prefix_lists)
        out.extend(self._community_lists)
        out.extend(self._route_maps)
        if self._route_maps:
            out.append("!")
        out.extend(self._nat_lines)
        for source, destination, acl in self._zone_pairs:
            out.append(
                f"zone-pair security ZP_{source}_{destination} "
                f"source {source} destination {destination}"
            )
            out.append(f" service-policy type inspect {acl}")
            out.append("!")
        out.extend(self._extra)
        out.append("")
        return "\n".join(out)


class JuniperishBuilder:
    """Emit juniperish (set-style) configuration text."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self._lines: List[str] = [f"set system host-name {hostname}"]

    def interface(self, spec: InterfaceSpec) -> "JuniperishBuilder":
        base = f"set interfaces {spec.name}"
        self._lines.append(
            f"{base} unit 0 family inet address {spec.ip}/{spec.prefix_length}"
        )
        if spec.description:
            self._lines.append(f"{base} description {spec.description}")
        if spec.acl_in:
            self._lines.append(f"{base} unit 0 family inet filter input {spec.acl_in}")
        if spec.acl_out:
            self._lines.append(
                f"{base} unit 0 family inet filter output {spec.acl_out}"
            )
        if spec.ospf_area is not None:
            ospf = f"set protocols ospf area {spec.ospf_area} interface {spec.name}"
            if spec.ospf_passive:
                self._lines.append(f"{ospf} passive")
            elif spec.ospf_cost is not None:
                self._lines.append(f"{ospf} metric {spec.ospf_cost}")
            else:
                self._lines.append(ospf)
        if spec.zone:
            self._lines.append(
                f"set security zones security-zone {spec.zone} interfaces {spec.name}"
            )
        return self

    def router_id(self, rid: str) -> "JuniperishBuilder":
        self._lines.append(f"set routing-options router-id {rid}")
        return self

    def static(self, prefix: str, next_hop: str) -> "JuniperishBuilder":
        self._lines.append(
            f"set routing-options static route {prefix} next-hop {next_hop}"
        )
        return self

    def bgp_local_as(self, asn: int) -> "JuniperishBuilder":
        self._lines.append(f"set protocols bgp local-as {asn}")
        return self

    def bgp_neighbor(self, spec: NeighborSpec, group: str = "PEERS") -> "JuniperishBuilder":
        base = f"set protocols bgp group {group} neighbor {spec.peer_ip}"
        self._lines.append(f"{base} peer-as {spec.remote_as}")
        if spec.route_map_in:
            self._lines.append(f"{base} import {spec.route_map_in}")
        if spec.route_map_out:
            self._lines.append(f"{base} export {spec.route_map_out}")
        if spec.description:
            self._lines.append(f"{base} description {spec.description}")
        return self

    def filter_term(self, filter_name: str, term: str,
                    froms: Sequence[str] = (), then: str = "accept") -> "JuniperishBuilder":
        base = f"set firewall filter {filter_name} term {term}"
        for from_clause in froms:
            self._lines.append(f"{base} from {from_clause}")
        self._lines.append(f"{base} then {then}")
        return self

    def prefix_list(self, name: str, prefixes: Sequence[str]) -> "JuniperishBuilder":
        for prefix in prefixes:
            self._lines.append(f"set policy-options prefix-list {name} {prefix}")
        return self

    def ntp(self, *servers: str) -> "JuniperishBuilder":
        self._lines.extend(f"set system ntp server {s}" for s in servers)
        return self

    def raw(self, *lines: str) -> "JuniperishBuilder":
        self._lines.extend(lines)
        return self

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def p2p_subnet(block: int, link_index: int) -> Tuple[str, str, int]:
    """Deterministic /30 point-to-point addressing: returns the two
    endpoint addresses and the prefix length.

    ``block`` selects a 10.<block>.x.y region; ``link_index`` the link.
    """
    if not 0 <= link_index < (1 << 14):
        raise ValueError(f"link index out of range: {link_index}")
    base = (10 << 24) | (block << 16) | (link_index << 2)
    return str(Ip(base + 1)), str(Ip(base + 2)), 30


def host_subnet(block: int, index: int) -> Prefix:
    """Deterministic /24 host subnet in the 172.16.0.0/12 region."""
    value = (172 << 24) | ((16 + (block & 0xF)) << 16) | ((index & 0xFF) << 8)
    return Prefix(value, 24)


def loopback_ip(index: int) -> str:
    """Deterministic router loopback: 192.168.x.y/32 space."""
    return str(Ip((192 << 24) | (168 << 16) | (index & 0xFFFF)))
