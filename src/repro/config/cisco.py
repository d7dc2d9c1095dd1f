"""Parser for the ``ciscoish`` configuration syntax (IOS-flavoured).

Per the paper's Stage 1, parsing is two-phase:

1. :class:`CiscoParser` turns configuration text into a *vendor-specific*
   representation (:class:`CiscoConfig`) that mirrors the syntax — masks
   are kept as wildcard strings, ports as match tokens, and so on;
2. :func:`cisco_to_vi` converts that representation into the
   vendor-independent model of :mod:`repro.config.model`, normalizing
   wildcards to prefixes, port operators to ranges, and vendor defaults
   to explicit values.

Unrecognized lines never abort parsing; they produce
:class:`~repro.config.model.ParseWarning` records (the "long tail of
situations" from Lesson 3 must degrade gracefully).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config.model import (
    Acl,
    AclLine,
    Action,
    AsPathList,
    BgpNeighbor,
    BgpProcess,
    CommunityList,
    Device,
    Interface,
    MatchKind,
    NatKind,
    NatRule,
    OspfProcess,
    ParseWarning,
    PrefixList,
    PrefixListLine,
    Protocol,
    Redistribution,
    RouteMap,
    RouteMapClause,
    RouteMapMatch,
    RouteMapSet,
    SetKind,
    StaticRoute,
    Zone,
    ZonePolicy,
)
from repro.hdr import fields as f
from repro.hdr.ip import Ip, Prefix

_PROTOCOL_NAMES = {
    "ip": None,
    "tcp": f.PROTO_TCP,
    "udp": f.PROTO_UDP,
    "icmp": f.PROTO_ICMP,
    "ospf": f.PROTO_OSPF,
}

_PORT_NAMES = {
    "bgp": 179,
    "domain": 53,
    "ftp": 21,
    "http": 80,
    "www": 80,
    "https": 443,
    "ntp": 123,
    "smtp": 25,
    "snmp": 161,
    "ssh": 22,
    "syslog": 514,
    "telnet": 23,
    "tftp": 69,
}

_REDIST_SOURCES = {
    "connected": Protocol.CONNECTED,
    "static": Protocol.STATIC,
    "ospf": Protocol.OSPF,
    "bgp": Protocol.BGP,
}


# ----------------------------------------------------------------------
# Vendor-specific representation (mirrors the syntax)


@dataclass
class CiscoInterface:
    name: str
    address_words: Optional[Tuple[str, str]] = None  # (ip, mask) or (cidr, "")
    shutdown: bool = False
    description: str = ""
    bandwidth_kbps: Optional[int] = None
    mtu: Optional[int] = None
    access_group_in: Optional[str] = None
    access_group_out: Optional[str] = None
    ospf_cost: Optional[int] = None
    ospf_area: Optional[int] = None
    ospf_passive: bool = False
    ospf_hello_interval: Optional[int] = None
    ospf_dead_interval: Optional[int] = None
    zone_member: Optional[str] = None
    nat_inside: bool = False
    nat_outside: bool = False
    line_number: int = 0


@dataclass
class CiscoAclLine:
    tokens: List[str]
    raw: str
    line_number: int = 0


@dataclass
class CiscoAcl:
    name: str
    standard: bool = False
    lines: List[CiscoAclLine] = field(default_factory=list)
    line_number: int = 0


@dataclass
class CiscoOspf:
    process_id: str
    router_id: Optional[str] = None
    reference_bandwidth_mbps: Optional[int] = None
    passive_interfaces: List[str] = field(default_factory=list)
    networks: List[Tuple[str, str, int]] = field(default_factory=list)
    redistributes: List[Tuple[List[str], int]] = field(default_factory=list)
    default_information_originate: bool = False


@dataclass
class CiscoBgpNeighbor:
    peer: str
    remote_as: Optional[int] = None
    description: str = ""
    route_map_in: Optional[str] = None
    route_map_out: Optional[str] = None
    next_hop_self: bool = False
    send_community: bool = False
    route_reflector_client: bool = False
    ebgp_multihop: bool = False
    update_source: Optional[str] = None
    local_as: Optional[int] = None
    line_number: int = 0


@dataclass
class CiscoBgp:
    asn: int
    router_id: Optional[str] = None
    neighbors: Dict[str, CiscoBgpNeighbor] = field(default_factory=dict)
    networks: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    redistributes: List[Tuple[List[str], int]] = field(default_factory=list)
    maximum_paths: int = 1


@dataclass
class CiscoRouteMapClause:
    action: str
    seq: int
    matches: List[List[str]] = field(default_factory=list)
    sets: List[List[str]] = field(default_factory=list)
    line_number: int = 0


@dataclass
class CiscoNatPool:
    name: str
    start: str
    end: str
    prefix_length: int


@dataclass
class CiscoNatRule:
    direction: str  # "inside source" etc.
    acl: Optional[str]
    pool: Optional[str]
    static_pair: Optional[Tuple[str, str]] = None


@dataclass
class CiscoConfig:
    """Vendor-specific parse result for one ciscoish file."""

    hostname: str = ""
    filename: str = "<config>"
    interfaces: Dict[str, CiscoInterface] = field(default_factory=dict)
    acls: Dict[str, CiscoAcl] = field(default_factory=dict)
    prefix_lists: Dict[str, List[PrefixListLine]] = field(default_factory=dict)
    community_lists: Dict[str, List[str]] = field(default_factory=dict)
    as_path_lists: Dict[str, str] = field(default_factory=dict)
    route_maps: Dict[str, List[CiscoRouteMapClause]] = field(default_factory=dict)
    static_routes: List[Tuple[List[str], int]] = field(default_factory=list)
    ospf: Optional[CiscoOspf] = None
    bgp: Optional[CiscoBgp] = None
    zones: List[str] = field(default_factory=list)
    zone_pairs: List[Tuple[str, str, str, int]] = field(default_factory=list)  # from,to,acl,line
    nat_pools: Dict[str, CiscoNatPool] = field(default_factory=dict)
    nat_rules: List[CiscoNatRule] = field(default_factory=list)
    ntp_servers: List[str] = field(default_factory=list)
    dns_servers: List[str] = field(default_factory=list)
    snmp_communities: List[str] = field(default_factory=list)
    line_count: int = 0
    warnings: List[ParseWarning] = field(default_factory=list)
    #: First definition line of named structures, keyed (kind, name).
    definition_lines: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: ``! lint-disable RULE`` directives: (rule_id, line_number).
    lint_disables: List[Tuple[str, int]] = field(default_factory=list)


class CiscoParser:
    """Line-oriented recursive parser for the ciscoish syntax."""

    def __init__(self, text: str, filename: str = "<config>"):
        self._lines = text.splitlines()
        self._filename = filename
        self._index = 0
        self._config = CiscoConfig(
            filename=filename,
            line_count=len([l for l in self._lines if l.strip()]),
        )

    def parse(self) -> CiscoConfig:
        while self._index < len(self._lines):
            raw = self._lines[self._index]
            line = raw.strip()
            self._index += 1
            if not line or line.startswith("!"):
                if line:
                    self._maybe_lint_disable(line)
                continue
            if raw[0].isspace():
                self._warn(raw, "unexpected indented line at top level")
                continue
            self._top_level(line, raw)
        return self._config

    # -- block dispatch -------------------------------------------------

    def _maybe_lint_disable(self, line: str) -> None:
        """Record ``! lint-disable RULE...`` suppression comments."""
        words = line.lstrip("!#").split()
        if words[:1] == ["lint-disable"]:
            rules = words[1:] or ["*"]
            for rule in rules:
                self._config.lint_disables.append((rule, self._index))

    def _top_level(self, line: str, raw: str) -> None:
        tokens = line.split()
        head = tokens[0]
        number = self._index  # 1-based line number of the line just read
        if head == "hostname" and len(tokens) >= 2:
            self._config.hostname = tokens[1]
        elif head == "interface" and len(tokens) >= 2:
            self._parse_interface(tokens[1], number)
        elif line.startswith("router ospf"):
            self._parse_ospf(tokens[2] if len(tokens) > 2 else "1")
        elif line.startswith("router bgp") and len(tokens) >= 3:
            self._parse_bgp(int(tokens[2]))
        elif head == "ip":
            self._parse_ip_line(tokens, raw)
        elif head == "route-map" and len(tokens) >= 3:
            self._parse_route_map(tokens, number)
        elif head == "ntp" and len(tokens) >= 3 and tokens[1] == "server":
            self._config.ntp_servers.append(tokens[2])
        elif head == "snmp-server" and len(tokens) >= 3 and tokens[1] == "community":
            self._config.snmp_communities.append(tokens[2])
        elif line.startswith("zone security") and len(tokens) >= 3:
            self._config.zones.append(tokens[2])
        elif line.startswith("zone-pair security"):
            self._parse_zone_pair(tokens, number)
        elif head == "access-list":
            self._warn(raw, "numbered ACLs are not supported; use named ACLs")
        else:
            self._warn(raw, "unrecognized top-level line")

    def _block_lines(self):
        """Yield the indented lines of the current block."""
        while self._index < len(self._lines):
            raw = self._lines[self._index]
            if not raw.strip() or raw.strip().startswith("!"):
                self._index += 1
                if not raw.strip().startswith("!"):
                    continue
                self._maybe_lint_disable(raw.strip())
                return  # '!' terminates a block
            if not raw[0].isspace():
                return
            self._index += 1
            yield raw.strip(), raw

    # -- interface ------------------------------------------------------

    def _parse_interface(self, name: str, number: int = 0) -> None:
        iface = self._config.interfaces.setdefault(name, CiscoInterface(name=name))
        if not iface.line_number:
            iface.line_number = number
        for line, raw in self._block_lines():
            tokens = line.split()
            if line.startswith("ip address") and len(tokens) >= 3:
                if len(tokens) >= 4:
                    iface.address_words = (tokens[2], tokens[3])
                else:
                    iface.address_words = (tokens[2], "")
            elif line == "no ip address":
                iface.address_words = None
            elif line == "shutdown":
                iface.shutdown = True
            elif line == "no shutdown":
                iface.shutdown = False
            elif tokens[0] == "description":
                iface.description = line.partition(" ")[2]
            elif tokens[0] == "bandwidth" and len(tokens) >= 2:
                iface.bandwidth_kbps = int(tokens[1])
            elif tokens[0] == "mtu" and len(tokens) >= 2:
                iface.mtu = int(tokens[1])
            elif line.startswith("ip access-group") and len(tokens) >= 4:
                if tokens[3] == "in":
                    iface.access_group_in = tokens[2]
                elif tokens[3] == "out":
                    iface.access_group_out = tokens[2]
                else:
                    self._warn(raw, "access-group direction must be in/out")
            elif line.startswith("ip ospf cost") and len(tokens) >= 4:
                iface.ospf_cost = int(tokens[3])
            elif line.startswith("ip ospf area") and len(tokens) >= 4:
                iface.ospf_area = int(tokens[3])
            elif line == "ip ospf passive":
                iface.ospf_passive = True
            elif line.startswith("ip ospf hello-interval") and len(tokens) >= 4:
                iface.ospf_hello_interval = int(tokens[3])
            elif line.startswith("ip ospf dead-interval") and len(tokens) >= 4:
                iface.ospf_dead_interval = int(tokens[3])
            elif line.startswith("zone-member security") and len(tokens) >= 3:
                iface.zone_member = tokens[2]
            elif line == "ip nat inside":
                iface.nat_inside = True
            elif line == "ip nat outside":
                iface.nat_outside = True
            else:
                self._warn(raw, "unrecognized interface line")

    # -- routing processes ---------------------------------------------

    def _parse_ospf(self, process_id: str) -> None:
        # Re-entering `router ospf N` merges into the existing process,
        # matching device behaviour for repeated configuration blocks.
        if self._config.ospf is not None and self._config.ospf.process_id == process_id:
            ospf = self._config.ospf
        else:
            ospf = CiscoOspf(process_id=process_id)
            self._config.ospf = ospf
        for line, raw in self._block_lines():
            tokens = line.split()
            if tokens[0] == "router-id" and len(tokens) >= 2:
                ospf.router_id = tokens[1]
            elif line.startswith("auto-cost reference-bandwidth") and len(tokens) >= 3:
                ospf.reference_bandwidth_mbps = int(tokens[2])
            elif tokens[0] == "passive-interface" and len(tokens) >= 2:
                ospf.passive_interfaces.append(tokens[1])
            elif tokens[0] == "network" and len(tokens) >= 5 and tokens[3] == "area":
                ospf.networks.append((tokens[1], tokens[2], int(tokens[4])))
            elif tokens[0] == "redistribute":
                ospf.redistributes.append((tokens[1:], self._index))
            elif line == "default-information originate":
                ospf.default_information_originate = True
            else:
                self._warn(raw, "unrecognized ospf line")

    def _parse_bgp(self, asn: int) -> None:
        # Re-entering `router bgp ASN` merges into the existing process.
        if self._config.bgp is not None and self._config.bgp.asn == asn:
            bgp = self._config.bgp
        else:
            bgp = CiscoBgp(asn=asn)
            self._config.bgp = bgp
        for line, raw in self._block_lines():
            tokens = line.split()
            if line.startswith("bgp router-id") and len(tokens) >= 3:
                bgp.router_id = tokens[2]
            elif tokens[0] == "neighbor" and len(tokens) >= 3:
                self._parse_bgp_neighbor(bgp, tokens, raw)
            elif tokens[0] == "network" and len(tokens) >= 2:
                mask = tokens[3] if len(tokens) >= 4 and tokens[2] == "mask" else None
                bgp.networks.append((tokens[1], mask))
            elif tokens[0] == "redistribute":
                bgp.redistributes.append((tokens[1:], self._index))
            elif tokens[0] == "maximum-paths" and len(tokens) >= 2:
                bgp.maximum_paths = int(tokens[1])
            else:
                self._warn(raw, "unrecognized bgp line")

    def _parse_bgp_neighbor(self, bgp: CiscoBgp, tokens: List[str], raw: str) -> None:
        peer = tokens[1]
        neighbor = bgp.neighbors.setdefault(peer, CiscoBgpNeighbor(peer=peer))
        if not neighbor.line_number:
            neighbor.line_number = self._index
        directive = tokens[2]
        if directive == "remote-as" and len(tokens) >= 4:
            neighbor.remote_as = int(tokens[3])
        elif directive == "description":
            neighbor.description = " ".join(tokens[3:])
        elif directive == "route-map" and len(tokens) >= 5:
            if tokens[4] == "in":
                neighbor.route_map_in = tokens[3]
            elif tokens[4] == "out":
                neighbor.route_map_out = tokens[3]
            else:
                self._warn(raw, "route-map direction must be in/out")
        elif directive == "next-hop-self":
            neighbor.next_hop_self = True
        elif directive == "send-community":
            neighbor.send_community = True
        elif directive == "route-reflector-client":
            neighbor.route_reflector_client = True
        elif directive == "ebgp-multihop":
            neighbor.ebgp_multihop = True
        elif directive == "update-source" and len(tokens) >= 4:
            neighbor.update_source = tokens[3]
        elif directive == "local-as" and len(tokens) >= 4:
            neighbor.local_as = int(tokens[3])
        else:
            self._warn(raw, "unrecognized bgp neighbor directive")

    # -- ip ... lines -----------------------------------------------------

    def _parse_ip_line(self, tokens: List[str], raw: str) -> None:
        number = self._index
        if len(tokens) >= 2 and tokens[1] == "route":
            self._config.static_routes.append((tokens[2:], number))
        elif len(tokens) >= 4 and tokens[1] == "access-list":
            standard = tokens[2] == "standard"
            if tokens[2] not in ("extended", "standard"):
                self._warn(raw, "access-list must be extended or standard")
                return
            acl = self._config.acls.setdefault(
                tokens[3], CiscoAcl(name=tokens[3], standard=standard)
            )
            if not acl.line_number:
                acl.line_number = number
            for line, inner_raw in self._block_lines():
                acl.lines.append(
                    CiscoAclLine(
                        tokens=line.split(), raw=line, line_number=self._index
                    )
                )
        elif len(tokens) >= 3 and tokens[1] == "prefix-list":
            name = tokens[2]
            self._config.definition_lines.setdefault(("prefix-list", name), number)
            lines = self._config.prefix_lists.setdefault(name, [])
            try:
                line = _prefix_list_line(tokens[3:])
            except (IndexError, ValueError):
                # A missing or malformed prefix or bound.
                self._warn(raw, "unrecognized prefix-list line")
                line = None
            if line is not None:
                problem = line.bounds_problem()
                if problem:
                    self._warn(raw, f"invalid prefix-list length bounds: {problem}")
                lines.append(line)
        elif len(tokens) >= 5 and tokens[1] == "community-list":
            # ip community-list standard NAME permit A:B ...
            self._config.definition_lines.setdefault(
                ("community-list", tokens[3]), number
            )
            self._config.community_lists.setdefault(tokens[3], []).extend(tokens[5:])
        elif len(tokens) >= 5 and tokens[1] == "as-path" and tokens[2] == "access-list":
            self._config.as_path_lists[tokens[3]] = " ".join(tokens[5:])
        elif len(tokens) >= 3 and tokens[1] == "name-server":
            self._config.dns_servers.append(tokens[2])
        elif len(tokens) >= 3 and tokens[1] == "nat":
            self._parse_nat(tokens, raw)
        else:
            self._warn(raw, "unrecognized ip line")

    def _parse_nat(self, tokens: List[str], raw: str) -> None:
        # ip nat pool NAME START END prefix-length L
        if tokens[2] == "pool" and len(tokens) >= 8 and tokens[6] == "prefix-length":
            self._config.nat_pools[tokens[3]] = CiscoNatPool(
                name=tokens[3], start=tokens[4], end=tokens[5],
                prefix_length=int(tokens[7]),
            )
            return
        # ip nat inside source list ACL pool POOL
        # ip nat inside source static A B
        # ip nat outside source list ACL pool POOL
        if tokens[2] in ("inside", "outside") and len(tokens) >= 5:
            direction = f"{tokens[2]} {tokens[3]}"
            rest = tokens[4:]
            if rest[0] == "list" and len(rest) >= 4 and rest[2] == "pool":
                self._config.nat_rules.append(
                    CiscoNatRule(direction=direction, acl=rest[1], pool=rest[3])
                )
                return
            if rest[0] == "static" and len(rest) >= 3:
                self._config.nat_rules.append(
                    CiscoNatRule(
                        direction=direction, acl=None, pool=None,
                        static_pair=(rest[1], rest[2]),
                    )
                )
                return
        self._warn(raw, "unrecognized nat line")

    # -- route maps, zone pairs ------------------------------------------

    def _parse_route_map(self, tokens: List[str], number: int = 0) -> None:
        name = tokens[1]
        action = tokens[2] if len(tokens) >= 3 else "permit"
        seq = int(tokens[3]) if len(tokens) >= 4 else 10
        self._config.definition_lines.setdefault(("route-map", name), number)
        clause = CiscoRouteMapClause(action=action, seq=seq, line_number=number)
        self._config.route_maps.setdefault(name, []).append(clause)
        for line, raw in self._block_lines():
            inner = line.split()
            if inner[0] == "match":
                numeric = inner[1:2] in (["tag"], ["metric"]) and len(inner) >= 3
                if numeric and not inner[2].isdecimal():
                    self._warn(raw, f"match {inner[1]} {inner[2]} is not a number: matches no route")
                clause.matches.append(inner[1:])
            elif inner[0] == "set":
                clause.sets.append(inner[1:])
            else:
                self._warn(raw, "unrecognized route-map line")

    def _parse_zone_pair(self, tokens: List[str], number: int = 0) -> None:
        # zone-pair security NAME source Z1 destination Z2
        try:
            src = tokens[tokens.index("source") + 1]
            dst = tokens[tokens.index("destination") + 1]
        except (ValueError, IndexError):
            self._warn(" ".join(tokens), "malformed zone-pair")
            return
        acl = ""
        for line, raw in self._block_lines():
            inner = line.split()
            if inner[0] == "service-policy" and len(inner) >= 2:
                acl = inner[-1]
            else:
                self._warn(raw, "unrecognized zone-pair line")
        self._config.zone_pairs.append((src, dst, acl, number))

    def _warn(self, raw: str, comment: str) -> None:
        self._config.warnings.append(
            ParseWarning(
                hostname=self._config.hostname or self._filename,
                line_number=self._index,
                text=raw.strip(),
                comment=comment,
            )
        )


# ----------------------------------------------------------------------
# Conversion to the vendor-independent model


def parse_cisco(text: str, filename: str = "<config>") -> Tuple[Device, List[ParseWarning]]:
    """Parse ciscoish text and convert it to a vendor-independent Device."""
    vendor = CiscoParser(text, filename).parse()
    return cisco_to_vi(vendor), vendor.warnings


def cisco_to_vi(config: CiscoConfig) -> Device:
    """Convert the vendor-specific representation to the VI model."""
    device = Device(
        hostname=config.hostname or "unnamed",
        vendor="ciscoish",
        config_lines=config.line_count,
    )
    for name in config.zones:
        device.zones[name] = Zone(name=name)
    for vendor_iface in config.interfaces.values():
        device.interfaces[vendor_iface.name] = _convert_interface(vendor_iface, config)
        if vendor_iface.zone_member:
            zone = device.zones.setdefault(
                vendor_iface.zone_member, Zone(name=vendor_iface.zone_member)
            )
            zone.interfaces.append(vendor_iface.name)
    for name, vendor_acl in config.acls.items():
        device.acls[name] = _convert_acl(vendor_acl, device, config)
    for name, lines in config.prefix_lists.items():
        device.prefix_lists[name] = PrefixList(
            name=name,
            lines=list(lines),
            source_file=config.filename,
            source_line=config.definition_lines.get(("prefix-list", name), 0),
        )
    for name, communities in config.community_lists.items():
        device.community_lists[name] = CommunityList(
            name=name,
            communities=communities,
            source_file=config.filename,
            source_line=config.definition_lines.get(("community-list", name), 0),
        )
    for name, regex in config.as_path_lists.items():
        device.as_path_lists[name] = AsPathList(name=name, regex=regex)
    for name, clauses in config.route_maps.items():
        device.route_maps[name] = _convert_route_map(name, clauses, config)
    for words, number in config.static_routes:
        route = _convert_static_route(words, config.filename, number)
        if route is not None:
            device.static_routes.append(route)
    if config.ospf is not None:
        device.ospf = _convert_ospf(config.ospf, device, config.filename)
    if config.bgp is not None:
        device.bgp = _convert_bgp(config.bgp, config)
    _convert_nat(config, device)
    for src, dst, acl, number in config.zone_pairs:
        device.zone_policies[(src, dst)] = ZonePolicy(
            from_zone=src, to_zone=dst, acl=acl,
            source_file=config.filename, source_line=number,
        )
    device.ntp_servers = [Ip(s) for s in config.ntp_servers]
    device.dns_servers = [Ip(s) for s in config.dns_servers]
    device.snmp_communities = list(config.snmp_communities)
    device.lint_suppressions = [
        (rule, config.filename, line) for rule, line in config.lint_disables
    ]
    return device


def _convert_interface(vendor: CiscoInterface, config: CiscoConfig) -> Interface:
    iface = Interface(
        name=vendor.name,
        source_file=config.filename,
        source_line=vendor.line_number,
    )
    if vendor.address_words is not None:
        addr, mask = vendor.address_words
        if "/" in addr:
            prefix = Prefix(addr)
            iface.address = Ip(addr.split("/")[0])
            iface.prefix_length = prefix.length
        else:
            iface.address = Ip(addr)
            iface.prefix_length = _mask_to_length(mask)
    iface.enabled = not vendor.shutdown
    iface.description = vendor.description
    if vendor.bandwidth_kbps is not None:
        iface.bandwidth = vendor.bandwidth_kbps * 1000
    if vendor.mtu is not None:
        iface.mtu = vendor.mtu
    iface.incoming_acl = vendor.access_group_in
    iface.outgoing_acl = vendor.access_group_out
    if vendor.ospf_area is not None or vendor.ospf_cost is not None:
        iface.ospf_enabled = True
        iface.ospf_area = vendor.ospf_area or 0
    iface.ospf_cost = vendor.ospf_cost
    iface.ospf_passive = vendor.ospf_passive
    if vendor.ospf_hello_interval is not None:
        iface.ospf_hello_interval = vendor.ospf_hello_interval
    if vendor.ospf_dead_interval is not None:
        iface.ospf_dead_interval = vendor.ospf_dead_interval
    elif vendor.ospf_hello_interval is not None:
        # Vendor default: dead interval follows hello at 4x when unset.
        iface.ospf_dead_interval = vendor.ospf_hello_interval * 4
    iface.zone = vendor.zone_member
    return iface


def _mask_to_length(mask: str) -> int:
    if not mask:
        return 32
    value = Ip(mask).value
    # A netmask must be a run of ones followed by zeros.
    length = bin(value).count("1")
    expected = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    if value != expected:
        raise ValueError(f"not a contiguous netmask: {mask}")
    return length


def _wildcard_to_prefix(addr: str, wildcard: str) -> Prefix:
    """Convert ``addr wildcard`` (inverse mask) to a prefix. Only
    contiguous wildcards are supported (the overwhelmingly common case)."""
    inverse = Ip(wildcard).value ^ 0xFFFFFFFF
    length = bin(inverse).count("1")
    expected = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    if inverse != expected:
        raise ValueError(f"discontiguous wildcard mask: {wildcard}")
    return Prefix(Ip(addr).value, length)


def _convert_acl(vendor: CiscoAcl, device: Device, config: CiscoConfig) -> Acl:
    acl = Acl(
        name=vendor.name,
        source_file=config.filename,
        source_line=vendor.line_number,
    )
    for line in vendor.lines:
        converted = _convert_acl_line(line, vendor.standard, config)
        if converted is not None:
            acl.lines.append(converted)
    return acl


def _convert_acl_line(
    line: CiscoAclLine, standard: bool, config: CiscoConfig
) -> Optional[AclLine]:
    tokens = list(line.tokens)
    if not tokens:
        return None
    if tokens[0] == "remark":
        return None
    if tokens[0] not in ("permit", "deny"):
        config.warnings.append(
            ParseWarning(config.hostname, 0, line.raw, "unrecognized ACL action")
        )
        return None
    action = Action.PERMIT if tokens[0] == "permit" else Action.DENY
    tokens = tokens[1:]
    if standard:
        src, tokens = _parse_acl_address(tokens)
        return AclLine(
            action=action, src=src, name=line.raw,
            source_file=config.filename, source_line=line.line_number,
        )
    if not tokens:
        return None
    proto_word = tokens.pop(0)
    if proto_word not in _PROTOCOL_NAMES:
        config.warnings.append(
            ParseWarning(config.hostname, 0, line.raw, f"unknown protocol {proto_word}")
        )
        return None
    protocol = _PROTOCOL_NAMES[proto_word]
    src, tokens = _parse_acl_address(tokens)
    src_ports, tokens = _parse_acl_ports(tokens)
    dst, tokens = _parse_acl_address(tokens)
    dst_ports, tokens = _parse_acl_ports(tokens)
    established = False
    icmp_type = None
    while tokens:
        word = tokens.pop(0)
        if word == "established":
            established = True
        elif word == "log":
            continue
        elif proto_word == "icmp" and word.isdigit():
            icmp_type = int(word)
        elif proto_word == "icmp" and word in ("echo", "echo-reply"):
            icmp_type = 8 if word == "echo" else 0
        else:
            config.warnings.append(
                ParseWarning(config.hostname, 0, line.raw, f"unrecognized ACL token {word}")
            )
    return AclLine(
        action=action,
        protocol=protocol,
        src=src,
        dst=dst,
        src_ports=src_ports,
        dst_ports=dst_ports,
        established=established,
        icmp_type=icmp_type,
        name=line.raw,
        source_file=config.filename,
        source_line=line.line_number,
    )


def _parse_acl_address(tokens: List[str]) -> Tuple[Optional[Prefix], List[str]]:
    if not tokens:
        return None, tokens
    if tokens[0] == "any":
        return None, tokens[1:]
    if tokens[0] == "host" and len(tokens) >= 2:
        return Prefix(tokens[1] + "/32"), tokens[2:]
    if "/" in tokens[0]:
        return Prefix(tokens[0]), tokens[1:]
    if len(tokens) >= 2 and _looks_like_ip(tokens[0]) and _looks_like_ip(tokens[1]):
        return _wildcard_to_prefix(tokens[0], tokens[1]), tokens[2:]
    return None, tokens


def _parse_acl_ports(tokens: List[str]) -> Tuple[Tuple[Tuple[int, int], ...], List[str]]:
    if not tokens:
        return (), tokens
    word = tokens[0]
    if word == "eq" and len(tokens) >= 2:
        port = _port_value(tokens[1])
        return ((port, port),), tokens[2:]
    if word == "range" and len(tokens) >= 3:
        return ((_port_value(tokens[1]), _port_value(tokens[2])),), tokens[3:]
    if word == "gt" and len(tokens) >= 2:
        return ((_port_value(tokens[1]) + 1, 65535),), tokens[2:]
    if word == "lt" and len(tokens) >= 2:
        return ((0, _port_value(tokens[1]) - 1),), tokens[2:]
    if word == "neq" and len(tokens) >= 2:
        port = _port_value(tokens[1])
        ranges = []
        if port > 0:
            ranges.append((0, port - 1))
        if port < 65535:
            ranges.append((port + 1, 65535))
        return tuple(ranges), tokens[2:]
    return (), tokens


def _port_value(word: str) -> int:
    if word.isdigit():
        return int(word)
    if word in _PORT_NAMES:
        return _PORT_NAMES[word]
    raise ValueError(f"unknown port name: {word}")


def _looks_like_ip(word: str) -> bool:
    return word.count(".") == 3 and all(
        part.isdigit() for part in word.split(".")
    )


def _prefix_list_line(words: List[str]) -> Optional[PrefixListLine]:
    """``[seq N] permit|deny PREFIX [ge N] [le N]``, else None."""
    tokens = list(words)
    if tokens[:1] == ["seq"]:
        tokens = tokens[2:]
    if not tokens or tokens[0] not in ("permit", "deny"):
        return None
    action = Action.PERMIT if tokens[0] == "permit" else Action.DENY
    prefix = Prefix(tokens[1])
    ge = le = None
    rest = tokens[2:]
    while rest:
        if rest[0] == "ge" and len(rest) >= 2:
            ge = int(rest[1])
            rest = rest[2:]
        elif rest[0] == "le" and len(rest) >= 2:
            le = int(rest[1])
            rest = rest[2:]
        else:
            rest = rest[1:]
    return PrefixListLine(action=action, prefix=prefix, ge=ge, le=le)


def _convert_route_map(
    name: str, clauses: List[CiscoRouteMapClause], config: CiscoConfig
) -> RouteMap:
    route_map = RouteMap(
        name=name,
        source_file=config.filename,
        source_line=config.definition_lines.get(("route-map", name), 0),
    )
    for vendor_clause in clauses:
        clause = RouteMapClause(
            seq=vendor_clause.seq,
            action=Action.PERMIT if vendor_clause.action == "permit" else Action.DENY,
            source_file=config.filename,
            source_line=vendor_clause.line_number,
        )
        for words in vendor_clause.matches:
            match = _convert_match(words)
            if match is not None:
                clause.matches.append(match)
        for words in vendor_clause.sets:
            for set_clause in _convert_set(words):
                clause.sets.append(set_clause)
        route_map.clauses.append(clause)
    return route_map


def _convert_match(words: List[str]) -> Optional[RouteMapMatch]:
    if words[:3] == ["ip", "address", "prefix-list"] and len(words) >= 4:
        return RouteMapMatch(MatchKind.PREFIX_LIST, words[3])
    if words[:1] == ["community"] and len(words) >= 2:
        return RouteMapMatch(MatchKind.COMMUNITY, words[1])
    if words[:1] == ["as-path"] and len(words) >= 2:
        return RouteMapMatch(MatchKind.AS_PATH, words[1])
    if words[:1] == ["tag"] and len(words) >= 2:
        return RouteMapMatch(MatchKind.TAG, words[1])
    if words[:1] == ["metric"] and len(words) >= 2:
        return RouteMapMatch(MatchKind.METRIC, words[1])
    return None


def _convert_set(words: List[str]) -> List[RouteMapSet]:
    if words[:1] == ["local-preference"] and len(words) >= 2:
        return [RouteMapSet(SetKind.LOCAL_PREF, words[1])]
    if words[:1] == ["metric"] and len(words) >= 2:
        return [RouteMapSet(SetKind.METRIC, words[1])]
    if words[:1] == ["community"] and len(words) >= 2:
        values = [w for w in words[1:] if w != "additive"]
        kind = (
            SetKind.COMMUNITY_ADDITIVE if "additive" in words else SetKind.COMMUNITY
        )
        return [RouteMapSet(kind, " ".join(values))]
    if words[:2] == ["as-path", "prepend"]:
        return [RouteMapSet(SetKind.AS_PATH_PREPEND, " ".join(words[2:]))]
    if words[:2] == ["ip", "next-hop"] and len(words) >= 3:
        return [RouteMapSet(SetKind.NEXT_HOP, words[2])]
    if words[:1] == ["weight"] and len(words) >= 2:
        return [RouteMapSet(SetKind.WEIGHT, words[1])]
    if words[:1] == ["tag"] and len(words) >= 2:
        return [RouteMapSet(SetKind.TAG, words[1])]
    return []


def _convert_static_route(
    words: List[str], source_file: str = "", source_line: int = 0
) -> Optional[StaticRoute]:
    if len(words) < 3:
        return None
    if "/" in words[0]:
        prefix = Prefix(words[0])
        rest = words[1:]
    else:
        prefix = Prefix(Ip(words[0]).value, _mask_to_length(words[1]))
        rest = words[2:]
    next_hop_ip = None
    next_hop_interface = None
    if _looks_like_ip(rest[0]):
        next_hop_ip = Ip(rest[0])
    else:
        next_hop_interface = rest[0]
    admin = 1
    tag = 0
    rest = rest[1:]
    while rest:
        if rest[0] == "tag" and len(rest) >= 2:
            tag = int(rest[1])
            rest = rest[2:]
        elif rest[0].isdigit():
            admin = int(rest[0])
            rest = rest[1:]
        else:
            rest = rest[1:]
    return StaticRoute(
        prefix=prefix,
        next_hop_ip=next_hop_ip,
        next_hop_interface=next_hop_interface,
        admin_distance=admin,
        tag=tag,
        source_file=source_file,
        source_line=source_line,
    )


def _convert_ospf(
    vendor: CiscoOspf, device: Device, filename: str = "<config>"
) -> OspfProcess:
    ospf = OspfProcess(process_id=vendor.process_id)
    if vendor.router_id:
        ospf.router_id = Ip(vendor.router_id)
    if vendor.reference_bandwidth_mbps is not None:
        ospf.reference_bandwidth = vendor.reference_bandwidth_mbps * 1_000_000
    ospf.default_information_originate = vendor.default_information_originate
    for words, number in vendor.redistributes:
        redist = _convert_redistribution(words, filename, number)
        if redist is not None:
            ospf.redistributions.append(redist)
    # 'network A W area N' statements enable OSPF on matching interfaces.
    for addr, wildcard, area in vendor.networks:
        network = _wildcard_to_prefix(addr, wildcard)
        for iface in device.interfaces.values():
            if iface.address is not None and network.contains_ip(iface.address):
                iface.ospf_enabled = True
                iface.ospf_area = area
    for name in vendor.passive_interfaces:
        if name in device.interfaces:
            device.interfaces[name].ospf_passive = True
    return ospf


def _convert_redistribution(
    words: List[str], source_file: str, source_line: int
) -> Optional[Redistribution]:
    # Provenance is mandatory: every redistribute statement must carry
    # its (file, line) so cross-device dataflow findings can blame the
    # exact line (callers pass the parse index, never placeholders).
    if not words or words[0] not in _REDIST_SOURCES:
        return None
    source = _REDIST_SOURCES[words[0]]
    route_map = None
    metric = None
    rest = words[1:]
    while rest:
        if rest[0] == "route-map" and len(rest) >= 2:
            route_map = rest[1]
            rest = rest[2:]
        elif rest[0] == "metric" and len(rest) >= 2:
            metric = int(rest[1])
            rest = rest[2:]
        else:
            rest = rest[1:]
    return Redistribution(
        source=source, route_map=route_map, metric=metric,
        source_file=source_file, source_line=source_line,
    )


def _convert_bgp(vendor: CiscoBgp, config: CiscoConfig) -> BgpProcess:
    bgp = BgpProcess(local_as=vendor.asn)
    if vendor.router_id:
        bgp.router_id = Ip(vendor.router_id)
    bgp.maximum_paths = vendor.maximum_paths
    for peer, vendor_neighbor in vendor.neighbors.items():
        if vendor_neighbor.remote_as is None:
            continue  # neighbor without remote-as cannot come up
        neighbor = BgpNeighbor(
            peer_ip=Ip(peer),
            remote_as=vendor_neighbor.remote_as,
            description=vendor_neighbor.description,
            import_policy=vendor_neighbor.route_map_in,
            export_policy=vendor_neighbor.route_map_out,
            next_hop_self=vendor_neighbor.next_hop_self,
            send_community=vendor_neighbor.send_community,
            route_reflector_client=vendor_neighbor.route_reflector_client,
            ebgp_multihop=vendor_neighbor.ebgp_multihop,
            update_source=vendor_neighbor.update_source,
            local_as=vendor_neighbor.local_as,
            source_file=config.filename,
            source_line=vendor_neighbor.line_number,
        )
        bgp.neighbors[neighbor.peer_ip] = neighbor
    for addr, mask in vendor.networks:
        if "/" in addr:
            bgp.networks.append(Prefix(addr))
        else:
            length = _mask_to_length(mask) if mask else 32
            bgp.networks.append(Prefix(Ip(addr).value, length))
    for words, number in vendor.redistributes:
        redist = _convert_redistribution(words, config.filename, number)
        if redist is not None:
            bgp.redistributions.append(redist)
    return bgp


def _convert_nat(config: CiscoConfig, device: Device) -> None:
    """Attach NAT rules to interfaces. 'inside source' NAT rewrites the
    source address of traffic leaving any 'ip nat outside' interface."""
    for rule in config.nat_rules:
        pool_prefix = None
        if rule.pool is not None:
            pool = config.nat_pools.get(rule.pool)
            if pool is None:
                config.warnings.append(
                    ParseWarning(
                        config.hostname, 0, f"pool {rule.pool}",
                        "reference to undefined NAT pool",
                    )
                )
                continue
            pool_prefix = Prefix(Ip(pool.start).value, pool.prefix_length)
        if rule.static_pair is not None:
            inside, outside = rule.static_pair
            nat = NatRule(
                kind=NatKind.STATIC,
                match_acl=None,
                pool=Prefix(outside + "/32"),
                static_inside=Prefix(inside + "/32"),
            )
        elif rule.direction == "inside source":
            nat = NatRule(kind=NatKind.SOURCE, match_acl=rule.acl, pool=pool_prefix)
        elif rule.direction == "inside destination":
            nat = NatRule(kind=NatKind.DESTINATION, match_acl=rule.acl, pool=pool_prefix)
        else:
            config.warnings.append(
                ParseWarning(
                    config.hostname, 0, rule.direction, "unsupported NAT direction"
                )
            )
            continue
        for iface in device.interfaces.values():
            vendor_iface = config.interfaces.get(iface.name)
            if vendor_iface is None or not vendor_iface.nat_outside:
                continue
            if nat.kind in (NatKind.SOURCE, NatKind.STATIC):
                iface.src_nat_rules.append(nat)
            else:
                iface.dst_nat_rules.append(nat)
