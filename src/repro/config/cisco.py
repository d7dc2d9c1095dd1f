"""Parser for the ``ciscoish`` configuration syntax (IOS-flavoured).

Per the paper's Stage 1, configuration text becomes the vendor-independent
model of :mod:`repro.config.model`. It does so in one pass: a top-level
line chooses the handler of its block, each indented line goes to that
handler, and each handler writes the model objects its line denotes as
it reads it, normalizing wildcards to prefixes, port operators to ranges
and vendor defaults to explicit values. A short :meth:`_Parser.finish`
resolves only what a line may name before it is defined: OSPF
``network``/``passive-interface`` statements against interfaces, NAT
rules against pools and ``ip nat outside``, the dead interval a hello
interval implies, and neighbors that never got a ``remote-as``.

Every line runs under :func:`~repro.config.model.diagnosed`: a line the
parser cannot model becomes one located
:class:`~repro.config.model.ParseWarning` and is left out of the model,
and a block header that fails takes its block with it (the "long tail of
situations" from Lesson 3 must degrade gracefully).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.config.model import (
    Acl,
    AclLine,
    Action,
    AsPathList,
    AsPathListLine,
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
    as_path_regex,
    diagnosed,
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

#: ``neighbor PEER WORD`` flags and the :class:`BgpNeighbor` field each sets.
_NEIGHBOR_FLAGS = {
    "next-hop-self": "next_hop_self",
    "send-community": "send_community",
    "route-reflector-client": "route_reflector_client",
    "ebgp-multihop": "ebgp_multihop",
}

#: ``ip nat inside source|destination list ACL pool POOL`` kinds.
_NAT_KINDS = {"source": NatKind.SOURCE, "destination": NatKind.DESTINATION}


def parse_cisco(text: str, filename: str = "<config>") -> Tuple[Device, List[ParseWarning]]:
    """Parse ciscoish text into a vendor-independent Device."""
    parser = _Parser(text, filename)
    parser.parse()
    return parser.device, parser.warnings


def _stray(tokens: List[str]) -> None:
    raise ValueError("unexpected indented line at top level")


def _ignore(tokens: List[str]) -> None:
    """The block of a header that failed: its lines go with it."""


class _Parser:
    """One ciscoish file: the device it writes and the warnings it gives."""

    def __init__(self, text: str, filename: str):
        self.lines = text.splitlines()
        self.filename = filename
        self.device = Device(
            hostname="", vendor="ciscoish",
            config_lines=sum(1 for line in self.lines if line.strip()),
        )
        self.warnings: List[ParseWarning] = []
        self.number = 0
        self.line = ""
        self._block = _stray
        # What finish() resolves once every line is read.
        self._explicit_dead: Set[str] = set()
        self._nat_outside: Set[str] = set()
        self._ospf_networks: List[Tuple[Prefix, int]] = []
        self._passive: List[str] = []
        self._nat_pools: Dict[str, Prefix] = {}
        #: (kind, acl, pool prefix or pool name, static inside, line, text)
        self._nat_rules: List[
            Tuple[NatKind, Optional[str], Union[Prefix, str], Optional[Prefix], int, str]
        ] = []

    def parse(self) -> None:
        for number, raw in enumerate(self.lines, start=1):
            line = raw.strip()
            if not line or line[0] == "!":
                if line:  # '!' ends a block
                    self._block = _stray
                    self._lint_disable(line, number)
                continue
            self.number, self.line = number, line
            hostname = self.device.hostname or self.filename
            if raw[0].isspace():
                diagnosed(self.warnings, hostname, self.filename, number, line, self._block)
            else:
                self._block = diagnosed(
                    self.warnings, hostname, self.filename, number, line,
                    self._top_level, failed=_ignore,
                ) or _stray
        self.finish()

    def _warn(self, comment: str, number: int = 0, text: str = "") -> None:
        self.warnings.append(ParseWarning(
            self.device.hostname or self.filename, number or self.number,
            text or self.line, comment, self.filename,
        ))

    def _lint_disable(self, line: str, number: int) -> None:
        """Record ``! lint-disable RULE...`` suppression comments."""
        words = line.lstrip("!#").split()
        if words[:1] == ["lint-disable"]:
            for rule in words[1:] or ["*"]:
                self.device.lint_suppressions.append((rule, self.filename, number))

    # -- top level --------------------------------------------------------

    def _top_level(self, tokens: List[str]):
        """Model one top-level line; returns the handler of the indented
        lines of the block it opens, or None."""
        head, device = tokens[0], self.device
        if head == "hostname" and len(tokens) >= 2:
            device.hostname = tokens[1]
        elif head == "interface" and len(tokens) >= 2:
            return self._interface(tokens[1])
        elif tokens[:2] == ["router", "ospf"]:
            return self._ospf(tokens[2] if len(tokens) > 2 else "1")
        elif tokens[:2] == ["router", "bgp"] and len(tokens) >= 3:
            return self._bgp(int(tokens[2]))
        elif head == "ip":
            return self._ip(tokens)
        elif head == "route-map" and len(tokens) >= 3:
            return self._route_map(tokens)
        elif tokens[:2] == ["ntp", "server"] and len(tokens) >= 3:
            device.ntp_servers.append(Ip(tokens[2]))
        elif tokens[:2] == ["snmp-server", "community"] and len(tokens) >= 3:
            device.snmp_communities.append(tokens[2])
        elif tokens[:2] == ["zone", "security"] and len(tokens) >= 3:
            device.zones.setdefault(tokens[2], Zone(name=tokens[2]))
        elif tokens[:2] == ["zone-pair", "security"]:
            return self._zone_pair(tokens)
        elif head == "access-list":
            raise ValueError("numbered ACLs are not supported; use named ACLs")
        else:
            raise ValueError("unrecognized top-level line")
        return None

    # -- interface --------------------------------------------------------

    def _interface(self, name: str):
        iface = self.device.interfaces.setdefault(name, Interface(
            name=name, source_file=self.filename, source_line=self.number,
        ))
        return partial(self._interface_line, iface)

    def _interface_line(self, iface: Interface, tokens: List[str]) -> None:
        line = self.line
        if tokens[:2] == ["ip", "address"] and len(tokens) >= 3:
            iface.address, iface.prefix_length = _address(
                tokens[2], tokens[3] if len(tokens) >= 4 else ""
            )
        elif line == "no ip address":
            iface.address = iface.prefix_length = None
        elif line in ("shutdown", "no shutdown"):
            iface.enabled = line == "no shutdown"
        elif tokens[0] == "description":
            iface.description = line.partition(" ")[2]
        elif tokens[0] == "bandwidth" and len(tokens) >= 2:
            iface.bandwidth = int(tokens[1]) * 1000  # configured in kbps
        elif tokens[0] == "mtu" and len(tokens) >= 2:
            iface.mtu = int(tokens[1])
        elif tokens[:2] == ["ip", "access-group"] and len(tokens) >= 4:
            if tokens[3] == "in":
                iface.incoming_acl = tokens[2]
            elif tokens[3] == "out":
                iface.outgoing_acl = tokens[2]
            else:
                raise ValueError("access-group direction must be in/out")
        elif tokens[:3] == ["ip", "ospf", "cost"] and len(tokens) >= 4:
            iface.ospf_cost = int(tokens[3])
            iface.ospf_enabled = True
        elif tokens[:3] == ["ip", "ospf", "area"] and len(tokens) >= 4:
            iface.ospf_area = int(tokens[3])
            iface.ospf_enabled = True
        elif line == "ip ospf passive":
            iface.ospf_passive = True
        elif tokens[:3] == ["ip", "ospf", "hello-interval"] and len(tokens) >= 4:
            iface.ospf_hello_interval = int(tokens[3])
        elif tokens[:3] == ["ip", "ospf", "dead-interval"] and len(tokens) >= 4:
            iface.ospf_dead_interval = int(tokens[3])
            self._explicit_dead.add(iface.name)
        elif tokens[:2] == ["zone-member", "security"] and len(tokens) >= 3:
            iface.zone = tokens[2]
        elif line == "ip nat inside":
            pass
        elif line == "ip nat outside":
            self._nat_outside.add(iface.name)
        else:
            raise ValueError("unrecognized interface line")

    # -- routing processes -------------------------------------------------

    def _ospf(self, process_id: str):
        if not process_id.isdecimal():
            raise ValueError(f"ospf process id {process_id} is not a number")
        # Re-entering `router ospf N` merges into the existing process,
        # matching device behaviour for repeated configuration blocks;
        # another process id replaces it.
        if self.device.ospf is None or self.device.ospf.process_id != process_id:
            self.device.ospf = OspfProcess(process_id=process_id)
            self._ospf_networks, self._passive = [], []
        return self._ospf_line

    def _ospf_line(self, tokens: List[str]) -> None:
        ospf = self.device.ospf
        if tokens[0] == "router-id" and len(tokens) >= 2:
            ospf.router_id = Ip(tokens[1])
        elif tokens[:2] == ["auto-cost", "reference-bandwidth"] and len(tokens) >= 3:
            ospf.reference_bandwidth = int(tokens[2]) * 1_000_000  # configured in Mbps
        elif tokens[0] == "passive-interface" and len(tokens) >= 2:
            self._passive.append(tokens[1])
        elif tokens[0] == "network" and len(tokens) >= 5 and tokens[3] == "area":
            self._ospf_networks.append(
                (_wildcard_to_prefix(tokens[1], tokens[2]), int(tokens[4]))
            )
        elif tokens[0] == "redistribute":
            ospf.redistributions.append(self._redistribution(tokens[1:]))
        elif self.line == "default-information originate":
            ospf.default_information_originate = True
        else:
            raise ValueError("unrecognized ospf line")

    def _bgp(self, asn: int):
        # Re-entering `router bgp ASN` merges into the existing process.
        if self.device.bgp is None or self.device.bgp.local_as != asn:
            self.device.bgp = BgpProcess(local_as=asn)
        return self._bgp_line

    def _bgp_line(self, tokens: List[str]) -> None:
        bgp = self.device.bgp
        if tokens[:2] == ["bgp", "router-id"] and len(tokens) >= 3:
            bgp.router_id = Ip(tokens[2])
        elif tokens[0] == "neighbor" and len(tokens) >= 3:
            self._neighbor(bgp, tokens)
        elif tokens[0] == "network" and len(tokens) >= 2:
            bgp.networks.append(_network(tokens))
        elif tokens[0] == "redistribute":
            bgp.redistributions.append(self._redistribution(tokens[1:]))
        elif tokens[0] == "maximum-paths" and len(tokens) >= 2:
            bgp.maximum_paths = int(tokens[1])
        else:
            raise ValueError("unrecognized bgp line")

    def _neighbor(self, bgp: BgpProcess, tokens: List[str]) -> None:
        peer, directive, args = Ip(tokens[1]), tokens[2], tokens[3:]
        value: object = True
        if directive in _NEIGHBOR_FLAGS:
            field = _NEIGHBOR_FLAGS[directive]
        elif directive in ("remote-as", "local-as") and args:
            field, value = directive.replace("-", "_"), int(args[0])
        elif directive == "description":
            field, value = "description", " ".join(args)
        elif directive == "route-map" and len(args) >= 2:
            if args[1] not in ("in", "out"):
                raise ValueError("route-map direction must be in/out")
            field = "import_policy" if args[1] == "in" else "export_policy"
            value = args[0]
        elif directive == "update-source" and args:
            field, value = "update_source", args[0]
        else:
            raise ValueError("unrecognized bgp neighbor directive")
        neighbor = bgp.neighbors.get(peer)
        if neighbor is None:
            # remote_as 0 until a remote-as line names it (finish drops a
            # neighbor that never gets one).
            neighbor = bgp.neighbors[peer] = BgpNeighbor(
                peer_ip=peer, remote_as=0,
                source_file=self.filename, source_line=self.number,
            )
        setattr(neighbor, field, value)

    def _redistribution(self, words: List[str]) -> Redistribution:
        # Provenance is mandatory: every redistribute statement carries
        # its (file, line) so cross-device dataflow findings can blame
        # the exact line.
        source = _REDIST_SOURCES.get(words[0])
        if source is None:
            raise ValueError(f"unknown redistribution source {words[0]}")
        route_map = metric = None
        rest = words[1:]
        if words[0] in ("ospf", "bgp") and rest[:1] and rest[0].isdecimal():
            rest = rest[1:]  # the source's process id or AS number
        while rest:
            if rest[0] == "route-map" and len(rest) >= 2:
                route_map = rest[1]
                rest = rest[2:]
            elif rest[0] == "metric" and len(rest) >= 2:
                metric = int(rest[1])
                rest = rest[2:]
            elif rest[0] == "subnets":  # classless: what the model does anyway
                rest = rest[1:]
            else:
                raise ValueError(f"unexpected {rest[0]!r} after redistribute {words[0]}")
        return Redistribution(
            source=source, route_map=route_map, metric=metric,
            source_file=self.filename, source_line=self.number,
        )

    # -- ip ... lines ------------------------------------------------------

    def _ip(self, tokens: List[str]):
        kind, device = tokens[1], self.device
        if kind == "route":
            device.static_routes.append(self._static_route(tokens[2:]))
        elif kind == "access-list" and len(tokens) >= 4:
            if tokens[2] not in ("extended", "standard"):
                raise ValueError("access-list must be extended or standard")
            acl = device.acls.setdefault(tokens[3], Acl(
                name=tokens[3], source_file=self.filename, source_line=self.number,
            ))
            return partial(self._acl_line, acl, tokens[2] == "standard")
        elif kind == "prefix-list" and len(tokens) >= 3:
            line = _prefix_list_line(tokens[3:])
            device.prefix_lists.setdefault(tokens[2], PrefixList(
                name=tokens[2], source_file=self.filename, source_line=self.number,
            )).lines.append(line)
            problem = line.bounds_problem()
            if problem:
                self._warn(f"invalid prefix-list length bounds: {problem}")
        elif kind == "community-list" and len(tokens) >= 5:
            # ip community-list standard NAME permit A:B ...: a list permits
            # a route with any member; deny lines and regexes are not modelled.
            if tokens[2] != "standard" or tokens[4] != "permit":
                raise ValueError(f"{tokens[2]} community-list {tokens[4]} lines are not modelled")
            device.community_lists.setdefault(tokens[3], CommunityList(
                name=tokens[3], source_file=self.filename, source_line=self.number,
            )).communities.extend(tokens[5:])
        elif kind == "as-path" and len(tokens) >= 6 and tokens[2] == "access-list":
            # ip as-path access-list NAME permit|deny REGEX
            line = AsPathListLine(_action(tokens[4]), as_path_regex(" ".join(tokens[5:])))
            device.as_path_lists.setdefault(tokens[3], AsPathList(tokens[3])).lines.append(line)
        elif kind == "name-server" and len(tokens) >= 3:
            device.dns_servers.append(Ip(tokens[2]))
        elif kind == "nat" and len(tokens) >= 3:
            self._nat(tokens)
        else:
            raise ValueError("unrecognized ip line")
        return None

    def _static_route(self, words: List[str]) -> StaticRoute:
        """``PREFIX MASK|/LEN NEXT-HOP [DISTANCE] [tag N]``."""
        if "/" in words[0]:
            prefix, rest = Prefix(words[0]), words[1:]
        else:
            prefix, rest = Prefix(Ip(words[0]).value, _mask_to_length(words[1])), words[2:]
        hop, rest = rest[0], rest[1:]
        admin, tag = 1, 0
        while rest:
            if rest[0] == "tag" and len(rest) >= 2:
                tag = int(rest[1])
                rest = rest[2:]
            elif rest[0].isdigit():
                admin = int(rest[0])
                rest = rest[1:]
            else:
                raise ValueError(f"unexpected {rest[0]!r} after the static route's next hop")
        return StaticRoute(
            prefix=prefix,
            next_hop_ip=Ip(hop) if _looks_like_ip(hop) else None,
            next_hop_interface=None if _looks_like_ip(hop) else hop,
            admin_distance=admin,
            tag=tag,
            source_file=self.filename,
            source_line=self.number,
        )

    def _acl_line(self, acl: Acl, standard: bool, tokens: List[str]) -> None:
        if tokens[0] == "remark":
            return
        action = _action(tokens[0])
        where = dict(name=self.line, source_file=self.filename, source_line=self.number)
        if standard:
            src, _ = _parse_acl_address(tokens[1:])
            acl.lines.append(AclLine(action=action, src=src, **where))
            return
        proto_word, tokens = tokens[1], tokens[2:]
        if proto_word not in _PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {proto_word}")
        src, tokens = _parse_acl_address(tokens)
        src_ports, tokens = _parse_acl_ports(tokens)
        dst, tokens = _parse_acl_address(tokens)
        dst_ports, tokens = _parse_acl_ports(tokens)
        established = False
        icmp_type = None
        unknown = []
        for word in tokens:
            if word == "established":
                established = True
            elif proto_word == "icmp" and word.isdigit():
                icmp_type = int(word)
            elif proto_word == "icmp" and word in ("echo", "echo-reply"):
                icmp_type = 8 if word == "echo" else 0
            elif word != "log":
                unknown.append(word)
        acl.lines.append(AclLine(
            action=action, protocol=_PROTOCOL_NAMES[proto_word], src=src, dst=dst,
            src_ports=src_ports, dst_ports=dst_ports, established=established,
            icmp_type=icmp_type, **where,
        ))
        for word in unknown:
            self._warn(f"unrecognized ACL token {word}")

    def _nat(self, tokens: List[str]) -> None:
        # ip nat pool NAME START END prefix-length L
        if tokens[2] == "pool" and len(tokens) >= 8 and tokens[6] == "prefix-length":
            self._nat_pools[tokens[3]] = Prefix(Ip(tokens[4]).value, int(tokens[7]))
            return
        # ip nat inside source list ACL pool POOL
        # ip nat inside source static A B
        if tokens[2] in ("inside", "outside") and len(tokens) >= 5:
            rest = tokens[4:]
            if rest[0] == "static" and len(rest) >= 3:
                self._nat_rules.append((
                    NatKind.STATIC, None, Prefix(rest[2] + "/32"),
                    Prefix(rest[1] + "/32"), self.number, self.line,
                ))
                return
            if rest[0] == "list" and len(rest) >= 4 and rest[2] == "pool":
                kind = _NAT_KINDS.get(tokens[3]) if tokens[2] == "inside" else None
                if kind is None:
                    raise ValueError("unsupported NAT direction")
                self._nat_rules.append((kind, rest[1], rest[3], None, self.number, self.line))
                return
        raise ValueError("unrecognized nat line")

    # -- route maps, zone pairs -------------------------------------------

    def _route_map(self, tokens: List[str]):
        name = tokens[1]
        clause = RouteMapClause(
            seq=int(tokens[3]) if len(tokens) >= 4 else 10,
            action=_action(tokens[2]),
            source_file=self.filename,
            source_line=self.number,
        )
        self.device.route_maps.setdefault(name, RouteMap(
            name=name, source_file=self.filename, source_line=self.number,
        )).clauses.append(clause)
        return partial(self._route_map_line, clause)

    def _route_map_line(self, clause: RouteMapClause, tokens: List[str]) -> None:
        if tokens[0] == "match":
            match = _match(tokens[1:])
            clause.matches.append(match)
            if match.kind in (MatchKind.TAG, MatchKind.METRIC) and not match.value.isdecimal():
                self._warn(f"match {tokens[1]} {tokens[2]} is not a number: matches no route")
        elif tokens[0] == "set":
            clause.sets.append(_set(tokens[1:]))
        else:
            raise ValueError("unrecognized route-map line")

    def _zone_pair(self, tokens: List[str]):
        # zone-pair security NAME source Z1 destination Z2
        key = (tokens[tokens.index("source") + 1], tokens[tokens.index("destination") + 1])
        self.device.zone_policies[key] = ZonePolicy(
            from_zone=key[0], to_zone=key[1], acl="",
            source_file=self.filename, source_line=self.number,
        )
        return partial(self._zone_pair_line, key)

    def _zone_pair_line(self, key: Tuple[str, str], tokens: List[str]) -> None:
        if tokens[0] != "service-policy" or len(tokens) < 2:
            raise ValueError("unrecognized zone-pair line")
        policies = self.device.zone_policies
        policies[key] = replace(policies[key], acl=tokens[-1])

    # -- what lines name before it is defined -------------------------------

    def finish(self) -> None:
        device = self.device
        for name, iface in device.interfaces.items():
            if name not in self._explicit_dead:
                # Vendor default: the dead interval follows hello at 4x.
                iface.ospf_dead_interval = iface.ospf_hello_interval * 4
            if iface.zone:
                device.zones.setdefault(iface.zone, Zone(name=iface.zone)).interfaces.append(name)
        # 'network A W area N' statements enable OSPF on matching interfaces.
        for network, area in self._ospf_networks:
            for iface in device.interfaces.values():
                if iface.address is not None and network.contains_ip(iface.address):
                    iface.ospf_enabled = True
                    iface.ospf_area = area
        for name in self._passive:
            if name in device.interfaces:
                device.interfaces[name].ospf_passive = True
        if device.bgp is not None:
            for peer, neighbor in list(device.bgp.neighbors.items()):
                if neighbor.remote_as == 0:
                    self._warn("bgp neighbor has no remote-as; session cannot establish",
                               neighbor.source_line, f"neighbor {peer}")
                    del device.bgp.neighbors[peer]
        # 'inside source' NAT rewrites the source address of traffic
        # leaving any 'ip nat outside' interface.
        for kind, acl, pool, static_inside, number, text in self._nat_rules:
            if isinstance(pool, str):
                if pool not in self._nat_pools:
                    self._warn("reference to undefined NAT pool", number, text)
                    continue
                pool = self._nat_pools[pool]
            rule = NatRule(kind=kind, match_acl=acl, pool=pool, static_inside=static_inside)
            for iface in device.interfaces.values():
                if iface.name in self._nat_outside:
                    rules = iface.dst_nat_rules if kind is NatKind.DESTINATION else iface.src_nat_rules
                    rules.append(rule)
        device.hostname = device.hostname or "unnamed"


# ----------------------------------------------------------------------
# Line forms


def _action(word: str) -> Action:
    if word not in ("permit", "deny"):
        raise ValueError(f"action {word!r} is neither permit nor deny")
    return Action.PERMIT if word == "permit" else Action.DENY


def _address(addr: str, mask: str) -> Tuple[Ip, int]:
    """``A.B.C.D MASK`` or ``A.B.C.D/L`` as (address, prefix length)."""
    if "/" in addr:
        return Ip(addr.split("/")[0]), Prefix(addr).length
    return Ip(addr), _mask_to_length(mask)


def _network(tokens: List[str]) -> Prefix:
    """``network A[/L] [mask M]``; no mask means a host route."""
    if "/" in tokens[1]:
        return Prefix(tokens[1])
    mask = tokens[3] if len(tokens) >= 4 and tokens[2] == "mask" else ""
    return Prefix(Ip(tokens[1]).value, _mask_to_length(mask))


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


def _prefix_list_line(words: List[str]) -> PrefixListLine:
    """``[seq N] permit|deny PREFIX [ge N] [le N]``."""
    tokens = words[2:] if words[:1] == ["seq"] else words
    action, prefix = _action(tokens[0]), Prefix(tokens[1])
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


def _match(words: List[str]) -> RouteMapMatch:
    """``match ...`` words as the match they denote."""
    if words[:3] == ["ip", "address", "prefix-list"] and len(words) >= 4:
        return RouteMapMatch(MatchKind.PREFIX_LIST, words[3])
    kind = {
        "community": MatchKind.COMMUNITY, "as-path": MatchKind.AS_PATH,
        "tag": MatchKind.TAG, "metric": MatchKind.METRIC,
    }.get(words[0])
    if kind is None or len(words) < 2:
        raise ValueError(f"unmodelled match {' '.join(words)}")
    return RouteMapMatch(kind, words[1])


def _set(words: List[str]) -> RouteMapSet:
    """``set ...`` words as the action they denote. Numbers and addresses
    are checked here, where the line is read, not when a route meets
    them."""
    if words[:1] == ["community"] and len(words) >= 2:
        kind = SetKind.COMMUNITY_ADDITIVE if "additive" in words else SetKind.COMMUNITY
        return RouteMapSet(kind, " ".join(w for w in words[1:] if w != "additive"))
    if words[:2] == ["as-path", "prepend"]:
        [int(asn) for asn in words[2:]]
        return RouteMapSet(SetKind.AS_PATH_PREPEND, " ".join(words[2:]))
    if words[:2] == ["ip", "next-hop"] and len(words) >= 3:
        Ip(words[2])
        return RouteMapSet(SetKind.NEXT_HOP, words[2])
    kind = {
        "local-preference": SetKind.LOCAL_PREF, "metric": SetKind.METRIC,
        "weight": SetKind.WEIGHT, "tag": SetKind.TAG,
    }.get(words[0])
    if kind is None or len(words) < 2:
        raise ValueError(f"unmodelled set {' '.join(words)}")
    int(words[1])
    return RouteMapSet(kind, words[1])
