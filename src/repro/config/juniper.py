"""Parser for the ``juniperish`` configuration syntax (flat set-style).

Like :mod:`repro.config.cisco`, parsing is two-phase: a vendor-specific
representation that mirrors the syntax (paths of ``set`` statements),
followed by conversion into the vendor-independent model. Supporting a
second, structurally different syntax is what exercises the Stage 1
normalization the paper discusses (and the §7.3 usability cost of it).

Supported statement families::

    set system host-name NAME
    set system ntp server IP
    set system name-server IP
    set interfaces IFACE unit 0 family inet address A.B.C.D/L
    set interfaces IFACE unit 0 family inet filter input|output NAME
    set interfaces IFACE disable
    set interfaces IFACE description TEXT
    set protocols ospf area N interface IFACE [metric M] [passive]
    set protocols ospf reference-bandwidth BPS
    set protocols ospf export POLICY
    set protocols bgp local-as N
    set protocols bgp group G neighbor IP peer-as N
    set protocols bgp group G neighbor IP import|export POLICY
    set protocols bgp group G neighbor IP description TEXT
    set protocols bgp group G neighbor IP multihop
    set protocols bgp multipath maximum-paths N
    set routing-options router-id IP
    set routing-options static route P/L next-hop IP|discard [preference N]
    set policy-options prefix-list NAME P/L
    set policy-options policy-statement P term T from prefix-list NAME
    set policy-options policy-statement P term T from route-filter P/L
        exact|orlonger|longer|upto /N|prefix-length-range /A-/B
    set policy-options policy-statement P term T from community NAME
    set policy-options policy-statement P term T then local-preference N
    set policy-options policy-statement P term T then metric N
    set policy-options policy-statement P term T then community add C
    set policy-options policy-statement P term T then accept|reject
    set policy-options community NAME members A:B
    set firewall filter NAME term T from ... / then accept|discard
    set security zones security-zone Z interfaces IFACE
    set security policies from-zone A to-zone B policy P match ... / then ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config.model import (
    Acl,
    AclLine,
    Action,
    BgpNeighbor,
    BgpProcess,
    CommunityList,
    Device,
    Interface,
    MatchKind,
    OspfProcess,
    ParseWarning,
    PrefixList,
    PrefixListLine,
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
    "tcp": f.PROTO_TCP,
    "udp": f.PROTO_UDP,
    "icmp": f.PROTO_ICMP,
}


@dataclass
class JuniperTerm:
    """One term of a firewall filter or policy statement (syntax level)."""

    froms: List[List[str]] = field(default_factory=list)
    thens: List[List[str]] = field(default_factory=list)
    #: A policy term's ``from route-filter``s, as prefix-list lines.
    route_filters: List[PrefixListLine] = field(default_factory=list)


@dataclass
class JuniperConfig:
    """Vendor-specific parse result: the set-paths grouped by family."""

    hostname: str = ""
    filename: str = "<config>"
    interface_lines: List[List[str]] = field(default_factory=list)
    ospf_lines: List[Tuple[List[str], int]] = field(default_factory=list)
    bgp_lines: List[Tuple[List[str], int]] = field(default_factory=list)
    routing_option_lines: List[Tuple[List[str], int]] = field(default_factory=list)
    prefix_lists: Dict[str, List[str]] = field(default_factory=dict)
    policy_terms: Dict[str, Dict[str, JuniperTerm]] = field(default_factory=dict)
    policy_term_order: Dict[str, List[str]] = field(default_factory=dict)
    communities: Dict[str, List[str]] = field(default_factory=dict)
    filter_terms: Dict[str, Dict[str, JuniperTerm]] = field(default_factory=dict)
    filter_term_order: Dict[str, List[str]] = field(default_factory=dict)
    zone_interfaces: Dict[str, List[str]] = field(default_factory=dict)
    zone_policies: Dict[Tuple[str, str], Dict[str, JuniperTerm]] = field(
        default_factory=dict
    )
    ntp_servers: List[str] = field(default_factory=list)
    dns_servers: List[str] = field(default_factory=list)
    line_count: int = 0
    warnings: List[ParseWarning] = field(default_factory=list)
    #: First definition line of named structures, keyed (kind, name).
    definition_lines: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: First line of each term, keyed (kind, container, term).
    term_lines: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    #: ``# lint-disable RULE`` directives: (rule_id, line_number).
    lint_disables: List[Tuple[str, int]] = field(default_factory=list)


class JuniperParser:
    """Parser for flat ``set`` statements."""

    def __init__(self, text: str, filename: str = "<config>"):
        self._lines = text.splitlines()
        self._filename = filename
        self._config = JuniperConfig(
            filename=filename,
            line_count=len([l for l in self._lines if l.strip()]),
        )

    def parse(self) -> JuniperConfig:
        for number, raw in enumerate(self._lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                words = line.lstrip("#").split()
                if words[:1] == ["lint-disable"]:
                    for rule in words[1:] or ["*"]:
                        self._config.lint_disables.append((rule, number))
                continue
            tokens = line.split()
            if tokens[0] != "set" or len(tokens) < 3:
                self._warn(number, raw, "expected a 'set' statement")
                continue
            self._dispatch(tokens[1:], number, raw)
        return self._config

    def _dispatch(self, path: List[str], number: int, raw: str) -> None:
        family = path[0]
        if family == "system":
            self._parse_system(path[1:], number, raw)
        elif family == "interfaces":
            if len(path) >= 2:
                self._config.definition_lines.setdefault(
                    ("interface", path[1]), number
                )
            self._config.interface_lines.append(path[1:])
        elif family == "protocols" and len(path) >= 2 and path[1] == "ospf":
            self._config.ospf_lines.append((path[2:], number))
        elif family == "protocols" and len(path) >= 2 and path[1] == "bgp":
            if len(path) >= 6 and path[2] == "group" and path[4] == "neighbor":
                self._config.definition_lines.setdefault(
                    ("bgp-neighbor", path[5]), number
                )
            self._config.bgp_lines.append((path[2:], number))
        elif family == "routing-options":
            self._config.routing_option_lines.append((path[1:], number))
        elif family == "policy-options":
            self._parse_policy_options(path[1:], number, raw)
        elif family == "firewall" and len(path) >= 3 and path[1] == "filter":
            self._parse_filter(path[2:], number, raw)
        elif family == "security":
            self._parse_security(path[1:], number, raw)
        else:
            self._warn(number, raw, "unrecognized configuration family")

    def _parse_system(self, path: List[str], number: int, raw: str) -> None:
        if path[:1] == ["host-name"] and len(path) >= 2:
            self._config.hostname = path[1]
        elif path[:2] == ["ntp", "server"] and len(path) >= 3:
            self._config.ntp_servers.append(path[2])
        elif path[:1] == ["name-server"] and len(path) >= 2:
            self._config.dns_servers.append(path[1])
        else:
            self._warn(number, raw, "unrecognized system statement")

    def _parse_policy_options(self, path: List[str], number: int, raw: str) -> None:
        if path[:1] == ["prefix-list"] and len(path) >= 3:
            self._config.definition_lines.setdefault(("prefix-list", path[1]), number)
            self._config.prefix_lists.setdefault(path[1], []).append(path[2])
        elif path[:1] == ["policy-statement"] and len(path) >= 4 and path[2] == "term":
            policy, term_name = path[1], path[3]
            self._config.definition_lines.setdefault(("route-map", policy), number)
            self._config.term_lines.setdefault(("policy", policy, term_name), number)
            terms = self._config.policy_terms.setdefault(policy, {})
            order = self._config.policy_term_order.setdefault(policy, [])
            if term_name not in terms:
                terms[term_name] = JuniperTerm()
                order.append(term_name)
            term = terms[term_name]
            if path[4:6] == ["from", "route-filter"]:
                line = _route_filter_line(path[6:])
                if line is None:
                    self._warn(number, raw, "unrecognized route-filter")
                    return
                problem = line.bounds_problem()
                if problem:
                    self._warn(number, raw, f"invalid route-filter length bounds: {problem}")
                term.route_filters.append(line)
            elif path[4:5] == ["from"]:
                term.froms.append(path[5:])
            elif path[4:5] == ["then"]:
                term.thens.append(path[5:])
            else:
                self._warn(number, raw, "policy term needs from/then")
        elif path[:1] == ["community"] and len(path) >= 4 and path[2] == "members":
            self._config.definition_lines.setdefault(
                ("community-list", path[1]), number
            )
            self._config.communities.setdefault(path[1], []).append(path[3])
        else:
            self._warn(number, raw, "unrecognized policy-options statement")

    def _parse_filter(self, path: List[str], number: int, raw: str) -> None:
        # path: NAME term T from|then ...
        if len(path) >= 4 and path[1] == "term":
            filter_name, term_name = path[0], path[2]
            self._config.definition_lines.setdefault(("acl", filter_name), number)
            self._config.term_lines.setdefault(
                ("filter", filter_name, term_name), number
            )
            terms = self._config.filter_terms.setdefault(filter_name, {})
            order = self._config.filter_term_order.setdefault(filter_name, [])
            if term_name not in terms:
                terms[term_name] = JuniperTerm()
                order.append(term_name)
            term = terms[term_name]
            if path[3] == "from":
                term.froms.append(path[4:])
            elif path[3] == "then":
                term.thens.append(path[4:])
            else:
                self._warn(number, raw, "filter term needs from/then")
        else:
            self._warn(number, raw, "unrecognized firewall statement")

    def _parse_security(self, path: List[str], number: int, raw: str) -> None:
        if path[:2] == ["zones", "security-zone"] and len(path) >= 5 and path[3] == "interfaces":
            self._config.zone_interfaces.setdefault(path[2], []).append(path[4])
        elif path[:1] == ["policies"] and len(path) >= 7 and path[1] == "from-zone":
            # policies from-zone A to-zone B policy P (match|then) ...
            from_zone, to_zone, policy_name = path[2], path[4], path[6]
            self._config.term_lines.setdefault(
                ("security-policy", f"{from_zone}|{to_zone}", policy_name), number
            )
            zone_pair = self._config.zone_policies.setdefault(
                (from_zone, to_zone), {}
            )
            if policy_name not in zone_pair:
                zone_pair[policy_name] = JuniperTerm()
            term = zone_pair[policy_name]
            if path[7:8] == ["match"]:
                term.froms.append(path[8:])
            elif path[7:8] == ["then"]:
                term.thens.append(path[8:])
            else:
                self._warn(number, raw, "security policy needs match/then")
        else:
            self._warn(number, raw, "unrecognized security statement")

    def _warn(self, number: int, raw: str, comment: str) -> None:
        self._config.warnings.append(
            ParseWarning(
                hostname=self._config.hostname or self._filename,
                line_number=number,
                text=raw.strip(),
                comment=comment,
            )
        )


# ----------------------------------------------------------------------
# Conversion to the vendor-independent model


def parse_juniper(
    text: str, filename: str = "<config>"
) -> Tuple[Device, List[ParseWarning]]:
    """Parse juniperish text and convert to a vendor-independent Device."""
    vendor = JuniperParser(text, filename).parse()
    return juniper_to_vi(vendor), vendor.warnings


def juniper_to_vi(config: JuniperConfig) -> Device:
    device = Device(
        hostname=config.hostname or "unnamed",
        vendor="juniperish",
        config_lines=config.line_count,
    )
    _convert_interfaces(config, device)
    _convert_ospf(config, device)
    _convert_bgp(config, device)
    _convert_routing_options(config, device)
    for name, entries in config.prefix_lists.items():
        plist = PrefixList(
            name=name,
            source_file=config.filename,
            source_line=config.definition_lines.get(("prefix-list", name), 0),
        )
        for entry in entries:
            plist.lines.append(
                PrefixListLine(action=Action.PERMIT, prefix=Prefix(entry))
            )
        device.prefix_lists[name] = plist
    for name, members in config.communities.items():
        device.community_lists[name] = CommunityList(
            name=name,
            communities=members,
            source_file=config.filename,
            source_line=config.definition_lines.get(("community-list", name), 0),
        )
    for name in config.policy_terms:
        device.route_maps[name] = _convert_policy(config, name, device)
    for name in config.filter_terms:
        device.acls[name] = _convert_filter(config, name)
    for zone_name, interfaces in config.zone_interfaces.items():
        device.zones[zone_name] = Zone(name=zone_name, interfaces=list(interfaces))
        for iface_name in interfaces:
            if iface_name in device.interfaces:
                device.interfaces[iface_name].zone = zone_name
    _convert_zone_policies(config, device)
    device.ntp_servers = [Ip(s) for s in config.ntp_servers]
    device.dns_servers = [Ip(s) for s in config.dns_servers]
    device.lint_suppressions = [
        (rule, config.filename, line) for rule, line in config.lint_disables
    ]
    return device


def _interface_of(
    device: Device, name: str, config: Optional[JuniperConfig] = None
) -> Interface:
    iface = device.interfaces.setdefault(name, Interface(name=name))
    if config is not None and not iface.source_line:
        iface.source_file = config.filename
        iface.source_line = config.definition_lines.get(("interface", name), 0)
    return iface


def _convert_interfaces(config: JuniperConfig, device: Device) -> None:
    for path in config.interface_lines:
        if not path:
            continue
        iface = _interface_of(device, path[0], config)
        rest = path[1:]
        if rest[:4] == ["unit", "0", "family", "inet"] and len(rest) >= 6:
            inner = rest[4:]
            if inner[0] == "address" and len(inner) >= 2:
                prefix = Prefix(inner[1])
                iface.address = Ip(inner[1].split("/")[0])
                iface.prefix_length = prefix.length
            elif inner[0] == "filter" and len(inner) >= 3:
                if inner[1] == "input":
                    iface.incoming_acl = inner[2]
                elif inner[1] == "output":
                    iface.outgoing_acl = inner[2]
        elif rest[:1] == ["disable"]:
            iface.enabled = False
        elif rest[:1] == ["description"]:
            iface.description = " ".join(rest[1:])
        elif rest[:1] == ["bandwidth"] and len(rest) >= 2:
            iface.bandwidth = int(rest[1])
        elif rest[:1] == ["mtu"] and len(rest) >= 2:
            iface.mtu = int(rest[1])
        else:
            config.warnings.append(
                ParseWarning(
                    device.hostname, 0, " ".join(path),
                    "unrecognized interface statement",
                )
            )


def _convert_ospf(config: JuniperConfig, device: Device) -> None:
    if not config.ospf_lines:
        return
    ospf = OspfProcess()
    device.ospf = ospf
    for path, number in config.ospf_lines:
        if path[:1] == ["area"] and len(path) >= 4 and path[2] == "interface":
            area = int(path[1].split(".")[-1]) if "." in path[1] else int(path[1])
            iface = _interface_of(device, path[3], config)
            iface.ospf_enabled = True
            iface.ospf_area = area
            extra = path[4:]
            saw_hello = saw_dead = False
            while extra:
                if extra[:1] == ["metric"] and len(extra) >= 2:
                    iface.ospf_cost = int(extra[1])
                    extra = extra[2:]
                elif extra[:1] == ["passive"]:
                    iface.ospf_passive = True
                    extra = extra[1:]
                elif extra[:1] == ["hello-interval"] and len(extra) >= 2:
                    iface.ospf_hello_interval = int(extra[1])
                    saw_hello = True
                    extra = extra[2:]
                elif extra[:1] == ["dead-interval"] and len(extra) >= 2:
                    iface.ospf_dead_interval = int(extra[1])
                    saw_dead = True
                    extra = extra[2:]
                else:
                    extra = extra[1:]
            if saw_hello and not saw_dead and iface.ospf_dead_interval == 40:
                # Vendor default: dead interval follows hello at 4x when unset.
                iface.ospf_dead_interval = iface.ospf_hello_interval * 4
        elif path[:1] == ["reference-bandwidth"] and len(path) >= 2:
            ospf.reference_bandwidth = int(path[1])
        elif path[:1] == ["export"] and len(path) >= 2:
            # Juniper-style: export policy governs redistribution.
            from repro.config.model import Protocol, Redistribution

            ospf.redistributions.append(
                Redistribution(
                    source=Protocol.STATIC,
                    route_map=path[1],
                    source_file=config.filename,
                    source_line=number,
                )
            )
        else:
            config.warnings.append(
                ParseWarning(
                    device.hostname, 0, " ".join(path),
                    "unrecognized ospf statement",
                )
            )


def _convert_bgp(config: JuniperConfig, device: Device) -> None:
    if not config.bgp_lines:
        return
    local_as: Optional[int] = None
    neighbor_lines: List[List[str]] = []
    #: ``set protocols bgp export POLICY`` — redistribution into BGP,
    #: with the statement's own line for provenance.
    export_lines: List[Tuple[str, int]] = []
    maximum_paths = 1
    for path, number in config.bgp_lines:
        if path[:1] == ["local-as"] and len(path) >= 2:
            local_as = int(path[1])
        elif path[:1] == ["group"] and len(path) >= 4 and path[2] == "neighbor":
            neighbor_lines.append(path[3:])
        elif path[:1] == ["export"] and len(path) >= 2:
            export_lines.append((path[1], number))
        elif path[:2] == ["multipath", "maximum-paths"] and len(path) >= 3:
            maximum_paths = int(path[2])
        else:
            config.warnings.append(
                ParseWarning(
                    device.hostname, 0, " ".join(path),
                    "unrecognized bgp statement",
                )
            )
    if local_as is None:
        if neighbor_lines:
            config.warnings.append(
                ParseWarning(
                    device.hostname, 0, "protocols bgp",
                    "bgp neighbors configured without local-as",
                )
            )
        return
    bgp = BgpProcess(local_as=local_as, maximum_paths=maximum_paths)
    device.bgp = bgp
    for policy, number in export_lines:
        # Same convention as the OSPF export conversion: a process-level
        # export policy redistributes main-RIB (static) routes, filtered
        # by the named policy.
        from repro.config.model import Protocol, Redistribution

        bgp.redistributions.append(
            Redistribution(
                source=Protocol.STATIC,
                route_map=policy,
                source_file=config.filename,
                source_line=number,
            )
        )
    for path in neighbor_lines:
        peer = Ip(path[0])
        neighbor = bgp.neighbors.get(peer)
        directive = path[1:] or ["(empty)"]
        source_line = config.definition_lines.get(("bgp-neighbor", path[0]), 0)
        if directive[0] == "peer-as" and len(directive) >= 2:
            if neighbor is None:
                bgp.neighbors[peer] = BgpNeighbor(
                    peer_ip=peer,
                    remote_as=int(directive[1]),
                    source_file=config.filename,
                    source_line=source_line,
                )
            else:
                neighbor.remote_as = int(directive[1])
            continue
        if neighbor is None:
            # Directive arrived before peer-as; create a placeholder that
            # conversion fixes up when peer-as arrives.
            neighbor = BgpNeighbor(
                peer_ip=peer,
                remote_as=0,
                source_file=config.filename,
                source_line=source_line,
            )
            bgp.neighbors[peer] = neighbor
        if directive[0] == "import" and len(directive) >= 2:
            neighbor.import_policy = directive[1]
        elif directive[0] == "export" and len(directive) >= 2:
            neighbor.export_policy = directive[1]
        elif directive[0] == "description":
            neighbor.description = " ".join(directive[1:])
        elif directive[0] == "multihop":
            neighbor.ebgp_multihop = True
        else:
            config.warnings.append(
                ParseWarning(
                    device.hostname, 0, " ".join(path),
                    "unrecognized bgp neighbor statement",
                )
            )
    # Drop neighbors that never got a peer-as (cannot establish).
    for peer in [p for p, n in bgp.neighbors.items() if n.remote_as == 0]:
        config.warnings.append(
            ParseWarning(
                device.hostname, 0, f"neighbor {peer}",
                "bgp neighbor has no peer-as; session cannot establish",
            )
        )
        del bgp.neighbors[peer]


def _convert_routing_options(config: JuniperConfig, device: Device) -> None:
    for path, number in config.routing_option_lines:
        if path[:1] == ["router-id"] and len(path) >= 2:
            router_id = Ip(path[1])
            if device.bgp is not None:
                device.bgp.router_id = router_id
            if device.ospf is not None:
                device.ospf.router_id = router_id
            if device.bgp is None and device.ospf is None:
                device.ospf = OspfProcess(router_id=router_id)
        elif path[:2] == ["static", "route"] and len(path) >= 5:
            prefix = Prefix(path[2])
            preference = 5  # juniper static default preference
            next_hop_ip = None
            next_hop_interface = None
            rest = path[3:]
            while rest:
                if rest[0] == "next-hop" and len(rest) >= 2:
                    if rest[1] == "discard":
                        next_hop_interface = "discard"
                    else:
                        next_hop_ip = Ip(rest[1])
                    rest = rest[2:]
                elif rest[0] == "preference" and len(rest) >= 2:
                    preference = int(rest[1])
                    rest = rest[2:]
                else:
                    rest = rest[1:]
            device.static_routes.append(
                StaticRoute(
                    prefix=prefix,
                    next_hop_ip=next_hop_ip,
                    next_hop_interface=next_hop_interface,
                    admin_distance=preference,
                    source_file=config.filename,
                    source_line=number,
                )
            )
        else:
            config.warnings.append(
                ParseWarning(
                    device.hostname, 0, " ".join(path),
                    "unrecognized routing-options statement",
                )
            )


def _route_filter_line(words: List[str]) -> Optional[PrefixListLine]:
    """``P/L exact|orlonger|longer|upto /N|prefix-length-range /A-/B``
    as the prefix-list line matching the same routes, else None (a
    malformed prefix included)."""
    if len(words) < 2 or "/" not in words[0]:
        return None
    try:
        prefix = Prefix(words[0])
    except ValueError:
        return None
    modifier, bound = words[1], words[2] if len(words) > 2 else ""
    if modifier == "exact":
        return PrefixListLine(Action.PERMIT, prefix)
    if modifier in ("orlonger", "longer"):
        return PrefixListLine(Action.PERMIT, prefix, prefix.length + (modifier == "longer"), 32)
    if modifier == "upto" and bound[:1] == "/" and bound[1:].isdecimal():
        return PrefixListLine(Action.PERMIT, prefix, prefix.length, int(bound[1:]))
    low, _, high = bound.partition("-")
    if modifier == "prefix-length-range" and all(
        part[:1] == "/" and part[1:].isdecimal() for part in (low, high)
    ):
        return PrefixListLine(Action.PERMIT, prefix, int(low[1:]), int(high[1:]))
    return None


def _convert_policy(config: JuniperConfig, name: str, device: Device) -> RouteMap:
    route_map = RouteMap(
        name=name,
        source_file=config.filename,
        source_line=config.definition_lines.get(("route-map", name), 0),
    )
    for seq, term_name in enumerate(config.policy_term_order[name], start=1):
        term = config.policy_terms[name][term_name]
        action = Action.PERMIT
        sets: List[RouteMapSet] = []
        for then in term.thens:
            if then[:1] == ["accept"]:
                action = Action.PERMIT
            elif then[:1] == ["reject"]:
                action = Action.DENY
            elif then[:1] == ["local-preference"] and len(then) >= 2:
                sets.append(RouteMapSet(SetKind.LOCAL_PREF, then[1]))
            elif then[:1] == ["metric"] and len(then) >= 2:
                sets.append(RouteMapSet(SetKind.METRIC, then[1]))
            elif then[:2] == ["community", "add"] and len(then) >= 3:
                sets.append(RouteMapSet(SetKind.COMMUNITY_ADDITIVE, then[2]))
            elif then[:2] == ["community", "set"] and len(then) >= 3:
                sets.append(RouteMapSet(SetKind.COMMUNITY, then[2]))
            elif then[:2] == ["as-path-prepend"] and len(then) >= 2:
                sets.append(RouteMapSet(SetKind.AS_PATH_PREPEND, " ".join(then[1:])))
        matches: List[RouteMapMatch] = []
        for from_ in term.froms:
            if from_[:1] == ["prefix-list"] and len(from_) >= 2:
                matches.append(RouteMapMatch(MatchKind.PREFIX_LIST, from_[1]))
            elif from_[:1] == ["community"] and len(from_) >= 2:
                matches.append(RouteMapMatch(MatchKind.COMMUNITY, from_[1]))
            elif from_[:1] == ["protocol"] and len(from_) >= 2:
                matches.append(RouteMapMatch(MatchKind.PROTOCOL, from_[1]))
        if term.route_filters:
            # The term's route filters, as a prefix list of their own.
            filters = f"{name}.{term_name}.route-filter"
            device.prefix_lists[filters] = PrefixList(
                name=filters,
                lines=list(term.route_filters),
                source_file=config.filename,
                source_line=config.term_lines.get(("policy", name, term_name), 0),
            )
            matches.append(RouteMapMatch(MatchKind.PREFIX_LIST, filters))
        route_map.clauses.append(
            RouteMapClause(
                seq=seq * 10,
                action=action,
                matches=matches,
                sets=sets,
                source_file=config.filename,
                source_line=config.term_lines.get(("policy", name, term_name), 0),
            )
        )
    return route_map


def _convert_filter(config: JuniperConfig, name: str) -> Acl:
    acl = Acl(
        name=name,
        source_file=config.filename,
        source_line=config.definition_lines.get(("acl", name), 0),
    )
    for term_name in config.filter_term_order[name]:
        term = config.filter_terms[name][term_name]
        line = _term_to_acl_line(
            term,
            f"term {term_name}",
            source_file=config.filename,
            source_line=config.term_lines.get(("filter", name, term_name), 0),
        )
        if line is not None:
            acl.lines.append(line)
    return acl


def _term_to_acl_line(
    term: JuniperTerm,
    label: str,
    source_file: str = "",
    source_line: int = 0,
) -> Optional[AclLine]:
    action = Action.PERMIT
    for then in term.thens:
        if then[:1] == ["accept"]:
            action = Action.PERMIT
        elif then[:1] in (["discard"], ["reject"]):
            action = Action.DENY
    protocol = None
    src = dst = None
    src_ports: List[Tuple[int, int]] = []
    dst_ports: List[Tuple[int, int]] = []
    established = False
    for from_ in term.froms:
        if from_[:1] == ["protocol"] and len(from_) >= 2:
            protocol = _PROTOCOL_NAMES.get(from_[1])
        elif from_[:1] == ["source-address"] and len(from_) >= 2:
            src = Prefix(from_[1])
        elif from_[:1] == ["destination-address"] and len(from_) >= 2:
            dst = Prefix(from_[1])
        elif from_[:1] == ["source-port"] and len(from_) >= 2:
            src_ports.append(_parse_port_token(from_[1]))
        elif from_[:1] == ["destination-port"] and len(from_) >= 2:
            dst_ports.append(_parse_port_token(from_[1]))
        elif from_[:2] == ["tcp-flags", "established"] or from_[:1] == ["tcp-established"]:
            established = True
    return AclLine(
        action=action,
        protocol=protocol,
        src=src,
        dst=dst,
        src_ports=tuple(src_ports),
        dst_ports=tuple(dst_ports),
        established=established,
        name=label,
        source_file=source_file,
        source_line=source_line,
    )


def _parse_port_token(token: str) -> Tuple[int, int]:
    if "-" in token:
        low, _, high = token.partition("-")
        return int(low), int(high)
    return int(token), int(token)


def _convert_zone_policies(config: JuniperConfig, device: Device) -> None:
    """Each zone pair becomes a synthetic ACL built from its policies."""
    for (from_zone, to_zone), policies in config.zone_policies.items():
        acl_name = f"~zone~{from_zone}~{to_zone}~"
        acl = Acl(name=acl_name, source_file=config.filename)
        for policy_name, term in policies.items():
            line = _term_to_acl_line(
                term,
                f"policy {policy_name}",
                source_file=config.filename,
                source_line=config.term_lines.get(
                    ("security-policy", f"{from_zone}|{to_zone}", policy_name), 0
                ),
            )
            if line is not None:
                acl.lines.append(line)
            if line is not None and not acl.source_line:
                acl.source_line = line.source_line
        device.acls[acl_name] = acl
        device.zone_policies[(from_zone, to_zone)] = ZonePolicy(
            from_zone=from_zone, to_zone=to_zone, acl=acl_name,
            source_file=config.filename, source_line=acl.source_line,
        )
        for zone_name in (from_zone, to_zone):
            device.zones.setdefault(zone_name, Zone(name=zone_name))
