"""Parser for the ``juniperish`` configuration syntax (flat set-style).

Like :mod:`repro.config.cisco`, parsing is one pass: the handler of each
``set`` statement writes the vendor-independent objects it denotes as it
reads the line, under the one boundary of
:func:`~repro.config.model.diagnosed` (a statement the parser cannot model
becomes one located warning and is left out). A short
:meth:`_Parser.finish` resolves what a statement may name before it is
defined: ``router-id`` and ``local-as``, neighbors with no ``peer-as``,
zone membership, and the order of zones, zone ACLs and route-filter
prefix lists. Supporting a second, structurally different syntax is what
exercises the Stage 1 normalization the paper discusses (and the §7.3
usability cost of it).

Supported statement families::

    set system host-name NAME
    set system ntp server IP
    set system name-server IP
    set interfaces IFACE unit 0 family inet address A.B.C.D/L
    set interfaces IFACE unit 0 family inet filter input|output NAME
    set interfaces IFACE disable
    set interfaces IFACE description TEXT
    set interfaces IFACE bandwidth|mtu N
    set protocols ospf area N interface IFACE [metric M] [passive]
        [hello-interval S] [dead-interval S]
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
    set policy-options policy-statement P term T from community|protocol NAME
    set policy-options policy-statement P term T then local-preference N
    set policy-options policy-statement P term T then metric N
    set policy-options policy-statement P term T then community add|set C
    set policy-options policy-statement P term T then as-path-prepend ASN...
    set policy-options policy-statement P term T then accept|reject
        (a term with neither falls through: it is left out)
    set policy-options community NAME members A:B
    set firewall filter NAME term T from protocol|source-address|
        destination-address|source-port|destination-port|tcp-established ...
    set firewall filter NAME term T then accept|discard|reject
    set security zones security-zone Z interfaces IFACE
    set security policies from-zone A to-zone B policy P match ...
    set security policies from-zone A to-zone B policy P then permit|deny|reject
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple, Union

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
    diagnosed,
)
from repro.hdr import fields as f
from repro.hdr.ip import Ip, Prefix

_PROTOCOL_NAMES = {
    "tcp": f.PROTO_TCP,
    "udp": f.PROTO_UDP,
    "icmp": f.PROTO_ICMP,
}

#: ``from WORD NAME`` conditions of a policy term, as route-map matches.
_POLICY_MATCHES = {
    "prefix-list": MatchKind.PREFIX_LIST,
    "community": MatchKind.COMMUNITY,
    "protocol": MatchKind.PROTOCOL,
}

#: ``then WORD N`` actions of a policy term that set a number.
_POLICY_NUMBERS = {"local-preference": SetKind.LOCAL_PREF, "metric": SetKind.METRIC}


def parse_juniper(
    text: str, filename: str = "<config>"
) -> Tuple[Device, List[ParseWarning]]:
    """Parse juniperish text into a vendor-independent Device."""
    parser = _Parser(text, filename)
    parser.parse()
    return parser.device, parser.warnings


class _Parser:
    """One juniperish file: the device it writes and the warnings it gives."""

    def __init__(self, text: str, filename: str):
        self.lines = text.splitlines()
        self.filename = filename
        self.device = Device(
            hostname="", vendor="juniperish",
            config_lines=sum(1 for line in self.lines if line.strip()),
        )
        self.warnings: List[ParseWarning] = []
        self.number = 0
        self.line = ""
        #: Each term's model object: its route-map clause (policies) or
        #: its line's index in the ACL (filters, security policies).
        self._terms: Dict[Tuple[str, str, str], Union[RouteMapClause, int]] = {}
        #: The policy terms a ``then accept|reject`` ends.
        self._ended: Set[Tuple[str, str, str]] = set()
        # What finish() resolves once every line is read.
        self._router_id: Optional[Ip] = None
        self._local_as: Optional[int] = None
        self._route_filters: Set[str] = set()

    def parse(self) -> None:
        for number, raw in enumerate(self.lines, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                words = line.lstrip("#").split()
                if words[:1] == ["lint-disable"]:
                    for rule in words[1:] or ["*"]:
                        self.device.lint_suppressions.append((rule, self.filename, number))
                continue
            self.number, self.line = number, line
            diagnosed(self.warnings, self.device.hostname or self.filename,
                      self.filename, number, line, self._statement)
        self.finish()

    def _warn(self, comment: str, number: int = 0, text: str = "") -> None:
        self.warnings.append(ParseWarning(
            self.device.hostname or self.filename, number or self.number,
            text or self.line, comment, self.filename,
        ))

    def _statement(self, tokens: List[str]) -> None:
        if tokens[0] != "set" or len(tokens) < 3:
            raise ValueError("expected a 'set' statement")
        family, path = tokens[1], tokens[2:]
        if family == "system":
            self._system(path)
        elif family == "interfaces":
            self._interface(path)
        elif family == "protocols" and path[0] == "ospf":
            self._ospf(path[1:])
        elif family == "protocols" and path[0] == "bgp":
            self._bgp(path[1:])
        elif family == "routing-options":
            self._routing_options(path)
        elif family == "policy-options":
            self._policy_options(path)
        elif family == "firewall" and path[0] == "filter" and len(path) >= 5 and path[2] == "term":
            # firewall filter NAME term T from|then ...
            self._term("filter", path[1], path[3], path[4:])
        elif family == "security":
            self._security(path)
        else:
            raise ValueError("unrecognized configuration family")

    def _system(self, path: List[str]) -> None:
        device = self.device
        if path[0] == "host-name" and len(path) >= 2:
            device.hostname = path[1]
        elif path[:2] == ["ntp", "server"] and len(path) >= 3:
            device.ntp_servers.append(Ip(path[2]))
        elif path[0] == "name-server" and len(path) >= 2:
            device.dns_servers.append(Ip(path[1]))
        else:
            raise ValueError("unrecognized system statement")

    # -- interfaces and routing ---------------------------------------------

    def _interface_of(self, name: str, number: int) -> Interface:
        """The interface ``name``; a ``set interfaces`` line (``number``)
        is where it is defined, an OSPF line (0) only names it."""
        iface = self.device.interfaces.get(name)
        if iface is None:
            iface = self.device.interfaces[name] = Interface(name=name, source_file=self.filename)
        if not iface.source_line:
            iface.source_line = number
        return iface

    def _interface(self, path: List[str]) -> None:
        rest = path[1:]
        inner = rest[4:] if rest[:4] == ["unit", "0", "family", "inet"] else []
        if inner[:1] == ["address"] and len(inner) >= 2:
            values: Dict[str, object] = {
                "prefix_length": Prefix(inner[1]).length,
                "address": Ip(inner[1].split("/")[0]),
            }
        elif inner[:1] == ["filter"] and len(inner) >= 3 and inner[1] in ("input", "output"):
            values = {"incoming_acl" if inner[1] == "input" else "outgoing_acl": inner[2]}
        elif rest[:1] == ["disable"]:
            values = {"enabled": False}
        elif rest[:1] == ["description"]:
            values = {"description": " ".join(rest[1:])}
        elif rest[:1] in (["bandwidth"], ["mtu"]) and len(rest) >= 2:
            values = {rest[0]: int(rest[1])}
        else:
            raise ValueError("unrecognized interface statement")
        iface = self._interface_of(path[0], self.number)
        for field, value in values.items():
            setattr(iface, field, value)

    def _ospf_process(self) -> OspfProcess:
        if self.device.ospf is None:
            self.device.ospf = OspfProcess()
        return self.device.ospf

    def _ospf(self, path: List[str]) -> None:
        if path[:1] == ["area"] and len(path) >= 4 and path[2] == "interface":
            area = int(path[1].split(".")[-1])
            values: Dict[str, object] = {}
            extra = path[4:]
            while extra:
                if extra[0] == "passive":
                    values["ospf_passive"] = True
                    extra = extra[1:]
                    continue
                field = {
                    "metric": "ospf_cost",
                    "hello-interval": "ospf_hello_interval",
                    "dead-interval": "ospf_dead_interval",
                }.get(extra[0])
                if field is None:
                    raise ValueError(f"unrecognized ospf interface option {extra[0]}")
                values[field] = int(extra[1])
                extra = extra[2:]
            self._ospf_process()
            iface = self._interface_of(path[3], 0)
            iface.ospf_enabled = True
            iface.ospf_area = area
            if "ospf_hello_interval" in values and "ospf_dead_interval" not in values \
                    and iface.ospf_dead_interval == 40:
                # Vendor default: dead interval follows hello at 4x when unset.
                values["ospf_dead_interval"] = values["ospf_hello_interval"] * 4
            for field, value in values.items():
                setattr(iface, field, value)
        elif path[:1] == ["reference-bandwidth"] and len(path) >= 2:
            self._ospf_process().reference_bandwidth = int(path[1])
        elif path[:1] == ["export"] and len(path) >= 2:
            # Juniper-style: export policy governs redistribution.
            self._ospf_process().redistributions.append(self._export(path[1]))
        else:
            raise ValueError("unrecognized ospf statement")

    def _export(self, policy: str) -> Redistribution:
        """A process-level export policy: it redistributes main-RIB
        (static) routes, filtered by the named policy, with the
        statement's own line for provenance."""
        return Redistribution(
            source=Protocol.STATIC, route_map=policy,
            source_file=self.filename, source_line=self.number,
        )

    def _bgp(self, path: List[str]) -> None:
        if path[:1] == ["local-as"] and len(path) >= 2:
            local_as = int(path[1])
            self._bgp_process()
            self._local_as = local_as
        elif path[:1] == ["group"] and len(path) >= 4 and path[2] == "neighbor":
            self._neighbor(path[3:])
        elif path[:1] == ["export"] and len(path) >= 2:
            self._bgp_process().redistributions.append(self._export(path[1]))
        elif path[:2] == ["multipath", "maximum-paths"] and len(path) >= 3:
            self._bgp_process().maximum_paths = int(path[2])
        else:
            raise ValueError("unrecognized bgp statement")

    def _bgp_process(self) -> BgpProcess:
        # local_as is the local-as statement's, set by finish().
        if self.device.bgp is None:
            self.device.bgp = BgpProcess(local_as=0)
        return self.device.bgp

    def _neighbor(self, path: List[str]) -> None:
        peer, directive = Ip(path[0]), path[1:]
        value: object = True
        if directive[0] == "peer-as" and len(directive) >= 2:
            field, value = "remote_as", int(directive[1])
        elif directive[0] in ("import", "export") and len(directive) >= 2:
            field, value = f"{directive[0]}_policy", directive[1]
        elif directive[0] == "description":
            field, value = "description", " ".join(directive[1:])
        elif directive[0] == "multihop":
            field = "ebgp_multihop"
        else:
            raise ValueError("unrecognized bgp neighbor statement")
        neighbors = self._bgp_process().neighbors
        neighbor = neighbors.get(peer)
        if neighbor is None:
            # remote_as 0 until a peer-as line names it (finish drops a
            # neighbor that never gets one).
            neighbor = neighbors[peer] = BgpNeighbor(
                peer_ip=peer, remote_as=0,
                source_file=self.filename, source_line=self.number,
            )
        setattr(neighbor, field, value)

    def _routing_options(self, path: List[str]) -> None:
        if path[0] == "router-id" and len(path) >= 2:
            self._router_id = Ip(path[1])
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
                elif rest[0] == "preference" and len(rest) >= 2:
                    preference = int(rest[1])
                else:
                    raise ValueError(f"unexpected {rest[0]!r} in static route")
                rest = rest[2:]
            self.device.static_routes.append(StaticRoute(
                prefix=prefix,
                next_hop_ip=next_hop_ip,
                next_hop_interface=next_hop_interface,
                admin_distance=preference,
                source_file=self.filename,
                source_line=self.number,
            ))
        else:
            raise ValueError("unrecognized routing-options statement")

    # -- policies, filters, zones ---------------------------------------------

    def _policy_options(self, path: List[str]) -> None:
        device = self.device
        if path[0] == "prefix-list" and len(path) >= 3:
            line = PrefixListLine(action=Action.PERMIT, prefix=Prefix(path[2]))
            device.prefix_lists.setdefault(path[1], PrefixList(
                name=path[1], source_file=self.filename, source_line=self.number,
            )).lines.append(line)
        elif path[0] == "policy-statement" and len(path) >= 5 and path[2] == "term":
            self._policy_term(path[1], path[3], path[4:])
        elif path[0] == "community" and len(path) >= 4 and path[2] == "members":
            device.community_lists.setdefault(path[1], CommunityList(
                name=path[1], source_file=self.filename, source_line=self.number,
            )).communities.append(path[3])
        else:
            raise ValueError("unrecognized policy-options statement")

    def _policy_term(self, policy: str, term: str, words: List[str]) -> None:
        """``from ...``/``then ...`` of policy term ``term``: one clause,
        numbered 10, 20, ... in the order the terms first appear."""
        verb, args = words[0], words[1:]
        action: Optional[Action] = None
        match = set_ = route_filter = None
        if verb == "from" and args[0] == "route-filter":
            route_filter = _route_filter_line(args[1:])
        elif verb == "from" and args[0] in _POLICY_MATCHES and len(args) >= 2:
            match = RouteMapMatch(_POLICY_MATCHES[args[0]], args[1])
        elif verb == "from":
            raise ValueError(f"unmodelled from condition {args[0]}")
        elif verb != "then":
            raise ValueError("policy term needs from/then")
        elif args[0] in ("accept", "reject"):
            action = Action.PERMIT if args[0] == "accept" else Action.DENY
        elif args[0] in _POLICY_NUMBERS and len(args) >= 2:
            int(args[1])  # checked here, not when a route meets it
            set_ = RouteMapSet(_POLICY_NUMBERS[args[0]], args[1])
        elif args[0] == "community" and args[1:2] in (["add"], ["set"]) and len(args) >= 3:
            kind = SetKind.COMMUNITY_ADDITIVE if args[1] == "add" else SetKind.COMMUNITY
            set_ = RouteMapSet(kind, args[2])
        elif args[0] == "as-path-prepend" and len(args) >= 2:
            [int(asn) for asn in args[1:]]  # likewise
            set_ = RouteMapSet(SetKind.AS_PATH_PREPEND, " ".join(args[1:]))
        else:
            raise ValueError(f"unmodelled then action {args[0]}")
        route_map = self.device.route_maps.setdefault(policy, RouteMap(
            name=policy, source_file=self.filename, source_line=self.number,
        ))
        clause = self._terms.get(("policy", policy, term))
        if not isinstance(clause, RouteMapClause):
            clause = RouteMapClause(
                seq=10 * (len(route_map.clauses) + 1), action=Action.PERMIT,
                source_file=self.filename, source_line=self.number,
            )
            route_map.clauses.append(clause)
            self._terms[("policy", policy, term)] = clause
        if action is not None:
            clause.action = action
            self._ended.add(("policy", policy, term))
        elif set_ is not None:
            clause.sets.append(set_)
        elif match is not None:
            clause.matches.append(match)
        elif route_filter is not None:
            # The term's route filters, as a prefix list of its own.
            name = f"{policy}.{term}.route-filter"
            self.device.prefix_lists.setdefault(name, PrefixList(
                name=name, source_file=self.filename, source_line=clause.source_line,
            )).lines.append(route_filter)
            if name not in self._route_filters:
                self._route_filters.add(name)
                clause.matches.append(RouteMapMatch(MatchKind.PREFIX_LIST, name))
            problem = route_filter.bounds_problem()
            if problem:
                self._warn(f"invalid route-filter length bounds: {problem}")

    def _fall_through(self) -> None:
        """Leave out each policy term no ``then accept|reject`` ends: Junos
        goes on to the next term, as the map does without the clause. One
        that sets something first cannot be a clause, and is warned about.
        A policy left with no term is not defined."""
        for key, clause in self._terms.items():
            if key in self._ended or not isinstance(clause, RouteMapClause):
                continue
            _, policy, term = key
            if clause.sets:
                self._warn("policy term sets attributes but has no then accept|reject: not "
                           "modelled", clause.source_line, f"policy-statement {policy} term {term}")
            clauses = self.device.route_maps[policy].clauses
            clauses.remove(clause)
            if not clauses:
                del self.device.route_maps[policy]
            self.device.prefix_lists.pop(f"{policy}.{term}.route-filter", None)

    def _security(self, path: List[str]) -> None:
        if path[:2] == ["zones", "security-zone"] and len(path) >= 5 and path[3] == "interfaces":
            self.device.zones.setdefault(path[2], Zone(name=path[2])).interfaces.append(path[4])
        elif path[0] == "policies" and len(path) >= 9 and path[1] == "from-zone":
            # policies from-zone A to-zone B policy P (match|then) ...
            from_zone, to_zone, verb = path[2], path[4], path[7]
            if verb not in ("match", "then"):
                raise ValueError("security policy needs match/then")
            self._term("security-policy", f"{from_zone}|{to_zone}", path[6],
                       ["from" if verb == "match" else "then"] + path[8:])
        else:
            raise ValueError("unrecognized security statement")

    def _term(self, kind: str, container: str, term: str, words: List[str]) -> None:
        """``from ...``/``then ...`` of a firewall filter term or a security
        policy: one ACL line per term, in the order the terms first appear.
        A zone pair's policies make the ACL ``~zone~A~B~``."""
        if kind == "filter":
            name, label = container, f"term {term}"
        else:
            name, label = f"~zone~{container.replace('|', '~')}~", f"policy {term}"
        index = self._terms.get((kind, container, term))
        acl = self.device.acls.get(name)
        current = acl.lines[index] if isinstance(index, int) and acl is not None else AclLine(
            action=Action.PERMIT, name=label,
            source_file=self.filename, source_line=self.number,
        )
        updated = _term_line(current, words)
        if acl is None:
            acl = self.device.acls[name] = Acl(
                name=name, source_file=self.filename, source_line=self.number,
            )
            if kind != "filter":
                from_zone, to_zone = container.split("|")
                self.device.zone_policies[(from_zone, to_zone)] = ZonePolicy(
                    from_zone=from_zone, to_zone=to_zone, acl=name,
                    source_file=self.filename, source_line=self.number,
                )
        if isinstance(index, int):
            acl.lines[index] = updated
        else:
            self._terms[(kind, container, term)] = len(acl.lines)
            acl.lines.append(updated)

    # -- what statements name before it is defined ----------------------------

    def finish(self) -> None:
        device = self.device
        bgp = device.bgp
        if bgp is not None and self._local_as is None:
            if bgp.neighbors:
                first = next(iter(bgp.neighbors.values())).source_line
                self._warn("bgp neighbors configured without local-as", first, "protocols bgp")
            device.bgp = None
        elif bgp is not None:
            bgp.local_as = self._local_as
            for peer, neighbor in list(bgp.neighbors.items()):
                if neighbor.remote_as == 0:
                    self._warn("bgp neighbor has no peer-as; session cannot establish",
                               neighbor.source_line, f"neighbor {peer}")
                    del bgp.neighbors[peer]
        if self._router_id is not None:
            if device.bgp is not None:
                device.bgp.router_id = self._router_id
            if device.ospf is not None:
                device.ospf.router_id = self._router_id
            if device.bgp is None and device.ospf is None:
                device.ospf = OspfProcess(router_id=self._router_id)
        for zone in device.zones.values():
            for name in zone.interfaces:
                if name in device.interfaces:
                    device.interfaces[name].zone = zone.name
        # Zones a security policy names follow the zones that list
        # interfaces; zone ACLs follow the filters, and a term's
        # route-filter list follows the named prefix lists (its match
        # follows the term's other matches).
        for from_zone, to_zone in device.zone_policies:
            for zone_name in (from_zone, to_zone):
                device.zones.setdefault(zone_name, Zone(name=zone_name))
            acl_name = f"~zone~{from_zone}~{to_zone}~"
            device.acls[acl_name] = device.acls.pop(acl_name)
        self._fall_through()
        for route_map in device.route_maps.values():
            for clause in route_map.clauses:
                for match in [m for m in clause.matches if m.value in self._route_filters]:
                    clause.matches.remove(match)
                    clause.matches.append(match)
                    device.prefix_lists[match.value] = device.prefix_lists.pop(match.value)
        device.hostname = device.hostname or "unnamed"


def _route_filter_line(words: List[str]) -> PrefixListLine:
    """``P/L exact|orlonger|longer|upto /N|prefix-length-range /A-/B`` as
    the prefix-list line matching the same routes."""
    if len(words) < 2 or "/" not in words[0]:
        raise ValueError("unrecognized route-filter")
    prefix = Prefix(words[0])
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
    raise ValueError("unrecognized route-filter")


def _term_line(line: AclLine, words: List[str]) -> AclLine:
    """``line`` with one ``from ...``/``then ...`` of its term applied
    (``then accept|discard|reject`` of a filter term, ``then
    permit|deny|reject`` of a security policy)."""
    verb, args = words[0], words[1:]
    if verb == "then" and args[0] in ("accept", "permit", "discard", "reject", "deny"):
        permits = args[0] in ("accept", "permit")
        return replace(line, action=Action.PERMIT if permits else Action.DENY)
    if verb == "then":
        raise ValueError(f"unmodelled then action {args[0]}")
    if verb != "from":
        raise ValueError("filter term needs from/then")
    if args[:2] == ["tcp-flags", "established"] or args[:1] == ["tcp-established"]:
        return replace(line, established=True)
    value = args[1]
    side = {"source": "src", "destination": "dst"}.get(args[0].partition("-")[0])
    if args[0] == "protocol" and value in _PROTOCOL_NAMES:
        return replace(line, protocol=_PROTOCOL_NAMES[value])
    if side and args[0].endswith("-address"):
        return replace(line, **{side: Prefix(value)})
    if side and args[0].endswith("-port"):
        field = f"{side}_ports"
        low, dash, high = value.partition("-")
        ports = (int(low), int(high if dash else low))
        return replace(line, **{field: getattr(line, field) + (ports,)})
    raise ValueError(f"unmodelled from condition {args[0]} {value}")
