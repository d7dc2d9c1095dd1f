"""The vendor-independent configuration model (Stage 1).

Configuration text, whose syntax is specific to a router OS, is read by
the vendor parsers (:mod:`repro.config.cisco`, :mod:`repro.config.juniper`),
whose handler for each line writes the classes of this module that the
line denotes, under one containment boundary (:func:`diagnosed`).
Everything downstream — data-plane generation, BDD analysis,
and the configuration questions of Lesson 5 — operates on this model only.

The model is deliberately deep (per Lesson 5, "deep configuration modeling
has many applications"): it captures not just what affects forwarding
(interfaces, ACLs, routing processes, policies, NAT, zones) but also
management-plane settings (NTP/DNS servers) that configuration-hygiene
questions check.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.hdr.ip import Ip, Prefix


class Action(enum.Enum):
    """Permit/deny disposition used by ACL lines, prefix lists, and
    route-map clauses."""

    PERMIT = "permit"
    DENY = "deny"


class Protocol(enum.Enum):
    """Routing protocols recognized by the control-plane model, in the
    role of route provenance."""

    CONNECTED = "connected"
    STATIC = "static"
    OSPF = "ospf"
    OSPF_IA = "ospfIA"
    OSPF_E2 = "ospfE2"
    BGP = "bgp"
    IBGP = "ibgp"
    AGGREGATE = "aggregate"


# ----------------------------------------------------------------------
# ACLs


@dataclass(frozen=True)
class AclLine:
    """One line of an access control list.

    ``src_wildcard``/``dst_wildcard`` use prefix semantics (already
    normalized from vendor-specific wildcard masks by the parsers).
    ``established`` models the classic "TCP responses only" match
    (ACK or RST set) — one source of the *uninteresting violations*
    usability lesson.
    """

    action: Action
    protocol: Optional[int] = None  # None = any IP protocol
    src: Optional[Prefix] = None  # None = any
    dst: Optional[Prefix] = None
    src_ports: Tuple[Tuple[int, int], ...] = ()
    dst_ports: Tuple[Tuple[int, int], ...] = ()
    established: bool = False
    icmp_type: Optional[int] = None
    name: str = ""  # rendering of the original line, for annotations
    # Source-level provenance carried through normalization (§7.3: the
    # compiler-metadata technique — vendor-independent structures keep a
    # pointer back to the configuration text they came from).
    source_file: str = ""
    source_line: int = 0


@dataclass
class Acl:
    """A named ACL: ordered lines with first-match semantics and an
    implicit deny-all at the end."""

    name: str
    lines: List[AclLine] = field(default_factory=list)
    source_file: str = ""
    source_line: int = 0


# ----------------------------------------------------------------------
# Routing policy structures


@dataclass(frozen=True)
class PrefixListLine:
    action: Action
    prefix: Prefix
    ge: Optional[int] = None  # minimum matched length (inclusive)
    le: Optional[int] = None  # maximum matched length (inclusive)

    def matches(self, prefix: Prefix) -> bool:
        """Whether a concrete route prefix matches this line."""
        if not self.prefix.contains_prefix(prefix):
            return False
        low = self.ge if self.ge is not None else self.prefix.length
        high = self.le if self.le is not None else (
            32 if self.ge is not None else self.prefix.length
        )
        # A bare prefix-list entry matches the exact length only; ge/le
        # widen the match to a length band (vendor-documented semantics).
        if self.ge is None and self.le is None:
            return prefix.length == self.prefix.length
        return low <= prefix.length <= high

    def bounds_problem(self) -> str:
        """Why this line's length bounds are invalid, or "": ``ge`` and
        ``le`` must lie in the prefix's length..32, ``ge`` at most ``le``
        (the vendors refuse such a line; the model keeps it as written)."""
        for word, bound in (("ge", self.ge), ("le", self.le)):
            if bound is not None and not self.prefix.length <= bound <= 32:
                return f"{word} {bound} outside {self.prefix.length}..32"
        if self.ge is not None and self.le is not None and self.ge > self.le:
            return f"ge {self.ge} above le {self.le}"
        return ""


@dataclass
class PrefixList:
    name: str
    lines: List[PrefixListLine] = field(default_factory=list)
    source_file: str = ""
    source_line: int = 0

    def permits(self, prefix: Prefix) -> bool:
        """First-match evaluation with implicit deny."""
        for line in self.lines:
            if line.matches(prefix):
                return line.action is Action.PERMIT
        return False


@dataclass
class CommunityList:
    """A standard community list: permits a route if the route carries
    any of the listed communities."""

    name: str
    communities: List[str] = field(default_factory=list)
    source_file: str = ""
    source_line: int = 0

    def permits(self, route_communities: Sequence[str]) -> bool:
        return any(c in self.communities for c in route_communities)


def as_path_regex(text: str) -> "re.Pattern[str]":
    """The vendor AS-path regex ``text`` over the space-separated path:
    '^'/'$' anchor to its ends, '_' matches any AS boundary. One that does
    not compile is a ``ValueError`` (its line's parse warning)."""
    try:
        return re.compile(text.replace("_", "(?:^| |$)"))
    except re.error as error:
        raise ValueError(f"invalid as-path regex {text!r}: {error}") from None


@dataclass(frozen=True)
class AsPathListLine:
    action: Action
    pattern: "re.Pattern[str]"  # as_path_regex of the line's regex


@dataclass
class AsPathList:
    """An AS-path access list: first match over its lines, implicit
    deny."""

    name: str
    lines: List[AsPathListLine] = field(default_factory=list)

    def permits(self, as_path: Sequence[int]) -> bool:
        rendering = " ".join(str(asn) for asn in as_path)
        for line in self.lines:
            if line.pattern.search(rendering):
                return line.action is Action.PERMIT
        return False


class MatchKind(enum.Enum):
    PREFIX_LIST = "prefix-list"
    COMMUNITY = "community"
    AS_PATH = "as-path"
    TAG = "tag"
    METRIC = "metric"
    PROTOCOL = "protocol"


@dataclass(frozen=True)
class RouteMapMatch:
    kind: MatchKind
    value: str  # structure name, or literal rendered as a string


class SetKind(enum.Enum):
    LOCAL_PREF = "local-preference"
    METRIC = "metric"
    COMMUNITY = "community"
    COMMUNITY_ADDITIVE = "community-additive"
    AS_PATH_PREPEND = "as-path-prepend"
    NEXT_HOP = "next-hop"
    TAG = "tag"
    WEIGHT = "weight"


@dataclass(frozen=True)
class RouteMapSet:
    kind: SetKind
    value: str


@dataclass
class RouteMapClause:
    """One sequenced clause: all matches must hold (AND); on a permit
    clause the sets are applied and the route is accepted."""

    seq: int
    action: Action
    matches: List[RouteMapMatch] = field(default_factory=list)
    sets: List[RouteMapSet] = field(default_factory=list)
    source_file: str = ""
    source_line: int = 0


@dataclass
class RouteMap:
    name: str
    clauses: List[RouteMapClause] = field(default_factory=list)
    source_file: str = ""
    source_line: int = 0

    def sorted_clauses(self) -> List[RouteMapClause]:
        return sorted(self.clauses, key=lambda c: c.seq)


# ----------------------------------------------------------------------
# Routing processes


@dataclass(frozen=True)
class StaticRoute:
    prefix: Prefix
    next_hop_ip: Optional[Ip] = None
    next_hop_interface: Optional[str] = None  # includes null interfaces
    admin_distance: int = 1
    tag: int = 0
    source_file: str = ""
    source_line: int = 0

    @property
    def is_null_routed(self) -> bool:
        iface = (self.next_hop_interface or "").lower()
        return iface.startswith("null") or iface == "discard"


@dataclass(frozen=True)
class Redistribution:
    """Route redistribution into a protocol, optionally filtered and
    transformed by a route map."""

    source: Protocol
    route_map: Optional[str] = None
    metric: Optional[int] = None
    source_file: str = ""
    source_line: int = 0


@dataclass
class OspfProcess:
    process_id: str = "1"
    router_id: Optional[Ip] = None
    reference_bandwidth: int = 100_000_000  # 100 Mbps, classic default
    redistributions: List[Redistribution] = field(default_factory=list)
    max_metric_stub: bool = False
    default_information_originate: bool = False


@dataclass
class BgpNeighbor:
    peer_ip: Ip
    remote_as: int
    description: str = ""
    import_policy: Optional[str] = None  # route-map name
    export_policy: Optional[str] = None
    next_hop_self: bool = False
    send_community: bool = False
    route_reflector_client: bool = False
    ebgp_multihop: bool = False
    update_source: Optional[str] = None  # interface name
    local_as: Optional[int] = None
    source_file: str = ""
    source_line: int = 0


@dataclass
class BgpProcess:
    local_as: int
    router_id: Optional[Ip] = None
    neighbors: Dict[Ip, BgpNeighbor] = field(default_factory=dict)
    networks: List[Prefix] = field(default_factory=list)
    redistributions: List[Redistribution] = field(default_factory=list)
    maximum_paths: int = 1  # >1 enables BGP multipath


# ----------------------------------------------------------------------
# NAT and zones


class NatKind(enum.Enum):
    SOURCE = "source"
    DESTINATION = "destination"
    STATIC = "static"


@dataclass(frozen=True)
class NatRule:
    """A NAT rule on an interface: packets matching ``match_acl`` get the
    relevant address field rewritten into ``pool`` (a prefix; a /32 means
    a fixed rewrite)."""

    kind: NatKind
    match_acl: Optional[str]  # None = match everything
    pool: Prefix
    # Static NAT maps a specific inside prefix to an outside prefix 1:1.
    static_inside: Optional[Prefix] = None


@dataclass
class Zone:
    """A firewall zone: a named set of interfaces (§4.2.3)."""

    name: str
    interfaces: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class ZonePolicy:
    """Filtering applied to traffic from one zone to another, expressed
    as an ACL reference. Absence of a policy means default-deny across
    zones (and default-permit within a zone)."""

    from_zone: str
    to_zone: str
    acl: str
    source_file: str = ""
    source_line: int = 0


# ----------------------------------------------------------------------
# Interfaces and devices


@dataclass
class Interface:
    name: str
    address: Optional[Ip] = None
    prefix_length: Optional[int] = None
    enabled: bool = True
    description: str = ""
    bandwidth: int = 1_000_000_000  # bps
    mtu: int = 1500
    # OSPF per-interface settings.
    ospf_enabled: bool = False
    ospf_area: int = 0
    ospf_cost: Optional[int] = None
    ospf_passive: bool = False
    ospf_hello_interval: int = 10  # seconds (vendor default)
    ospf_dead_interval: int = 40
    # Filters and transformations.
    incoming_acl: Optional[str] = None
    outgoing_acl: Optional[str] = None
    src_nat_rules: List[NatRule] = field(default_factory=list)
    dst_nat_rules: List[NatRule] = field(default_factory=list)
    zone: Optional[str] = None
    source_file: str = ""
    source_line: int = 0

    @property
    def prefix(self) -> Optional[Prefix]:
        """The connected prefix of the interface, if it has an address."""
        if self.address is None or self.prefix_length is None:
            return None
        return Prefix(self.address, self.prefix_length)

    @property
    def is_loopback(self) -> bool:
        return self.name.lower().startswith(("lo", "loopback"))


class DeviceRole(enum.Enum):
    ROUTER = "router"
    FIREWALL = "firewall"
    LOAD_BALANCER = "load_balancer"


@dataclass
class Device:
    """The vendor-independent configuration of one network device."""

    hostname: str
    vendor: str = "ciscoish"
    role: DeviceRole = DeviceRole.ROUTER
    interfaces: Dict[str, Interface] = field(default_factory=dict)
    acls: Dict[str, Acl] = field(default_factory=dict)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    as_path_lists: Dict[str, AsPathList] = field(default_factory=dict)
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    static_routes: List[StaticRoute] = field(default_factory=list)
    ospf: Optional[OspfProcess] = None
    bgp: Optional[BgpProcess] = None
    zones: Dict[str, Zone] = field(default_factory=dict)
    zone_policies: Dict[Tuple[str, str], ZonePolicy] = field(default_factory=dict)
    ntp_servers: List[Ip] = field(default_factory=list)
    dns_servers: List[Ip] = field(default_factory=list)
    snmp_communities: List[str] = field(default_factory=list)
    config_lines: int = 0  # LoC of the original text, for reporting
    #: In-source lint suppressions: (rule_id, source_file, source_line)
    #: captured from ``lint-disable`` comments; rule_id "*" disables all
    #: rules for this device.
    lint_suppressions: List[Tuple[str, str, int]] = field(default_factory=list)

    def interface_ips(self) -> List[Tuple[str, Ip, int]]:
        """(interface, address, prefix-length) for all addressed
        interfaces. Used by duplicate-IP and topology inference."""
        return [
            (name, iface.address, iface.prefix_length)
            for name, iface in sorted(self.interfaces.items())
            if iface.address is not None and iface.enabled
        ]

    def zone_of_interface(self, interface_name: str) -> Optional[str]:
        iface = self.interfaces.get(interface_name)
        if iface is not None and iface.zone is not None:
            return iface.zone
        for zone in self.zones.values():
            if interface_name in zone.interfaces:
                return zone.name
        return None

    def router_id(self) -> Ip:
        """Effective router id: explicit BGP/OSPF id, else the highest
        loopback address, else the highest interface address — the
        vendor-documented fallback chain."""
        if self.bgp is not None and self.bgp.router_id is not None:
            return self.bgp.router_id
        if self.ospf is not None and self.ospf.router_id is not None:
            return self.ospf.router_id
        loopbacks = [
            i.address
            for i in self.interfaces.values()
            if i.is_loopback and i.address is not None
        ]
        if loopbacks:
            return max(loopbacks)
        addresses = [
            i.address for i in self.interfaces.values() if i.address is not None
        ]
        if addresses:
            return max(addresses)
        return Ip(0)


@dataclass
class ParseWarning:
    """A non-fatal issue found while parsing configuration (lines the
    parser cannot model, suspicious constructs). Mirrors Batfish's
    parse-warning surface."""

    hostname: str
    line_number: int
    text: str
    comment: str
    #: Snapshot file the warning came from, so answers can point at the
    #: exact source file:line.
    source_file: str = ""

    def describe(self) -> str:
        location = self.source_file or self.hostname
        if self.line_number:
            location += f":{self.line_number}"
        return f"{location}: {self.comment} ({self.text.strip()})"


def diagnosed(
    warnings: List[ParseWarning],
    hostname: str,
    source_file: str,
    number: int,
    text: str,
    handler: Callable[[List[str]], Any],
    failed: Any = None,
) -> Any:
    """Run ``handler`` on the words of line ``number`` (``text``) of
    ``source_file``: the one containment boundary of both parsers.

    A handler computes its values before it writes to the model, so a line
    it cannot model raises ``ValueError`` or ``IndexError`` with nothing
    written. That becomes one :class:`ParseWarning` naming the file, the
    line and the reason, and ``failed`` is returned in place of the
    handler's result; the rest of the file parses on.
    """
    try:
        return handler(text.split())
    except (ValueError, IndexError) as error:
        reason = str(error) if isinstance(error, ValueError) else "missing a word"
        warnings.append(ParseWarning(hostname, number, text, reason, source_file))
        return failed


@dataclass
class Snapshot:
    """A parsed network snapshot: all devices plus parse metadata."""

    devices: Dict[str, Device] = field(default_factory=dict)
    warnings: List[ParseWarning] = field(default_factory=list)
    #: filename -> hostname for each input file, in the order files were
    #: assembled. The delta engine uses this to map edited files onto
    #: devices; duplicate hostnames make it non-injective (the later
    #: file wins in :attr:`devices`), which delta treats as a full-
    #: recompute signal.
    sources: Dict[str, str] = field(default_factory=dict)

    def device(self, hostname: str) -> Device:
        return self.devices[hostname]

    def hostnames(self) -> List[str]:
        return sorted(self.devices)
