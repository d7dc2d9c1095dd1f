"""Routing fingerprints: which routing stage's inputs did an edit change?

A device's fingerprint is one hash per routing stage of the part of its
configuration that stage reads — its *projection*:

* ``local``: connected and static routes (interface addressing and
  state, static routes);
* ``igp``: OSPF and redistribution into it (interfaces with their OSPF
  settings, the OSPF process, and the policies a redistribution into
  OSPF evaluates);
* ``bgp``: sessions, their viability and the exchange (interface
  addressing, state and filters, the BGP process, the router id, ACLs
  and the policies, for a BGP speaker).

Editing an NTP server, an SNMP community or an interface description
moves no projection. A moved ``igp`` or ``bgp`` projection makes that
stage run; a moved ``local`` one only rebuilds the device's main RIB,
and the stages run only if what they computed from or read of it moved
too (:func:`repro.routing.engine.compute_dataplane`).

Beside them sits the *lint* projection (:func:`lint_fingerprint`): what
a session's :class:`~repro.lint.LintStage` builds from — the topology,
the BGP session set, the dataflow graph and the rules' packet and
route-space encodings. Findings and dataflow stages carry source
locations, so it keeps every ``source_file``/``source_line`` and
description; an edit that shifts later lines of a file moves it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.config.model import Device, Snapshot

#: Fields that can never influence routing: pure annotations. Stripped
#: recursively so an edit that only *shifts* later lines of a file (and
#: thus their source_line attribution) does not poison the fingerprint.
_ANNOTATION_FIELDS = frozenset({"source_file", "source_line", "description"})

#: Interface fields only forwarding reads (NAT, zones, MTU), the filters
#: (read by BGP session viability alone) and the OSPF settings.
_FORWARDING = frozenset({"src_nat_rules", "dst_nat_rules", "zone", "mtu"})
_FILTERS = frozenset({"incoming_acl", "outgoing_acl"})
_OSPF = frozenset({
    "bandwidth", "ospf_enabled", "ospf_area", "ospf_cost", "ospf_passive",
    "ospf_hello_interval", "ospf_dead_interval",
})
#: Device fields no lint stage input reads: the management plane, the
#: line count, and the in-source suppressions (a run applies those from
#: its own snapshot).
_LINT_INERT = frozenset({
    "ntp_servers", "dns_servers", "snmp_communities", "config_lines",
    "lint_suppressions",
})


class RoutingFingerprint(NamedTuple):
    """Per routing stage, the hash of a device's projection for it."""

    local: str
    igp: str
    bgp: str


STAGES = RoutingFingerprint._fields


#: Types whose values :func:`_canon` keeps as they are: the final
#: ``repr`` renders them, and tells ``1`` from ``'1'``.
_PLAIN = frozenset({str, int, float, bool, type(None)})
#: Per type met, its dataclass field names, or None for any other type.
_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(kind: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELDS[kind]
    except KeyError:
        names = (
            tuple(f.name for f in dataclasses.fields(kind))
            if dataclasses.is_dataclass(kind) else None
        )
        _FIELDS[kind] = names
        return names


def _canon(
    value,
    without: FrozenSet[str] = _ANNOTATION_FIELDS,
    nested: FrozenSet[str] = _ANNOTATION_FIELDS,
) -> object:
    """A canonical, hashable rendering of (nested) model objects, the
    dataclass fields in ``without`` left out, and those in ``nested``
    from the objects below. Any other value is kept as it is, to be
    rendered by the digest's one ``repr``."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    names = _field_names(kind)
    if names is not None:
        return (
            kind.__name__,
            tuple(
                (name, _canon(getattr(value, name), nested, nested))
                for name in names
                if name not in without
            ),
        )
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canon(v, nested, nested)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v, nested, nested) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(str(v) for v in value))
    return value


def _interfaces(device: Device) -> List[Tuple[str, str, Tuple]]:
    """Each interface's name, type name and canonical fields, the ones
    no routing stage reads left out: canonicalized once per device and
    projected per stage (:func:`_project`)."""
    interfaces = []
    for name, iface in sorted(device.interfaces.items()):
        kind, fields = _canon(iface, _ANNOTATION_FIELDS | _FORWARDING)
        interfaces.append((name, kind, fields))
    return interfaces


def _project(interfaces: List[Tuple[str, str, Tuple]], without: FrozenSet[str]) -> object:
    """The interfaces as one stage reads them: equal to canonicalizing
    each with ``without`` left out too."""
    return tuple(
        (name, (kind, tuple(field for field in fields if field[0] not in without)))
        for name, kind, fields in interfaces
    )


def _digest(projection: object) -> str:
    return hashlib.sha256(repr(projection).encode()).hexdigest()


def routing_fingerprint(device: Device) -> RoutingFingerprint:
    """The device's routing projections, one hash per stage.

    Excludes management-plane configuration (NTP, DNS, SNMP), zones,
    zone policies and NAT (forwarding-time only, evaluated against the
    new snapshot), roles, raw config lines, and all source-location
    annotations. Policies count only for a stage that evaluates them:
    OSPF with a redistribution, BGP; ACLs only for a BGP speaker (they
    gate TCP/179 session viability, §4.1.1).
    """
    ospf, bgp = device.ospf, device.bgp
    policies = None
    if bgp is not None or (ospf is not None and ospf.redistributions):
        policies = (
            _canon(device.route_maps),
            _canon(device.prefix_lists),
            _canon(device.community_lists),
            _canon(device.as_path_lists),
        )
    interfaces = _interfaces(device)
    return RoutingFingerprint(
        local=_digest((_project(interfaces, _FILTERS | _OSPF), _canon(device.static_routes))),
        igp=_digest((
            _project(interfaces, _FILTERS),
            _canon(ospf),
            policies if ospf is not None and ospf.redistributions else None,
        )),
        bgp=_digest((
            # Viability reads filters only on the ends of a session.
            _project(interfaces, _OSPF if bgp is not None else _OSPF | _FILTERS),
            _canon(bgp),
            # The router id falls back to OSPF's.
            repr(ospf.router_id) if ospf is not None else None,
            _canon(device.acls) if bgp is not None else None,
            policies if bgp is not None else None,
        )),
    )


def lint_fingerprint(device: Device) -> str:
    """The hash of the device's lint projection: the whole parsed
    device, source locations and descriptions included, but for the
    fields no lint stage input reads (NTP, DNS, SNMP, the line count,
    the ``lint-disable`` comments)."""
    return _digest(_canon(device, _LINT_INERT, frozenset()))


class Fingerprints:
    """One snapshot's routing and lint fingerprints by hostname, each
    hashed on first use and kept: a parsed device never changes. A
    session holds one, and a delta starts its own with its base's for
    the devices it took over (:meth:`carried_to`), so a chain of edits
    hashes each device once."""

    __slots__ = ("snapshot", "_memo", "_lint")

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        self._memo: Dict[str, RoutingFingerprint] = {}
        self._lint: Dict[str, str] = {}

    def __getitem__(self, hostname: str) -> RoutingFingerprint:
        fingerprint = self._memo.get(hostname)
        if fingerprint is None:
            device = self.snapshot.devices[hostname]
            fingerprint = self._memo[hostname] = routing_fingerprint(device)
        return fingerprint

    def lint(self, hostname: str) -> str:
        fingerprint = self._lint.get(hostname)
        if fingerprint is None:
            device = self.snapshot.devices[hostname]
            fingerprint = self._lint[hostname] = lint_fingerprint(device)
        return fingerprint

    def carried_to(self, snapshot: Snapshot) -> "Fingerprints":
        """``snapshot``'s fingerprints, holding those of this memo whose
        device ``snapshot`` holds as the very same object."""
        carried = Fingerprints(snapshot)
        devices = self.snapshot.devices
        # Copies first: another delta of the same base may be adding to
        # the memos on another thread meanwhile.
        carried._memo, carried._lint = (
            {
                hostname: fingerprint
                for hostname, fingerprint in dict(memo).items()
                if snapshot.devices.get(hostname) is devices[hostname]
            }
            for memo in (self._memo, self._lint)
        )
        return carried


def routing_changes(
    base: Fingerprints, new: Fingerprints, changed_hosts: Set[str]
) -> Dict[str, List[str]]:
    """Per stage, the devices whose projection for it differs; a device
    in one snapshot only differs in every stage.

    Only ``changed_hosts`` are compared: the caller passes every
    hostname a changed-byte file maps to on either side, and a device
    parsed from unchanged bytes is identical, so the diff is O(edit)
    rather than O(network); each side's memo hashes a device at most
    once per session.
    """
    base_devices, new_devices = base.snapshot.devices, new.snapshot.devices
    moved = sorted(base_devices.keys() ^ new_devices.keys())
    changes: Dict[str, List[str]] = {stage: list(moved) for stage in STAGES}
    for hostname in sorted(changed_hosts & base_devices.keys() & new_devices.keys()):
        for stage, old, now in zip(STAGES, base[hostname], new[hostname]):
            if old != now:
                changes[stage].append(hostname)
    return changes


def lint_changes(base: Fingerprints, new: Fingerprints, changed_hosts: Set[str]) -> List[str]:
    """The devices whose lint projection differs, a device in one
    snapshot only included; like :func:`routing_changes`, only
    ``changed_hosts`` are compared."""
    base_devices, new_devices = base.snapshot.devices, new.snapshot.devices
    moved = set(base_devices.keys() ^ new_devices.keys())
    moved.update(
        hostname
        for hostname in changed_hosts & base_devices.keys() & new_devices.keys()
        if base.lint(hostname) != new.lint(hostname)
    )
    return sorted(moved)
