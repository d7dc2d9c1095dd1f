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
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Dict, FrozenSet, List, NamedTuple, Set

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


class RoutingFingerprint(NamedTuple):
    """Per routing stage, the hash of a device's projection for it."""

    local: str
    igp: str
    bgp: str


STAGES = RoutingFingerprint._fields


def _canon(value, without: FrozenSet[str] = _ANNOTATION_FIELDS) -> object:
    """A canonical, hashable rendering of (nested) model objects, the
    dataclass fields in ``without`` left out."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canon(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                if f.name not in without
            ),
        )
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(str(v) for v in value))
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    return repr(value)


def _interfaces(device: Device, without: FrozenSet[str]) -> object:
    return tuple(
        (name, _canon(iface, _ANNOTATION_FIELDS | _FORWARDING | without))
        for name, iface in sorted(device.interfaces.items())
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
    return RoutingFingerprint(
        local=_digest((_interfaces(device, _FILTERS | _OSPF), _canon(device.static_routes))),
        igp=_digest((
            _interfaces(device, _FILTERS),
            _canon(ospf),
            policies if ospf is not None and ospf.redistributions else None,
        )),
        bgp=_digest((
            # Viability reads filters only on the ends of a session.
            _interfaces(device, _OSPF if bgp is not None else _OSPF | _FILTERS),
            _canon(bgp),
            # The router id falls back to OSPF's.
            repr(ospf.router_id) if ospf is not None else None,
            _canon(device.acls) if bgp is not None else None,
            policies if bgp is not None else None,
        )),
    )


def routing_changes(
    base: Snapshot, new: Snapshot, changed_hosts: Set[str]
) -> Dict[str, List[str]]:
    """Per stage, the devices whose projection for it differs; a device
    in one snapshot only differs in every stage.

    Only ``changed_hosts`` are hashed: the caller passes every hostname
    a changed-byte file maps to on either side, and a device parsed
    from unchanged bytes is identical, so the diff is O(edit) rather
    than O(network).
    """
    moved = sorted(base.devices.keys() ^ new.devices.keys())
    changes: Dict[str, List[str]] = {stage: list(moved) for stage in STAGES}
    for hostname in sorted(changed_hosts & base.devices.keys() & new.devices.keys()):
        before = routing_fingerprint(base.devices[hostname])
        after = routing_fingerprint(new.devices[hostname])
        for stage, old, now in zip(STAGES, before, after):
            if old != now:
                changes[stage].append(hostname)
    return changes
