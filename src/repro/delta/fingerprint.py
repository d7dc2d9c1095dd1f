"""Routing fingerprints: did an edit change what routing consumes?

The delta engine reuses the base data plane only when no device's
*routing-relevant* configuration projection changed — equivalence
pruning in the sense of Plankton (Prabhu et al.): editing an NTP server,
an SNMP community or an interface description cannot move a route, so a
snapshot differing only in such lines has no seed. Any seed means a full
recompute; there is no partial re-simulation.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import List, Set

from repro.config.model import Device, Snapshot

#: Fields that can never influence routing: pure annotations. Stripped
#: recursively so an edit that only *shifts* later lines of a file (and
#: thus their source_line attribution) does not poison the fingerprint.
_ANNOTATION_FIELDS = frozenset({"source_file", "source_line", "description"})


def _canon(value) -> object:
    """A canonical, hashable rendering of (nested) model objects."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canon(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                if f.name not in _ANNOTATION_FIELDS
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


def routing_fingerprint(device: Device) -> str:
    """Hash of the device's routing-relevant configuration projection.

    Includes: interfaces (addresses, state, OSPF parameters, attached
    filters), static routes, the OSPF and BGP processes, and — only when
    the device participates in a routing protocol — the policy
    structures those protocols evaluate (route maps and the lists they
    reference) plus, for BGP speakers, ACLs (which gate TCP/179 session
    viability, §4.1.1). Excludes management-plane configuration (NTP,
    DNS, SNMP), zones/zone policies (forwarding-time only, re-evaluated
    against the new snapshot), roles, raw config lines, and all
    source-location annotations.
    """
    has_bgp = device.bgp is not None
    policy_relevant = has_bgp or device.ospf is not None
    projection = (
        ("hostname", device.hostname),
        ("interfaces", _canon(device.interfaces)),
        ("static_routes", _canon(device.static_routes)),
        ("ospf", _canon(device.ospf)),
        ("bgp", _canon(device.bgp)),
        # ACLs reach routing only through BGP session viability.
        ("acls", _canon(device.acls) if has_bgp else None),
        ("route_maps", _canon(device.route_maps) if policy_relevant else None),
        ("prefix_lists", _canon(device.prefix_lists) if policy_relevant else None),
        (
            "community_lists",
            _canon(device.community_lists) if policy_relevant else None,
        ),
        (
            "as_path_lists",
            _canon(device.as_path_lists) if policy_relevant else None,
        ),
    )
    return hashlib.sha256(repr(projection).encode()).hexdigest()


def routing_seeds(
    base: Snapshot, new: Snapshot, changed_hosts: Set[str]
) -> List[str]:
    """Devices that exist in only one snapshot, or whose routing
    fingerprint differs between the two.

    Only ``changed_hosts`` are hashed: the caller passes every hostname
    a changed-byte file maps to on either side, and a device parsed
    from unchanged bytes is identical, so the diff is O(edit) rather
    than O(network).
    """
    seeds = base.devices.keys() ^ new.devices.keys()
    for hostname in changed_hosts & base.devices.keys() & new.devices.keys():
        if routing_fingerprint(base.devices[hostname]) != routing_fingerprint(
            new.devices[hostname]
        ):
            seeds.add(hostname)
    return sorted(seeds)
