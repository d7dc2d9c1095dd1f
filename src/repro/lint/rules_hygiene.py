"""Configuration-hygiene lint rules.

Thin adapters over the existing reference/topology analyses so their
results flow through the common Finding model (severity, provenance,
suppression, SARIF) instead of bespoke answer shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.config.model import Device
from repro.config.references import (
    StructureType,
    undefined_references,
    unused_structures,
)
from repro.findings import Finding, Location, Related, Severity
from repro.lint.registry import rule
from repro.routing.topology import duplicate_ips

if TYPE_CHECKING:
    from repro.lint.runner import LintStage


def _definition_location(
    device: Device, structure_type: StructureType, name: str
) -> Location:
    """Best-effort location of a structure's definition."""
    holder = {
        StructureType.ACL: device.acls,
        StructureType.PREFIX_LIST: device.prefix_lists,
        StructureType.COMMUNITY_LIST: device.community_lists,
        StructureType.ROUTE_MAP: device.route_maps,
        StructureType.INTERFACE: device.interfaces,
    }.get(structure_type)
    structure = holder.get(name) if holder is not None else None
    if structure is not None and getattr(structure, "source_line", 0):
        return Location(structure.source_file, structure.source_line)
    return Location()


@rule(
    "undefined-reference",
    Severity.ERROR,
    "hygiene",
    "Reference to a structure (ACL, route map, prefix list, interface, "
    "zone, ...) that is not defined on the device — the classic typo "
    "that silently changes behavior.",
)
def undefined_reference(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    findings: List[Finding] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for ref in undefined_references(device):
            findings.append(
                Finding(
                    "undefined-reference",
                    Severity.ERROR,
                    "hygiene",
                    hostname,
                    f"undefined {ref.structure_type.value} {ref.name} "
                    f"referenced by {ref.context}",
                    Location(ref.source_file, ref.source_line),
                )
            )
    return findings


@rule(
    "unused-structure",
    Severity.NOTE,
    "hygiene",
    "Defined structure never reachable from any active reference site "
    "(transitive: a prefix list used only by an unused route map is "
    "itself unused).",
)
def unused_structure(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    findings: List[Finding] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for unused in unused_structures(device):
            findings.append(
                Finding(
                    "unused-structure",
                    Severity.NOTE,
                    "hygiene",
                    hostname,
                    f"{unused.structure_type.value} {unused.name} is "
                    "defined but never used",
                    _definition_location(
                        device, unused.structure_type, unused.name
                    ),
                )
            )
    return findings


@rule(
    "duplicate-ip",
    Severity.WARNING,
    "hygiene",
    "IP address assigned to more than one enabled interface in the "
    "snapshot.",
)
def duplicate_ip(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    findings: List[Finding] = []
    for ip, owners in duplicate_ips(snapshot):
        first, rest = owners[0], owners[1:]
        first_iface = snapshot.device(first.node).interfaces[first.interface]
        related = []
        for owner in rest:
            iface = snapshot.device(owner.node).interfaces[owner.interface]
            related.append(
                Related(
                    Location(iface.source_file, iface.source_line),
                    f"also assigned on {owner}",
                )
            )
        findings.append(
            Finding(
                "duplicate-ip",
                Severity.WARNING,
                "hygiene",
                first.node,
                f"address {ip} is assigned to {len(owners)} interfaces: "
                + ", ".join(str(owner) for owner in owners),
                Location(first_iface.source_file, first_iface.source_line),
                tuple(related),
            )
        )
    return findings
