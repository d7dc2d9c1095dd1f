"""Filter (ACL) questions: testFilters, searchFilters, and unreachable
lines (Lesson 5 / the ACL-refactoring use-case of §5.3).

``test_filter`` answers "does this ACL permit this concrete packet, and
which line decides?" — the direct replacement for lab-testing a filter.
``search_filters`` finds the packets within a header space that an ACL
permits/denies symbolically. ``unreachable_filter_lines`` finds lines
fully shadowed by earlier lines — the entries ACL-compression projects
remove (e.g. the large-ACL refactoring story in §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bdd.engine import FALSE
from repro.config.model import Acl, AclLine, Action, Device, Snapshot
from repro.dataplane.acl import (
    AclResult,
    acl_permit_space,
    blocking_lines,
    evaluate_acl,
    line_space,
)
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.packet import Packet
from repro.reachability.examples import default_preferences


@dataclass
class TestFilterRow:
    hostname: str
    filter_name: str
    packet: Packet
    action: Action
    matched_line: Optional[str]  # None = implicit deny


def test_filter(
    snapshot: Snapshot, hostname: str, filter_name: str, packet: Packet
) -> TestFilterRow:
    """Evaluate one packet against one ACL (concrete semantics)."""
    device = snapshot.device(hostname)
    acl = device.acls.get(filter_name)
    if acl is None:
        raise KeyError(f"{hostname} has no filter {filter_name!r}")
    result = evaluate_acl(acl, packet)
    return TestFilterRow(
        hostname=hostname,
        filter_name=filter_name,
        packet=packet,
        action=result.action,
        matched_line=result.line.name if result.line else None,
    )


@dataclass
class SearchFiltersRow:
    hostname: str
    filter_name: str
    action: Action
    example: Packet
    matched_line: Optional[str]


def search_filters(
    snapshot: Snapshot,
    headerspace: HeaderSpace,
    action: Action = Action.PERMIT,
    encoder: Optional[PacketEncoder] = None,
) -> List[SearchFiltersRow]:
    """Find, for every ACL in the network, whether it can take ``action``
    on some packet in ``headerspace`` — with an example packet."""
    encoder = encoder or PacketEncoder()
    engine = encoder.engine
    space = headerspace.to_bdd(encoder)
    preferences = default_preferences(encoder)
    rows: List[SearchFiltersRow] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for filter_name in sorted(device.acls):
            acl = device.acls[filter_name]
            permit = acl_permit_space(acl, encoder)
            target = permit if action is Action.PERMIT else engine.not_(permit)
            overlap = engine.and_(space, target)
            if overlap == FALSE:
                continue
            packet = encoder.example_packet(overlap, preferences)
            result = evaluate_acl(acl, packet)
            rows.append(
                SearchFiltersRow(
                    hostname=hostname,
                    filter_name=filter_name,
                    action=action,
                    example=packet,
                    matched_line=result.line.name if result.line else None,
                )
            )
    return rows


@dataclass
class UnreachableLineRow:
    hostname: str
    filter_name: str
    line_index: int
    line: str
    blocking_lines: List[int]


def unreachable_filter_lines(
    snapshot: Snapshot, encoder: Optional[PacketEncoder] = None
) -> List[UnreachableLineRow]:
    """Lines that can never match because earlier lines shadow them.

    These are exactly the redundant entries the §5.3 refactoring
    use-case compresses away. The blocking lines are reported so the
    user can see *why* the line is dead.
    """
    encoder = encoder or PacketEncoder()
    engine = encoder.engine
    rows: List[UnreachableLineRow] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for filter_name in sorted(device.acls):
            acl = device.acls[filter_name]
            spaces = [line_space(line, encoder) for line in acl.lines]
            matched = FALSE
            for index, (line, space) in enumerate(zip(acl.lines, spaces)):
                if engine.diff(space, matched) == FALSE:
                    rows.append(
                        UnreachableLineRow(
                            hostname=hostname,
                            filter_name=filter_name,
                            line_index=index,
                            line=line.name or str(line.action.value),
                            blocking_lines=blocking_lines(
                                engine, spaces, index, space
                            ),
                        )
                    )
                matched = engine.or_(matched, space)
    return rows
