"""ACL semantics: concrete (first-match) evaluation and BDD encoding.

The same ACL model is consumed by two independent engines — the concrete
evaluator used by traceroute and session checks, and the symbolic BDD
encoding used by the reachability engine. Keeping both against one model
is what enables the differential engine testing of §4.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Acl, AclLine, Action
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.packet import Packet


@dataclass(frozen=True)
class AclResult:
    """Disposition of a packet against an ACL, with the matched line for
    annotation (§4.4.3: "we annotate example packets with as much
    context as possible, such as the routing and ACL entries that they
    hit")."""

    action: Action
    line_index: Optional[int]  # None = implicit deny at end
    line: Optional[AclLine]

    @property
    def permitted(self) -> bool:
        return self.action is Action.PERMIT

    def describe(self) -> str:
        if self.line is None:
            return "implicit deny"
        rendered = f"line {self.line_index}: {self.line.name or self.line.action.value}"
        if self.line.source_line:
            # Source-level provenance survives normalization (§7.3), so
            # the user is pointed at the configuration text itself.
            rendered += f" ({self.line.source_file}:{self.line.source_line})"
        return rendered


def line_matches(line: AclLine, packet: Packet) -> bool:
    """Concrete first-match semantics for one ACL line."""
    if line.protocol is not None and packet.ip_protocol != line.protocol:
        return False
    if line.src is not None and not line.src.contains_ip(packet.src_ip):
        return False
    if line.dst is not None and not line.dst.contains_ip(packet.dst_ip):
        return False
    if line.src_ports and not any(
        low <= packet.src_port <= high for low, high in line.src_ports
    ):
        return False
    if line.dst_ports and not any(
        low <= packet.dst_port <= high for low, high in line.dst_ports
    ):
        return False
    if line.established:
        if packet.ip_protocol != f.PROTO_TCP:
            return False
        if not (packet.tcp_flag(f.TCP_ACK) or packet.tcp_flag(f.TCP_RST)):
            return False
    if line.icmp_type is not None and packet.icmp_type != line.icmp_type:
        return False
    return True


def evaluate_acl(acl: Acl, packet: Packet) -> AclResult:
    """First matching line wins; fall through to implicit deny."""
    for index, line in enumerate(acl.lines):
        if line_matches(line, packet):
            return AclResult(action=line.action, line_index=index, line=line)
    return AclResult(action=Action.DENY, line_index=None, line=None)


def evaluate_acl_trace(acl: Acl, packet: Packet) -> Tuple[AclResult, List[str]]:
    """Like :func:`evaluate_acl`, but also return the ordered evaluation
    trace: one human-readable record per line *considered* — every
    skipped line up to and including the deciding one (§4.4: the
    provenance layer shows the full first-match walk, not just the hit).
    """
    trace: List[str] = []
    for index, line in enumerate(acl.lines):
        label = line.name or f"{line.action.value} line {index}"
        if line_matches(line, packet):
            trace.append(f"line {index} [{label}]: matched -> {line.action.value}")
            return AclResult(action=line.action, line_index=index, line=line), trace
        trace.append(f"line {index} [{label}]: no match")
    trace.append("end of ACL: implicit deny")
    return AclResult(action=Action.DENY, line_index=None, line=None), trace


# ----------------------------------------------------------------------
# BDD encoding


def line_space(line: AclLine, encoder: PacketEncoder) -> int:
    """The set of packets a single line matches, as a BDD."""
    engine = encoder.engine
    conjuncts: List[int] = []
    if line.protocol is not None:
        conjuncts.append(encoder.protocol(line.protocol))
    if line.src is not None:
        conjuncts.append(encoder.ip_in_prefix(f.SRC_IP, line.src))
    if line.dst is not None:
        conjuncts.append(encoder.ip_in_prefix(f.DST_IP, line.dst))
    if line.src_ports:
        conjuncts.append(encoder.port_ranges(f.SRC_PORT, line.src_ports))
    if line.dst_ports:
        conjuncts.append(encoder.port_ranges(f.DST_PORT, line.dst_ports))
    if line.established:
        flags = engine.or_(
            encoder.tcp_flag(f.TCP_ACK), encoder.tcp_flag(f.TCP_RST)
        )
        conjuncts.append(engine.and_(encoder.tcp(), flags))
    if line.icmp_type is not None:
        conjuncts.append(encoder.field_eq(f.ICMP_TYPE, line.icmp_type))
    return engine.and_all(conjuncts)


def acl_permit_space(acl: Acl, encoder: PacketEncoder) -> int:
    """The set of packets the ACL permits, honouring line order.

    Classic sequential encoding: a line contributes the part of its
    match space not claimed by any earlier line. The running
    already-matched union is inherently sequential, but the permitted
    contributions are order-independent once carved, so they are
    combined with the balanced n-ary union kernel.
    """
    engine = encoder.engine
    permit_parts: List[int] = []
    already_matched = FALSE
    for line in acl.lines:
        space = line_space(line, encoder)
        if line.action is Action.PERMIT:
            permit_parts.append(engine.diff(space, already_matched))
        already_matched = engine.or_(already_matched, space)
    return engine.or_all(permit_parts)


def acl_line_spaces(
    acl: Acl, encoder: PacketEncoder
) -> List[Tuple[AclLine, int]]:
    """Per-line *effective* match spaces (match minus earlier lines).

    Used to annotate examples with exactly the line a packet hits, and
    by the unreachable-line question (ACL refactoring use-case, §5.3).
    """
    engine = encoder.engine
    already_matched = FALSE
    result: List[Tuple[AclLine, int]] = []
    for line in acl.lines:
        space = line_space(line, encoder)
        fresh = engine.diff(space, already_matched)
        result.append((line, fresh))
        already_matched = engine.or_(already_matched, space)
    return result


def blocking_lines(
    engine, spaces: Sequence[int], index: int, covered: int
) -> List[int]:
    """The earlier lines that take ``covered`` (packets of line
    ``index``) away from it: walking lines ``0 .. index-1`` in order
    over ``spaces`` (each line's full :func:`line_space`), every line
    that matches some of what is still left, until nothing is."""
    blockers: List[int] = []
    remaining = covered
    for earlier in range(index):
        if remaining == FALSE:
            break
        if engine.and_(spaces[earlier], remaining) != FALSE:
            blockers.append(earlier)
            remaining = engine.diff(remaining, spaces[earlier])
    return blockers
