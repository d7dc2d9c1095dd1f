"""Example selection and annotation (§4.4.3).

"Batfish picks examples (positive or negative) carefully to match what
is likely for the network ... common protocols (e.g., TCP) and
applications (e.g., HTTP) are prioritized. BDDs help to select positive
and negative examples quickly by intersecting the answer space with
preference constraints."

:func:`default_preferences` builds the standard preference chain;
:func:`pick_example_pair` returns a contrasting positive/negative pair
("if they differ only in source ports, the source port of the
counterexample is problematic"); :func:`annotate_packet` attaches the
routing and ACL entries a packet hits (via the concrete traceroute
engine — the Stage 4 provenance replacement after Datalog's automatic
provenance was lost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Prefix
from repro.hdr.packet import Packet

_COMMON_DST_PORTS = (80, 443, 22, 53)
_EPHEMERAL_LOW = 49152


def default_preferences(
    encoder: PacketEncoder,
    src_prefix: Optional[Prefix] = None,
    dst_prefix: Optional[Prefix] = None,
) -> List[int]:
    """Preference constraints, strongest first. Each is applied greedily
    and kept only while the answer space stays non-empty."""
    engine = encoder.engine
    preferences: List[int] = []
    if src_prefix is not None:
        preferences.append(encoder.ip_in_prefix(f.SRC_IP, src_prefix))
    if dst_prefix is not None:
        preferences.append(encoder.ip_in_prefix(f.DST_IP, dst_prefix))
    # Prefer TCP, then common applications, then a fresh (non-reply)
    # connection from an ephemeral port.
    preferences.append(encoder.tcp())
    preferences.append(
        engine.or_all(
            encoder.field_eq(f.DST_PORT, port) for port in _COMMON_DST_PORTS
        )
    )
    preferences.append(encoder.field_eq(f.DST_PORT, 80))
    preferences.append(
        encoder.field_in_range(f.SRC_PORT, _EPHEMERAL_LOW, 65535)
    )
    preferences.append(encoder.tcp_flag(f.TCP_ACK, False))
    preferences.append(encoder.tcp_flag(f.TCP_SYN, True))
    # Avoid addresses that read as bogus in reports (0.0.0.0, multicast).
    preferences.append(
        engine.not_(encoder.ip_in_prefix(f.SRC_IP, Prefix("0.0.0.0/8")))
    )
    preferences.append(
        engine.not_(encoder.ip_in_prefix(f.DST_IP, Prefix("224.0.0.0/4")))
    )
    return preferences


def pick_example_pair(
    encoder: PacketEncoder,
    violating_set: int,
    satisfying_set: int,
    preferences: Optional[Sequence[int]] = None,
) -> Tuple[Optional[Packet], Optional[Packet]]:
    """A (counterexample, positive example) pair chosen under the same
    preferences so they contrast meaningfully."""
    prefs = list(preferences) if preferences is not None else default_preferences(encoder)
    negative = encoder.example_packet(violating_set, prefs)
    positive = None
    if satisfying_set != FALSE and negative is not None:
        # Bias the positive example toward the counterexample's values so
        # the diff isolates the problematic field.
        anchored = [encoder.packet_bdd(negative)] + [
            _field_anchor(encoder, negative, name)
            for name in (f.DST_IP, f.SRC_IP, f.DST_PORT, f.IP_PROTOCOL, f.SRC_PORT)
        ] + prefs
        positive = encoder.example_packet(satisfying_set, anchored)
    elif satisfying_set != FALSE:
        positive = encoder.example_packet(satisfying_set, prefs)
    return negative, positive


def _field_anchor(encoder: PacketEncoder, packet: Packet, field_name: str) -> int:
    return encoder.field_eq(field_name, packet.field_value(field_name))


def differing_fields(a: Packet, b: Packet) -> List[str]:
    """Header fields on which two packets differ — the contrast shown to
    the user next to an example pair."""
    return [
        name
        for name in f.HEADER_FIELDS
        if a.field_value(name) != b.field_value(name)
    ]


@dataclass
class PacketAnnotation:
    """Context attached to an example packet."""

    packet: Packet
    start_location: Tuple[str, str]
    disposition: str
    hops: List[str] = field(default_factory=list)
    acl_lines_hit: List[str] = field(default_factory=list)
    fib_entries_hit: List[str] = field(default_factory=list)


def annotate_packet(
    analyzer, packet: Packet, start_node: str, start_interface: str
) -> PacketAnnotation:
    """Run the concrete traceroute engine for the packet and collect the
    routing and ACL entries it touches along its path(s)."""
    from repro.traceroute.engine import TracerouteEngine

    tracer = TracerouteEngine(analyzer.dataplane, analyzer.fibs)
    traces = tracer.trace(packet, start_node, start_interface)
    annotation = PacketAnnotation(
        packet=packet,
        start_location=(start_node, start_interface),
        disposition=traces[0].disposition.value if traces else "unknown",
    )
    for trace in traces:
        for hop in trace.hops:
            annotation.hops.append(hop.describe())
            for step in hop.steps:
                if step.kind == "acl":
                    annotation.acl_lines_hit.append(step.detail)
                elif step.kind == "fib":
                    annotation.fib_entries_hit.append(step.detail)
    return annotation
