"""Task-specific reachability questions (§4.4.1).

"Batfish now wraps the underlying general mechanisms with highly
task-specific queries. Checking if a service endpoint is reachable from
its intended client locations is a separate query from checking if a
service cannot be reached." Each question picks its own scoping
defaults (§4.4.2) and reports contrasting positive/negative examples
(§4.4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.reachability.examples import (
    default_preferences,
    differing_fields,
    pick_example_pair,
)
from repro.reachability.graph import Disposition, GraphNode, src_node
from repro.reachability.queries import SUCCESS_DISPOSITIONS, NetworkAnalyzer


@dataclass
class ServiceReachabilityAnswer:
    """Answer of the "clients can reach the service" question.

    Example packets are in **source coordinates**: headers as a client
    at that source would send them, before any NAT on the way.
    """

    service: str
    reachable: bool
    #: sources that can NOT reach the service at all.
    failing_sources: List[GraphNode] = field(default_factory=list)
    #: per failing source: a counterexample and a contrasting positive
    #: example (if some traffic does get through), with the differing
    #: fields between them.
    examples: Dict[GraphNode, Tuple[Optional[Packet], Optional[Packet], List[str]]] = field(
        default_factory=dict
    )


def service_reachable(
    analyzer: NetworkAnalyzer,
    service_ip: "Ip | str",
    port: int,
    client_locations: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    protocols: Sequence[int] = (f.PROTO_TCP,),
) -> ServiceReachabilityAnswer:
    """Can the intended clients reach the service endpoint?

    The intent is "every client location can deliver service traffic";
    sources whose entire (scoped) service-traffic space fails are
    reported with contrasting examples.

    Scoping defaults (§4.4.2): without explicit client locations, the
    host-facing interfaces are used with plausible source addresses,
    suppressing spoofed-source and similar uninteresting violations.
    """
    encoder = analyzer.encoder
    engine = encoder.engine
    service_ip = Ip(service_ip)
    service_space = engine.and_(
        encoder.ip_eq(f.DST_IP, service_ip),
        engine.and_(
            encoder.field_eq(f.DST_PORT, port),
            engine.or_all(encoder.protocol(p) for p in protocols),
        ),
    )
    if client_locations is None:
        sources = analyzer.default_sources(service_space)
    else:
        sources = analyzer.sources_at(client_locations, service_space)
    answer = ServiceReachabilityAnswer(
        service=f"{service_ip}:{port}", reachable=True
    )
    for source, space in sorted(sources.items(), key=lambda kv: tuple(map(str, kv[0]))):
        success = analyzer.fated(source, SUCCESS_DISPOSITIONS, space)
        never_delivered = engine.diff(space, success)
        if never_delivered == FALSE:
            continue
        answer.reachable = False
        answer.failing_sources.append(source)
        negative, positive = pick_example_pair(
            encoder, never_delivered, success,
            default_preferences(encoder, dst_prefix=Prefix(service_ip.value, 32)),
        )
        contrast = (
            differing_fields(negative, positive)
            if negative is not None and positive is not None
            else []
        )
        answer.examples[source] = (negative, positive, contrast)
    return answer


@dataclass
class ServiceIsolationAnswer:
    """Answer of the "service must NOT be reachable" question.

    Example packets are in **source coordinates**: headers as injected
    at the leaking source, before any NAT on the way.
    """

    service: str
    isolated: bool
    leaking_sources: List[GraphNode] = field(default_factory=list)
    examples: Dict[GraphNode, Packet] = field(default_factory=dict)


def service_unreachable(
    analyzer: NetworkAnalyzer,
    service_ip: "Ip | str",
    port: int,
    from_locations: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    protocols: Sequence[int] = (f.PROTO_TCP,),
) -> ServiceIsolationAnswer:
    """The security-oriented twin of :func:`service_reachable`: verify
    that no (scoped) traffic can reach the endpoint — a separate query
    with different defaults, per §4.4.1."""
    encoder = analyzer.encoder
    engine = encoder.engine
    service_ip = Ip(service_ip)
    service_space = engine.and_(
        encoder.ip_eq(f.DST_IP, service_ip),
        engine.and_(
            encoder.field_eq(f.DST_PORT, port),
            engine.or_all(encoder.protocol(p) for p in protocols),
        ),
    )
    if from_locations is None:
        # Security default: all entry points, unscoped sources (an
        # attacker may spoof).
        sources = analyzer.all_sources(service_space)
    else:
        sources = analyzer.sources_at(from_locations, service_space)
    answer = ServiceIsolationAnswer(service=f"{service_ip}:{port}", isolated=True)
    for source, space in sorted(sources.items(), key=lambda kv: tuple(map(str, kv[0]))):
        delivered = analyzer.fated(source, SUCCESS_DISPOSITIONS, space)
        if delivered == FALSE:
            continue
        answer.isolated = False
        answer.leaking_sources.append(source)
        example = encoder.example_packet(
            delivered, default_preferences(encoder)
        )
        if example is not None:
            answer.examples[source] = example
    return answer
