"""The *old* per-source question loops, kept as a test-only reference.

Until PR 19 multipath consistency, ``service_reachable``,
``service_unreachable`` and ``compare_reachability`` each ran one
forward fixpoint per source (``analyzer.reachability({source: scope})``)
and read success and failure off the sets that arrived at the sinks.
They now intersect the source's scope with ``NetworkAnalyzer.fates()``
— one backward fixpoint per disposition, shared by every question —
and this module is the parent's code with the loops intact, so that it
shares nothing with what it checks but the forward engine.

Sets here are in **at-sink** coordinates: behind a ``Transform`` (NAT)
they carry the translated header, which is why these versions give
wrong answers on NET8 (``tests/questions/test_source_coordinates.py``)
and are compared with production only where no path rewrites a header.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE
from repro.hdr import fields as f
from repro.hdr.ip import Ip, Prefix
from repro.questions.differential import ReachabilityDiffAnswer
from repro.questions.specialized import (
    ServiceIsolationAnswer,
    ServiceReachabilityAnswer,
)
from repro.reachability.examples import (
    default_preferences,
    differing_fields,
    pick_example_pair,
)
from repro.reachability.graph import GraphNode
from repro.reachability.queries import (
    FAILURE_DISPOSITIONS,
    SUCCESS_DISPOSITIONS,
    MultipathViolation,
    NetworkAnalyzer,
)


def _by_name(node: GraphNode):
    return tuple(map(str, node))


def per_source_multipath_consistency(
    analyzer: NetworkAnalyzer, sources: Optional[Dict[GraphNode, int]] = None
) -> List[MultipathViolation]:
    engine = analyzer.encoder.engine
    sources = sources if sources is not None else analyzer.all_sources()
    violations: List[MultipathViolation] = []
    for source in sorted(sources, key=_by_name):
        answer = analyzer.reachability({source: sources[source]})
        success = answer.success_set()
        failure = answer.failure_set()
        if success == FALSE or failure == FALSE:
            continue
        both = engine.and_(success, failure)
        if both == FALSE:
            continue
        example = analyzer.encoder.example_packet(
            both, default_preferences(analyzer.encoder)
        )
        violations.append(
            MultipathViolation(
                source=source,
                packet_set=both,
                example=example,
                success_dispositions=[
                    d for d in SUCCESS_DISPOSITIONS
                    if engine.and_(
                        answer.by_disposition.get(d, FALSE), both
                    ) != FALSE
                ],
                failure_dispositions=[
                    d for d in FAILURE_DISPOSITIONS
                    if engine.and_(
                        answer.by_disposition.get(d, FALSE), both
                    ) != FALSE
                ],
            )
        )
    return violations


def _service_space(analyzer, service_ip: Ip, port: int, protocols) -> int:
    encoder = analyzer.encoder
    engine = encoder.engine
    return engine.and_(
        encoder.ip_eq(f.DST_IP, service_ip),
        engine.and_(
            encoder.field_eq(f.DST_PORT, port),
            engine.or_all(encoder.protocol(p) for p in protocols),
        ),
    )


def per_source_service_reachable(
    analyzer: NetworkAnalyzer,
    service_ip: "Ip | str",
    port: int,
    client_locations: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    protocols: Sequence[int] = (f.PROTO_TCP,),
) -> ServiceReachabilityAnswer:
    encoder = analyzer.encoder
    engine = encoder.engine
    service_ip = Ip(service_ip)
    service_space = _service_space(analyzer, service_ip, port, protocols)
    if client_locations is None:
        sources = analyzer.default_sources(service_space)
    else:
        sources = analyzer.sources_at(client_locations, service_space)
    answer = ServiceReachabilityAnswer(
        service=f"{service_ip}:{port}", reachable=True
    )
    for source, space in sorted(sources.items(), key=lambda kv: _by_name(kv[0])):
        result = analyzer.reachability({source: space})
        success = result.success_set()
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


def per_source_service_unreachable(
    analyzer: NetworkAnalyzer,
    service_ip: "Ip | str",
    port: int,
    from_locations: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    protocols: Sequence[int] = (f.PROTO_TCP,),
) -> ServiceIsolationAnswer:
    encoder = analyzer.encoder
    service_ip = Ip(service_ip)
    service_space = _service_space(analyzer, service_ip, port, protocols)
    if from_locations is None:
        sources = analyzer.all_sources(service_space)
    else:
        sources = analyzer.sources_at(from_locations, service_space)
    answer = ServiceIsolationAnswer(service=f"{service_ip}:{port}", isolated=True)
    for source, space in sorted(sources.items(), key=lambda kv: _by_name(kv[0])):
        result = analyzer.reachability({source: space})
        delivered = result.success_set()
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


def per_source_compare_reachability(
    before: NetworkAnalyzer,
    after: NetworkAnalyzer,
    sources: Sequence[Tuple[str, Optional[str]]],
    headerspace_bdd: int = 1,
) -> ReachabilityDiffAnswer:
    if before.encoder is not after.encoder:
        raise ValueError("analyzers must share one PacketEncoder")
    engine = before.encoder.engine
    answer = ReachabilityDiffAnswer()
    preferences = default_preferences(before.encoder)
    for location in sources:
        before_map = before.sources_at([location], headerspace_bdd)
        after_map = after.sources_at([location], headerspace_bdd)
        for source in sorted(set(before_map) | set(after_map), key=_by_name):
            old = (
                before.reachability({source: before_map[source]}).success_set()
                if source in before_map
                else FALSE
            )
            new = (
                after.reachability({source: after_map[source]}).success_set()
                if source in after_map
                else FALSE
            )
            gained = engine.diff(new, old)
            lost = engine.diff(old, new)
            if gained != FALSE:
                answer.gained[source] = gained
                answer.gained_examples[source] = before.encoder.example_packet(
                    gained, preferences
                )
            if lost != FALSE:
                answer.lost[source] = lost
                answer.lost_examples[source] = before.encoder.example_packet(
                    lost, preferences
                )
    return answer
