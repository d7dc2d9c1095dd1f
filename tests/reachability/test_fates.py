"""`NetworkAnalyzer.fates()` — one backward fixpoint per disposition —
against the per-source forward loops it replaced
(`per_source_reference`), against the forward engine and the concrete
tracer packet by packet, and counted: questions about sources,
`Session.reachability()` among them, run no forward fixpoint at all."""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, obs
from repro.bdd.engine import FALSE
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.questions.differential import compare_reachability
from repro.questions.specialized import service_reachable, service_unreachable
from repro.reachability import queries
from repro.reachability.graph import Transform
from repro.reachability.queries import NetworkAnalyzer
from repro.synth.networks import NETWORKS, network_by_name
from repro.traceroute.engine import TracerouteEngine

from ..questions.test_source_coordinates import NAT_LAB
from .per_source_reference import (
    per_source_compare_reachability,
    per_source_multipath_consistency,
    per_source_service_reachable,
    per_source_service_unreachable,
)

#: NET8's firewall translates sources: the only registry graph where
#: at-sink and at-source sets differ.
NAT_NETWORKS = {"NET8"}


@functools.lru_cache(maxsize=None)
def _session(name: str) -> Session:
    session = Session.from_texts(network_by_name(name).generate(1))
    session.analyzer
    return session


def _services(analyzer: NetworkAnalyzer):
    """Two endpoints worth asking about on any network: a host on the
    first user-facing subnet, and an address outside the network."""
    source = sorted(analyzer.default_sources())[0]
    subnet = analyzer.dataplane.snapshot.device(source[1]).interfaces[source[2]].prefix
    return [(Ip(subnet.network.value + 10), 80), (Ip("8.8.8.8"), 443)]


@pytest.mark.parametrize("name", [spec.name for spec in NETWORKS])
def test_same_answers_as_the_per_source_loops(name):
    """Both on one analyzer, so one hash-consed engine: equal node ids
    are equal sets, and equal sets pick equal examples."""
    analyzer = _session(name).analyzer
    has_nat = any(
        isinstance(part, Transform)
        for edge in analyzer.graph.edges
        for part in getattr(edge.fn, "parts", [edge.fn])
    )
    assert has_nat == (name in NAT_NETWORKS)

    for sources in (None, analyzer.default_sources()):
        new = analyzer.multipath_consistency(sources)
        old = per_source_multipath_consistency(analyzer, sources)
        assert len(new) == len(old)
        for mine, reference in zip(new, old):
            assert mine.source == reference.source
            assert mine.packet_set == reference.packet_set
            assert mine.example == reference.example
            assert mine.success_dispositions == reference.success_dispositions
            assert mine.failure_dispositions == reference.failure_dispositions

    if has_nat:
        return  # the reference compares at-sink sets with at-source scopes
    for service_ip, port in _services(analyzer):
        assert service_reachable(
            analyzer, service_ip, port
        ) == per_source_service_reachable(analyzer, service_ip, port)
        assert service_unreachable(
            analyzer, service_ip, port
        ) == per_source_service_unreachable(analyzer, service_ip, port)


def test_same_reachability_diff_as_the_per_source_loops():
    """NET1 against NET1 without its one ACL deny line, from every
    interface of every device: flows gained, none lost."""
    before = _session("NET1")
    configs = network_by_name("NET1").generate(1)
    deny = " deny tcp any any eq 23\n"
    assert deny in configs["net1-core0"]
    configs["net1-core0"] = configs["net1-core0"].replace(deny, "")
    after = NetworkAnalyzer(
        Session.from_texts(configs).dataplane, encoder=before.encoder
    )
    locations = [(hostname, None) for hostname in before.snapshot.hostnames()]
    new = compare_reachability(before.analyzer, after, locations)
    old = per_source_compare_reachability(before.analyzer, after, locations)
    assert new == old
    assert new.gained and not new.lost


def test_violation_counts_of_the_registry():
    """What the differential above compares is not vacuous."""
    assert len(_session("NET1").analyzer.multipath_consistency()) == 26
    assert len(_session("NET10").analyzer.multipath_consistency()) == 39


# ----------------------------------------------------------------------
# Session.reachability(): the union of the fates at the asked sources


@functools.lru_cache(maxsize=None)
def _lab() -> Session:
    return Session.from_texts(NAT_LAB)


def _web(session: Session, octet: int = 0) -> HeaderSpace:
    """tcp/80 to a /24: the first user-facing subnet's, moved by
    ``octet`` in its third byte."""
    source = sorted(session.analyzer.default_sources())[0]
    subnet = session.snapshot.device(source[1]).interfaces[source[2]].prefix
    network = (subnet.network.value & 0xFFFFFF00) + (octet << 8)
    return HeaderSpace.build(
        dst=Prefix(network, 24), protocols=[f.PROTO_TCP],
        dst_ports=[(80, 80)],
    )


def _shapes(session: Session):
    """The four shapes of a reachability question: scoped defaults,
    every interface, a header space, and the interfaces of one device."""
    host = sorted(session.analyzer.default_sources())[0][1]
    return [
        {},
        {"scoped": False},
        {"headerspace": _web(session)},
        {"sources": [(host, None)]},
    ]


@pytest.mark.parametrize(
    "name", [spec.name for spec in NETWORKS if spec.name not in NAT_NETWORKS]
)
def test_session_reachability_is_the_forward_answer_without_nat(name):
    """One engine, so equal node ids are equal sets: the fates read at
    the sources are what the forward engine carries to the sinks."""
    session = _session(name)
    for shape in _shapes(session):
        answer = session.reachability(**shape)
        forward = session.analyzer.reachability(session.source_map(**shape))
        assert answer.by_disposition == forward.by_disposition, shape
        assert answer.by_disposition, shape
        assert not answer.by_sink and not answer.reach


@pytest.mark.parametrize("name", ["NET8", "NAT_LAB"])
def test_session_reachability_examples_trace_from_their_sources(name):
    """Behind a NAT: each disposition's example is a header some asked
    source can inject, and injected there it meets that disposition."""
    session = _lab() if name == "NAT_LAB" else _session(name)
    encoder = session.encoder
    tracer = TracerouteEngine(session.dataplane, session.fibs)
    for shape in _shapes(session):
        scopes = session.source_map(**shape)
        for fate, packets in session.reachability(**shape).by_disposition.items():
            example = encoder.example_packet(packets)
            point = encoder.packet_bdd(example)
            assert any(
                encoder.engine.and_(point, scope) != FALSE
                and fate in {
                    trace.disposition
                    for trace in tracer.trace(example, source[1], source[2])
                }
                for source, scope in sorted(scopes.items())
            ), (shape, fate, example)


def test_one_backward_pass_per_disposition_and_no_forward_pass(monkeypatch):
    """Answered forward, these questions cost 1 + 1 + 1 + 126 + up to
    44 + 126 fixpoints on NET10, and one more per further header
    space."""
    session = Session.from_texts(network_by_name("NET10").generate(1))
    analyzer = session.analyzer
    backward = mock.Mock(wraps=queries.backward_reachability)
    forward = mock.Mock(wraps=queries.forward_reachability)
    monkeypatch.setattr(queries, "backward_reachability", backward)
    monkeypatch.setattr(queries, "forward_reachability", forward)

    for shape in _shapes(session)[:3]:
        assert session.reachability(**shape).by_disposition
    assert len(session.multipath_consistency()) == 39
    present = {
        "delivered" if node[0] == "sink" else node[2]
        for node in analyzer.graph.sink_nodes()
    }
    assert backward.call_count == len(present) == len(analyzer.fates())
    assert forward.call_count == 0
    for service_ip, port in _services(analyzer):
        service_reachable(analyzer, service_ip, port)
        service_unreachable(analyzer, service_ip, port)
    assert len(analyzer.multipath_consistency()) == 39
    for octet in range(1, 41):
        session.reachability(_web(session, octet))
    assert backward.call_count == len(present)
    assert forward.call_count == 0


def test_multipath_and_fates_reach_metrics_without_tracing():
    """The service and the coverage gate run in metrics-only mode; the
    parent guarded multipath's counters with ``obs.enabled()`` and they
    never got there."""
    session = Session.from_texts(network_by_name("NET1").generate(1))
    analyzer = session.analyzer
    obs.disable()  # tracing too, when the suite runs under REPRO_TRACE
    obs.reset()
    obs.enable_metrics()
    try:
        assert not obs.enabled()
        with obs.coverage_scope() as vector:
            analyzer.multipath_consistency()
            analyzer.multipath_consistency()
        metrics = obs.metrics()
        assert metrics.counter("query.multipath_runs") == 2
        assert metrics.counter("query.multipath_violations") == 2 * 26
        assert metrics.counter("query.fate_fixpoints") == len(analyzer.fates())
        assert metrics.counter("query.reachability_runs") == 0
        # Engine size is read where it is shown (the service's scrape),
        # never left behind as a process-wide gauge.
        assert metrics.gauge_value("bdd.nodes") is None
        assert set(vector) >= {
            ("interface", node[1], node[2], None)
            for node in analyzer.graph.source_nodes()
        }
    finally:
        obs.disable()
        obs.reset()


def test_a_trace_shows_the_fates_built_once():
    session = Session.from_texts(network_by_name("NET1").generate(1))
    analyzer = session.analyzer
    obs.reset()
    obs.enable()
    try:
        session.reachability()
        analyzer.multipath_consistency()
        service_unreachable(analyzer, "8.8.8.8", 443)
        spans = [e for e in obs.events() if e["type"] == "span"]
        fates = [e for e in spans if e["name"] == "query.fates"]
        assert len(fates) == 1
        assert fates[0]["attrs"] == {"dispositions": len(analyzer.fates())}
        [union] = [e for e in spans if e["name"] == "query.source_reachability"]
        assert union["attrs"] == {"sources": len(analyzer.default_sources())}
        assert not [e for e in spans if e["name"] == "query.reachability"]
        assert obs.metrics().counter("query.reachability_runs") == 0
    finally:
        obs.disable()
        obs.reset()


# ----------------------------------------------------------------------
# Packet by packet: fates vs the forward engine vs the concrete tracer

PROBED = ("NET1", "NET5", "NET8")


@functools.lru_cache(maxsize=None)
def _interesting_addresses(name: str):
    """Addresses that exercise real forwarding: every interface address
    and a host next to it."""
    addresses = set()
    for device in _session(name).snapshot.devices.values():
        for _iface, address, _length in device.interface_ips():
            addresses.update((address.value, address.value + 9))
    return sorted(addresses)


@st.composite
def _probes(draw):
    name = draw(st.sampled_from(PROBED))
    analyzer = _session(name).analyzer
    source = draw(st.sampled_from(analyzer.graph.source_nodes()))
    address = st.one_of(
        st.sampled_from(_interesting_addresses(name)),
        st.integers(0, 2**32 - 1),
    )
    protocol = draw(st.sampled_from((f.PROTO_TCP, f.PROTO_UDP, f.PROTO_ICMP)))
    packet = Packet(
        dst_ip=Ip(draw(address)),
        src_ip=Ip(draw(address)),
        dst_port=draw(st.sampled_from((22, 23, 53, 80, 443, 8080))),
        src_port=draw(st.sampled_from((53, 1024, 49152, 65535))),
        ip_protocol=protocol,
        tcp_flags=draw(st.sampled_from((0x02, 0x10, 0x12))),
    )
    return name, source, packet


@settings(max_examples=150, deadline=None)
@given(_probes())
def test_fates_of_one_packet_match_both_engines(probe):
    name, source, packet = probe
    session = _session(name)
    analyzer = session.analyzer
    engine = analyzer.encoder.engine
    point = analyzer.encoder.packet_bdd(packet)

    from_fates = {
        fate
        for fate, arriving in analyzer.fates().items()
        if engine.and_(point, arriving.get(source, FALSE)) != FALSE
    }
    forward = analyzer.reachability({source: point}).by_disposition
    assert from_fates == {fate for fate, packets in forward.items() if packets}

    traces = TracerouteEngine(analyzer.dataplane, analyzer.fibs).trace(
        packet, source[1], source[2]
    )
    assert {trace.disposition for trace in traces} <= from_fates


@pytest.mark.parametrize("name", PROBED)
def test_compression_does_not_change_the_fates_at_sources(name):
    session = _session(name)
    compressed = session.analyzer
    plain = NetworkAnalyzer(
        session.dataplane, encoder=session.encoder, fibs=session.fibs,
        compress=False,
    )
    assert len(plain.graph.nodes) > len(compressed.graph.nodes)
    assert set(plain.fates()) == set(compressed.fates())
    for fate, arriving in compressed.fates().items():
        for source in compressed.graph.source_nodes():
            assert plain.fates()[fate].get(source, FALSE) == arriving.get(
                source, FALSE
            ), (fate, source)
