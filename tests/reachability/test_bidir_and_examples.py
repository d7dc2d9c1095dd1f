"""Tests for bidirectional reachability (sessions, §4.2.3) and example
selection (§4.4.3)."""

import pytest

from repro.bdd.engine import FALSE, TRUE
from repro.config.loader import load_snapshot_from_texts
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.reachability.examples import (
    annotate_packet,
    default_preferences,
    differing_fields,
    pick_example_pair,
)
from repro.reachability.graph import src_node
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane
from repro.synth.firewall_dc import enterprise_firewall


@pytest.fixture(scope="module")
def fw_analyzer():
    dataplane = compute_dataplane(
        load_snapshot_from_texts(enterprise_firewall(2))
    )
    return NetworkAnalyzer(dataplane)


class TestBidirectional:
    def test_permitted_roundtrip(self, fw_analyzer):
        encoder = fw_analyzer.encoder
        outbound = HeaderSpace.build(
            src="172.16.0.0/12", dst="198.18.0.0/15",
            protocols=[f.PROTO_TCP], dst_ports=[(443, 443)],
        ).to_bdd(encoder)
        delivered, roundtrip = fw_analyzer.bidirectional_reachability(
            {src_node("inside0", "Vlan10"): outbound},
            return_sources=[("fw0", "Ethernet0")],
        )
        assert delivered != FALSE
        assert roundtrip != FALSE
        # Round-trip flows are reported in pre-NAT (inside) coordinates.
        engine = encoder.engine
        inside_src = encoder.ip_in_prefix(f.SRC_IP, "172.16.0.0/12")
        assert engine.implies(roundtrip, inside_src)

    def test_denied_forward_means_no_roundtrip(self, fw_analyzer):
        encoder = fw_analyzer.encoder
        telnet = HeaderSpace.build(
            src="172.16.0.0/12", dst="198.18.0.0/15",
            protocols=[f.PROTO_TCP], dst_ports=[(23, 23)],
        ).to_bdd(encoder)
        delivered, roundtrip = fw_analyzer.bidirectional_reachability(
            {src_node("inside0", "Vlan10"): telnet},
            return_sources=[("fw0", "Ethernet0")],
        )
        assert delivered == FALSE
        assert roundtrip == FALSE

    def test_unsolicited_return_blocked_without_session(self, fw_analyzer):
        """Traffic arriving from outside that matches *no* session must
        still be stopped by the zone policy (no inbound policy exists)."""
        encoder = fw_analyzer.encoder
        inbound = HeaderSpace.build(
            src="198.18.0.0/15", dst="172.28.0.0/24",
            protocols=[f.PROTO_TCP], dst_ports=[(443, 443)],
        ).to_bdd(encoder)
        answer = fw_analyzer.reachability(
            {src_node("fw0", "Ethernet0"): inbound}
        )
        assert answer.success_set() == FALSE

    def test_graph_restored_after_bidirectional(self, fw_analyzer):
        """The analyzer's graph is never edited: the same edge objects,
        in the same order, after the question."""
        graph = fw_analyzer.graph
        edges_before = list(graph.edges)
        outbound = HeaderSpace.build(src="172.16.0.0/12").to_bdd(
            fw_analyzer.encoder
        )
        fw_analyzer.bidirectional_reachability(
            {src_node("inside0", "Vlan10"): outbound},
            return_sources=[("fw0", "Ethernet0")],
        )
        assert fw_analyzer.graph is graph
        assert len(graph.edges) == len(edges_before)
        assert all(a is b for a, b in zip(graph.edges, edges_before))


class TestExampleSelection:
    @pytest.fixture(scope="class")
    def enc(self):
        return PacketEncoder()

    def test_preferences_pick_likely_packets(self, enc):
        pkt = enc.example_packet(TRUE, default_preferences(enc))
        assert pkt.ip_protocol == f.PROTO_TCP
        assert pkt.dst_port in (80, 443, 22, 53)
        assert pkt.src_port >= 49152
        assert not pkt.tcp_flag(f.TCP_ACK)

    def test_preferences_with_prefix_context(self, enc):
        prefs = default_preferences(
            enc, src_prefix=Prefix("10.1.0.0/16"), dst_prefix=Prefix("10.2.0.0/16")
        )
        pkt = enc.example_packet(TRUE, prefs)
        assert Prefix("10.1.0.0/16").contains_ip(pkt.src_ip)
        assert Prefix("10.2.0.0/16").contains_ip(pkt.dst_ip)

    def test_avoids_bogus_addresses(self, enc):
        pkt = enc.example_packet(TRUE, default_preferences(enc))
        assert not Prefix("0.0.0.0/8").contains_ip(pkt.src_ip)
        assert not Prefix("224.0.0.0/4").contains_ip(pkt.dst_ip)

    def test_example_pair_contrast(self, enc):
        engine = enc.engine
        # Violating set: port 80 traffic; satisfying: port 22 traffic,
        # same everything else available.
        violating = engine.and_(enc.tcp(), enc.field_eq(f.DST_PORT, 80))
        satisfying = engine.and_(enc.tcp(), enc.field_eq(f.DST_PORT, 22))
        negative, positive = pick_example_pair(enc, violating, satisfying)
        assert negative.dst_port == 80
        assert positive.dst_port == 22
        contrast = differing_fields(negative, positive)
        assert "dst_port" in contrast
        # The anchoring keeps unrelated fields identical.
        assert "dst_ip" not in contrast
        assert "src_ip" not in contrast

    def test_example_pair_empty_satisfying(self, enc):
        negative, positive = pick_example_pair(
            enc, enc.tcp(), FALSE
        )
        assert negative is not None
        assert positive is None

    def test_differing_fields_identical(self):
        a = Packet(dst_port=80)
        assert differing_fields(a, a) == []


class TestAnnotation:
    def test_annotate_packet_collects_context(self, fw_analyzer):
        packet = Packet(
            src_ip=Ip("172.28.0.10"), dst_ip=Ip("198.18.0.1"), dst_port=443,
        )
        annotation = annotate_packet(fw_analyzer, packet, "inside0", "Vlan10")
        assert annotation.disposition == "exits-network"
        assert annotation.hops
        assert any("fib" in hop or "matched" in hop for hop in annotation.hops)
