"""The network of Figure 2 of the paper: three routers, per-device FIBs,
an outbound ACL on R1.i3 that allows only ssh traffic — used to validate
dataflow-graph construction and the propagation example of §4.2.1."""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip, Prefix
from repro.reachability.graph import Disposition, src_node
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane

# P1 = 10.0.1.0/24 (hosts behind R1.i0), P2 = 10.0.2.0/24 (behind R2.i0),
# P3 = 10.0.3.0/24 (behind R3.i0). R1 also has a direct link i3 to R3
# with an outbound ACL allowing only ssh (tcp/22).
CONFIGS = {
    "r1": """
hostname r1
interface i0
 ip address 10.0.1.1 255.255.255.0
interface i1
 ip address 10.0.12.1 255.255.255.0
interface i3
 ip address 10.0.13.1 255.255.255.0
 ip access-group SSH_ONLY out
ip route 10.0.2.0 255.255.255.0 10.0.12.2
ip route 10.0.3.0 255.255.255.0 10.0.13.3
ip route 10.0.3.0 255.255.255.0 10.0.12.2
ip access-list extended SSH_ONLY
 permit tcp any any eq 22
""",
    "r2": """
hostname r2
interface i0
 ip address 10.0.2.1 255.255.255.0
interface i1
 ip address 10.0.12.2 255.255.255.0
interface i2
 ip address 10.0.23.2 255.255.255.0
ip route 10.0.1.0 255.255.255.0 10.0.12.1
ip route 10.0.3.0 255.255.255.0 10.0.23.3
""",
    "r3": """
hostname r3
interface i0
 ip address 10.0.3.1 255.255.255.0
interface i2
 ip address 10.0.23.3 255.255.255.0
interface i3
 ip address 10.0.13.3 255.255.255.0
ip route 10.0.1.0 255.255.255.0 10.0.13.1
ip route 10.0.2.0 255.255.255.0 10.0.23.2
""",
}


@pytest.fixture(scope="module")
def analyzer():
    dataplane = compute_dataplane(load_snapshot_from_texts(CONFIGS))
    assert dataplane.converged
    return NetworkAnalyzer(dataplane)


class TestGraphStructure:
    def test_has_fib_nodes_per_device(self, analyzer):
        fwd_nodes = [n for n in analyzer.graph.nodes if n[0] == "fwd"]
        assert {n[1] for n in fwd_nodes} == {"r1", "r2", "r3"}

    def test_source_and_sink_nodes_per_interface(self, analyzer):
        sources = analyzer.graph.source_nodes()
        assert src_node("r1", "i0") in sources
        assert src_node("r3", "i0") in sources

    def test_compression_removed_simple_nodes(self, analyzer):
        assert analyzer.compression.nodes_removed > 0
        assert analyzer.compression.nodes_after < analyzer.compression.nodes_before


class TestPropagation:
    """The worked example of §4.2.1: all TCP packets entering at R1.i0
    that can leave via R3.i0."""

    def test_tcp_packets_reach_p3_hosts(self, analyzer):
        enc = analyzer.encoder
        engine = enc.engine
        tcp = enc.tcp()
        answer = analyzer.reachability({src_node("r1", "i0"): tcp})
        delivered_r3 = answer.by_sink.get(("sink", "r3", "i0"), 0)
        assert delivered_r3 != 0
        # Everything delivered at R3.i0 is destined to P3 host space.
        p3 = enc.ip_in_prefix(f.DST_IP, Prefix("10.0.3.0/24"))
        assert engine.implies(delivered_r3, p3)
        # Both the direct (ssh-only) path and the r2 path deliver;
        # non-ssh traffic must have gone via r2.
        non_ssh = engine.diff(
            delivered_r3, enc.field_eq(f.DST_PORT, 22)
        )
        assert non_ssh != 0

    def test_ssh_only_acl_blocks_direct_path(self, analyzer):
        """Traffic on the direct R1->R3 link is ssh-only."""
        enc = analyzer.encoder
        engine = enc.engine
        tcp = enc.tcp()
        answer = analyzer.reachability({src_node("r1", "i0"): tcp})
        # The denied-out disposition at r1 captures non-ssh traffic that
        # tried the direct link.
        denied = answer.by_sink.get(("disp", "r1", "denied-out"), 0)
        assert denied != 0
        ssh = enc.field_eq(f.DST_PORT, 22)
        assert engine.and_(denied, ssh) == 0  # ssh is never denied there

    def test_multipath_consistency_flags_p3_inconsistency(self, analyzer):
        """P3-destined non-ssh traffic from R1 is dropped on the direct
        path but delivered via R2 — exactly the flow multipath
        consistency should flag."""
        violations = analyzer.multipath_consistency(
            sources={src_node("r1", "i0"): analyzer.encoder.tcp()}
        )
        assert violations
        violation = violations[0]
        assert violation.example is not None
        assert Prefix("10.0.3.0/24").contains_ip(violation.example.dst_ip)
        assert violation.example.dst_port != 22
        assert Disposition.DELIVERED in violation.success_dispositions
        assert Disposition.DENIED_OUT in violation.failure_dispositions

    def test_accepted_at_router(self, analyzer):
        enc = analyzer.encoder
        answer = analyzer.reachability(
            {src_node("r1", "i0"): enc.ip_eq(f.DST_IP, "10.0.12.2")}
        )
        accepted = answer.by_disposition.get(Disposition.ACCEPTED, 0)
        assert accepted != 0

    def test_no_route_disposition(self, analyzer):
        enc = analyzer.encoder
        answer = analyzer.reachability(
            {src_node("r1", "i0"): enc.ip_eq(f.DST_IP, "192.0.2.1")}
        )
        assert answer.by_disposition.get(Disposition.NO_ROUTE, 0) != 0
        assert answer.success_set() == 0


class TestBackwardReachability:
    def test_destination_reachability_matches_forward(self, analyzer):
        """Backward propagation from R3.i0 must agree with forward
        propagation source by source."""
        enc = analyzer.encoder
        engine = enc.engine
        back = analyzer.destination_reachability("r3", "i0")
        start = src_node("r1", "i0")
        assert start in back
        # Validate: every packet in the backward answer, propagated
        # forward, is delivered at r3.i0 or accepted at r3.
        forward = analyzer.reachability({start: back[start]})
        delivered = engine.or_(
            forward.by_sink.get(("sink", "r3", "i0"), 0),
            forward.by_disposition.get(Disposition.ACCEPTED, 0),
        )
        assert delivered != 0
        # And the backward set is exactly the forward-deliverable set.
        all_tcp = analyzer.reachability({start: 1})
        fwd_delivered = engine.or_(
            all_tcp.by_sink.get(("sink", "r3", "i0"), 0),
            # accepted at r3 only (backward targets accept at r3 too)
            all_tcp.reach.get(("disp", "r3", "accepted"), 0),
        )
        assert back[start] == fwd_delivered


class TestWaypoint:
    def test_waypoint_split(self, analyzer):
        enc = analyzer.encoder
        engine = enc.engine
        through, bypass = analyzer.waypoint_reachability(
            {src_node("r1", "i0"): enc.tcp()}, waypoint_hostname="r2"
        )
        # Traffic to P2/P3 via r2 traverses the waypoint; ssh to P3 can
        # bypass via the direct link.
        p3 = enc.ip_in_prefix(f.DST_IP, Prefix("10.0.3.0/24"))
        ssh = enc.field_eq(f.DST_PORT, 22)
        assert engine.and_(bypass, engine.and_(p3, ssh)) != 0
        non_ssh_p3 = engine.and_(through, engine.diff(p3, ssh))
        assert non_ssh_p3 != 0

    def test_waypoint_restores_graph(self, analyzer):
        """The analyzer's graph is never edited: the same edge objects,
        in the same order, after the question."""
        graph = analyzer.graph
        edges_before = list(graph.edges)
        analyzer.waypoint_reachability(
            {src_node("r1", "i0"): analyzer.encoder.tcp()}, "r2"
        )
        assert analyzer.graph is graph
        assert len(graph.edges) == len(edges_before)
        assert all(a is b for a, b in zip(graph.edges, edges_before))
