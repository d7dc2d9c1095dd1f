"""Traceroute over a synthetic 3-node lab: edge -> core -> leaf.

Exercises the three canonical fates (forwarded end to end, dropped by
an ACL, no route) and pins hop sequences as stable under serial vs
parallel parsing (``REPRO_JOBS=1`` vs ``4``) — the concrete-engine
analogue of the determinism contract the BDD engine tests enforce.
"""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.dataplane.fib import compute_fibs
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.reachability.graph import Disposition
from repro.routing.engine import compute_dataplane
from repro.traceroute.engine import TracerouteEngine

LAB3 = {
    "edge.cfg": """
hostname edge
interface eth0
 ip address 10.0.1.1 255.255.255.0
interface eth1
 ip address 10.0.12.1 255.255.255.0
ip route 10.0.2.0 255.255.255.0 10.0.12.2
ip route 10.0.23.0 255.255.255.0 10.0.12.2
""",
    "core.cfg": """
hostname core
interface eth0
 ip address 10.0.12.2 255.255.255.0
interface eth1
 ip address 10.0.23.1 255.255.255.0
 ip access-group CORE_OUT out
ip route 10.0.1.0 255.255.255.0 10.0.12.1
ip route 10.0.2.0 255.255.255.0 10.0.23.2
ip access-list extended CORE_OUT
 deny tcp any any eq 23
 permit ip any any
""",
    "leaf.cfg": """
hostname leaf
interface eth0
 ip address 10.0.23.2 255.255.255.0
interface eth1
 ip address 10.0.2.1 255.255.255.0
ip route 10.0.1.0 255.255.255.0 10.0.23.1
""",
}


def build_tracer():
    snapshot = load_snapshot_from_texts(LAB3)
    dataplane = compute_dataplane(snapshot)
    return TracerouteEngine(dataplane, compute_fibs(dataplane))


@pytest.fixture(scope="module")
def tracer():
    return build_tracer()


class TestLab3Dispositions:
    def test_forwarded_end_to_end(self, tracer):
        packet = Packet(
            src_ip=Ip("10.0.1.5"), dst_ip=Ip("10.0.2.9"), dst_port=443
        )
        traces = tracer.trace(packet, "edge", "eth0")
        assert len(traces) == 1
        assert traces[0].disposition is Disposition.DELIVERED
        assert traces[0].path_nodes() == ["edge", "core", "leaf"]

    def test_acl_drop_at_core_egress(self, tracer):
        packet = Packet(
            src_ip=Ip("10.0.1.5"), dst_ip=Ip("10.0.2.9"), dst_port=23
        )
        traces = tracer.trace(packet, "edge", "eth0")
        assert traces[0].disposition is Disposition.DENIED_OUT
        assert traces[0].path_nodes() == ["edge", "core"]
        acl_steps = [
            step.detail
            for hop in traces[0].hops
            for step in hop.steps
            if step.kind == "acl"
        ]
        assert any("CORE_OUT" in detail for detail in acl_steps)

    def test_no_route(self, tracer):
        packet = Packet(src_ip=Ip("10.0.1.5"), dst_ip=Ip("203.0.113.7"))
        traces = tracer.trace(packet, "edge", "eth0")
        assert traces[0].disposition is Disposition.NO_ROUTE
        assert traces[0].path_nodes() == ["edge"]
