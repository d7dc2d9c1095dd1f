"""Derivation trees from ``Session.explain_route`` / ``explain_flow``.

Covers the acceptance bar: non-empty trees on two different synthetic
networks (an OSPF lab and the 3-node static-route traceroute lab), flow
explanations whose hop/ACL sequence matches the traceroute engine's
actual path, and suppressed-alternative reporting.
"""

import pytest

from repro import obs
from repro.core.session import Session
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.provenance import Flow

OSPF_LAB = {
    "r1.cfg": """
hostname r1
interface eth0
 ip address 10.0.12.1 255.255.255.0
interface lo0
 ip address 1.1.1.1 255.255.255.255
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
 network 1.1.1.1 0.0.0.0 area 0
""",
    "r2.cfg": """
hostname r2
interface eth0
 ip address 10.0.12.2 255.255.255.0
interface lo0
 ip address 2.2.2.2 255.255.255.255
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
 network 2.2.2.2 0.0.0.0 area 0
""",
}

# The 3-node lab from tests/traceroute/test_lab3.py: edge -> core -> leaf
# with a telnet-denying egress ACL on core.
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


@pytest.fixture(autouse=True)
def clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestExplainRoute:
    def test_ospf_route_tree_is_nonempty_and_attributed(self):
        session = Session.from_texts(OSPF_LAB)
        tree = session.explain_route("r1", "2.2.2.2/32")
        assert not tree.empty
        rendered = tree.render()
        assert "fib: 2.2.2.2/32" in rendered
        assert "[ospf] installed" in rendered
        assert "[main-rib] best" in rendered
        assert "neighbor 10.0.12.2" in rendered

    def test_static_route_tree_is_nonempty_on_lab3(self):
        session = Session.from_texts(LAB3)
        tree = session.explain_route("edge", "10.0.2.0/24")
        assert not tree.empty
        rendered = tree.render()
        assert "static" in rendered
        assert "[fib] resolved" in rendered

    def test_unknown_prefix_explains_absence(self):
        session = Session.from_texts(LAB3)
        tree = session.explain_route("edge", "203.0.113.0/24")
        assert "no route and no recorded derivation" in tree.render()

    def test_repeated_explains_reuse_one_recording(self):
        session = Session.from_texts(OSPF_LAB)
        first = session.explain_route("r1", "2.2.2.2/32")
        recorder, _dp, _fibs = session._recorded_derivation()
        second = session.explain_route("r2", "1.1.1.1/32")
        assert session._recorded_derivation()[0] is recorder
        assert not first.empty and not second.empty


class TestExplainFlow:
    def test_flow_path_matches_traceroute_engine(self):
        session = Session.from_texts(LAB3)
        packet = Packet(
            src_ip=Ip("10.0.1.5"), dst_ip=Ip("10.0.2.9"), dst_port=443
        )
        flow = Flow(
            packet=packet, ingress_node="edge", ingress_interface="eth0"
        )
        explanation = session.explain_flow(flow)
        traces = session.traceroute(packet, "edge", "eth0")
        assert not explanation.empty
        assert len(explanation.paths) == len(traces)
        for path, trace in zip(explanation.paths, traces):
            assert path.disposition == trace.disposition.value
            assert path.hop_nodes() == trace.path_nodes()
        assert explanation.paths[0].hop_nodes() == ["edge", "core", "leaf"]

    def test_denied_flow_carries_per_line_acl_walk(self):
        session = Session.from_texts(LAB3)
        packet = Packet(
            src_ip=Ip("10.0.1.5"), dst_ip=Ip("10.0.2.9"), dst_port=23
        )
        explanation = session.explain_flow(
            Flow(packet=packet, ingress_node="edge", ingress_interface="eth0")
        )
        assert explanation.paths[0].disposition == "denied-out"
        assert explanation.paths[0].hop_nodes() == ["edge", "core"]
        acl_steps = [
            step
            for path in explanation.paths
            for hop in path.hops
            for step in hop.steps
            if step.kind == "acl"
        ]
        assert acl_steps, "denied flow must show the ACL decision"
        # The ordered line walk: line 0 matched and denied telnet.
        deny_step = next(s for s in acl_steps if "CORE_OUT" in s.detail)
        assert deny_step.lines
        assert any("matched -> deny" in line for line in deny_step.lines)

    def test_permitted_flow_shows_skipped_lines(self):
        session = Session.from_texts(LAB3)
        packet = Packet(
            src_ip=Ip("10.0.1.5"), dst_ip=Ip("10.0.2.9"), dst_port=443
        )
        explanation = session.explain_flow(
            Flow(packet=packet, ingress_node="edge", ingress_interface="eth0")
        )
        acl_steps = [
            step
            for path in explanation.paths
            for hop in path.hops
            for step in hop.steps
            if step.kind == "acl"
        ]
        deny_then_permit = next(s for s in acl_steps if "CORE_OUT" in s.detail)
        # line 0 (deny telnet) evaluated and skipped, line 1 matched.
        assert any("line 0" in line and "no match" in line
                   for line in deny_then_permit.lines)
        assert any("matched -> permit" in line
                   for line in deny_then_permit.lines)

    def test_plain_traceroute_has_no_line_detail(self):
        # A trace keeps each step's decision; walk strings are rendered
        # only when an explanation asks for them.
        session = Session.from_texts(LAB3)
        packet = Packet(
            src_ip=Ip("10.0.1.5"), dst_ip=Ip("10.0.2.9"), dst_port=23
        )
        traces = session.traceroute(packet, "edge", "eth0")
        steps = [
            step for trace in traces for hop in trace.hops for step in hop.steps
        ]
        assert not any(hasattr(step, "lines") for step in steps)
        deny = next(s for s in steps if s.kind == "acl" and "CORE_OUT" in s.detail)
        assert deny.decision.acl.name == "CORE_OUT"
        assert deny.decision.result.line_index == 0


class TestSuppressedAlternatives:
    def test_losing_protocol_appears_as_suppressed(self):
        # Same prefix from OSPF and from a static route: static wins on
        # admin distance, OSPF shows up as the suppressed alternative.
        configs = {
            "r1.cfg": """
hostname r1
interface eth0
 ip address 10.0.12.1 255.255.255.0
ip route 10.0.2.0 255.255.255.0 10.0.12.2
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
""",
            "r2.cfg": """
hostname r2
interface eth0
 ip address 10.0.12.2 255.255.255.0
interface eth1
 ip address 10.0.2.1 255.255.255.0
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
 network 10.0.2.0 0.0.0.255 area 0
""",
        }
        session = Session.from_texts(configs)
        tree = session.explain_route("r1", "10.0.2.0/24")
        rendered = tree.render()
        assert "suppressed alternatives" in rendered
        assert "lost best selection" in rendered
        assert tree.suppressions()


class TestPolicyLabels:
    """The ``installed`` BGP event names the clause of the *export*
    route-map that let the route out and the clause of the *import*
    route-map that let it in — two evaluations, two labels."""

    CONFIGS = {
        "r1.cfg": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
interface Loopback1
 ip address 1.1.1.2 255.255.255.255
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map OUT out
 network 1.1.1.1 mask 255.255.255.255
 network 1.1.1.2 mask 255.255.255.255
ip prefix-list LO0 permit 1.1.1.1/32
route-map OUT permit 10
 match ip address prefix-list LO0
route-map OUT permit 20
""",
        "r2.cfg": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
router bgp 65002
 bgp router-id 2.2.2.2
 neighbor 10.0.12.1 remote-as 65001
 neighbor 10.0.12.1 route-map IN in
route-map IN permit 30
 set local-preference 250
""",
    }

    @pytest.mark.parametrize(
        "prefix,export_clause", (("1.1.1.1/32", 10), ("1.1.1.2/32", 20))
    )
    def test_export_label_comes_from_the_export_evaluation(
        self, prefix, export_clause
    ):
        session = Session.from_texts(self.CONFIGS)
        rendered = session.explain_route("r2", prefix).render()
        # On the parent both labels read the import evaluation:
        # "export [route-map OUT clause 30]".
        assert f"export [route-map OUT clause {export_clause}]" in rendered
        assert "import [route-map IN clause 30]" in rendered
