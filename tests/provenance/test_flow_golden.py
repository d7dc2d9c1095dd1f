"""``Session.explain_flow(...).render()`` pinned byte for byte.

``flow_golden.json`` holds the rendered explanation of every flow below:
the flows the provenance and coverage tests build, one flow per
addressed ingress interface on NET1 (toward the ``SPUR_FILTER`` egress
ACL) and on NET8 (zones and source NAT), an ACL walk that ends in the
implicit deny and a destination-NAT rewrite. A change to how a walk is
rendered — or to which decision it is rendered from — must reproduce
the file exactly.
"""

import json
from pathlib import Path

from repro.core.session import Session
from repro.hdr import fields as f
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.provenance import Flow
from repro.synth.networks import NETWORKS
from tests.provenance.test_explain import LAB3

GOLDEN = Path(__file__).with_name("flow_golden.json")

# A gateway with an ingress ACL that ends in the implicit deny and two
# destination-NAT rules, the first of which matches only SSH.
DNAT_LAB = {
    "gw.cfg": """
hostname gw
interface eth0
 ip address 203.0.113.1 255.255.255.0
 ip access-group ONLY_WEB in
 ip nat outside
interface eth1
 ip address 10.0.2.1 255.255.255.0
 ip nat inside
ip access-list extended ONLY_WEB
 permit tcp any any eq 80
 permit tcp any any eq 443
ip access-list extended DNAT_SSH
 permit tcp any any eq 22
ip access-list extended DNAT_WEB
 permit tcp any host 203.0.113.10 eq 80
ip nat pool SSH_HOST 10.0.2.22 10.0.2.22 prefix-length 32
ip nat pool WEB_HOST 10.0.2.80 10.0.2.80 prefix-length 32
ip nat inside destination list DNAT_SSH pool SSH_HOST
ip nat inside destination list DNAT_WEB pool WEB_HOST
""",
}


def tcp(src: str, dst: str, dst_port: int, src_port: int = 0) -> Packet:
    return Packet(
        src_ip=Ip(src), dst_ip=Ip(dst), dst_port=dst_port, src_port=src_port
    )


def registry_session(name: str) -> Session:
    spec = next(spec for spec in NETWORKS if spec.name == name)
    return Session.from_texts(spec.generate(1))


def per_ingress(session: Session, packets) -> list:
    """One flow per addressed interface of every device and per
    ``(dst, protocol, port)``, sourced from the interface's address."""
    flows = []
    for hostname in session.snapshot.hostnames():
        device = session.snapshot.device(hostname)
        for interface, address, _length in device.interface_ips():
            for dst, protocol, port in packets:
                packet = Packet(
                    src_ip=address, dst_ip=Ip(dst), dst_port=port,
                    ip_protocol=protocol, src_port=49152,
                )
                flows.append(Flow(packet, hostname, interface))
    return flows


def golden_cases():
    """``(case id, session, flows)`` in a fixed order."""
    lab3 = Session.from_texts(LAB3)
    yield "lab3", lab3, [
        Flow(tcp("10.0.1.5", "10.0.2.9", 443), "edge", "eth0"),
        Flow(tcp("10.0.1.5", "10.0.2.9", 23), "edge", "eth0"),
    ]
    net1 = registry_session("NET1")
    # The coverage test's witness probes of SPUR_FILTER's two lines.
    yield "net1-witness", net1, [
        Flow(tcp("128.0.0.0", "10.16.0.16", port, 49152),
             "net1-core0", "Ethernet0")
        for port in (23, 80)
    ]
    yield "net1-ingress", net1, per_ingress(
        net1, [("10.16.0.17", f.PROTO_TCP, 23), ("10.16.0.17", f.PROTO_TCP, 80)]
    )
    net8 = registry_session("NET8")
    yield "net8-ingress", net8, per_ingress(
        net8,
        [
            ("8.8.8.8", f.PROTO_TCP, 80),
            ("8.8.8.8", f.PROTO_TCP, 25),
            ("8.8.8.8", f.PROTO_UDP, 53),
            ("172.28.1.10", f.PROTO_TCP, 80),
        ],
    )
    yield "dnat", Session.from_texts(DNAT_LAB), [
        Flow(tcp("198.51.100.7", "203.0.113.10", port), "gw", "eth0")
        for port in (80, 443, 22)
    ]


def rendered() -> str:
    doc = {}
    for case, session, flows in golden_cases():
        doc[case] = [session.explain_flow(flow).render() for flow in flows]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_flow_explanations_match_the_golden():
    assert rendered() == GOLDEN.read_text()


def test_golden_covers_each_walk_kind():
    text = GOLDEN.read_text()
    for needle in (
        "end of ACL: implicit deny",
        ": no match",
        "matched, rewrote dst 203.0.113.10 -> 10.0.2.80",
        "matched, rewrote src",
        "zone policy trust -> untrust",
        "no policy untrust -> trust: deny",
        "route: ",
    ):
        assert needle in text, needle
