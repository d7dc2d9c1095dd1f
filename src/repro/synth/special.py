"""Special-purpose networks: NET1 (the Figure 3 baseline network) and
the two Figure 1 convergence patterns."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hdr.ip import Ip
from repro.synth.base import CiscoishBuilder, InterfaceSpec, host_subnet, loopback_ip


def net1(num_spurs: int = 4) -> Dict[str, str]:
    """NET1: the network from the original Batfish paper, used for the
    Figure 3 old-vs-new comparison.

    It deliberately uses only features the original (Datalog) code
    supported — single-area OSPF, static routes, ACLs — "the original
    code does not support the configuration features of our other real
    networks". Topology: an OSPF ring of core routers, each with a spur
    router attaching a host subnet; one deliberate ACL asymmetry makes
    the multipath-consistency query return a genuine violation.
    """
    if num_spurs < 2:
        # The first spur dual-homes to ring[0] and ring[1].
        raise ValueError(f"net1 needs at least 2 spurs, got {num_spurs}")
    builders: Dict[str, CiscoishBuilder] = {}
    link_counter = [0]

    def p2p() -> Tuple[str, str, int]:
        index = link_counter[0]
        link_counter[0] += 1
        base = (10 << 24) | (1 << 20) | (index << 2)
        return str(Ip(base + 1)), str(Ip(base + 2)), 30

    ring = []
    for c in range(num_spurs):
        builder = CiscoishBuilder(f"net1-core{c}")
        rid = loopback_ip(900 + c)
        builder.router_id(rid)
        builder.interface(
            InterfaceSpec("Loopback0", rid, 32, ospf_area=0, ospf_passive=True)
        )
        ring.append(builder)
        builders[builder.hostname] = builder
    port = [0] * num_spurs

    def next_port(index: int) -> str:
        port[index] += 1
        return f"Ethernet{port[index] - 1}"

    for c in range(num_spurs):
        peer = (c + 1) % num_spurs
        if num_spurs == 2 and c == 1:
            break
        ip_a, ip_b, plen = p2p()
        ring[c].interface(
            InterfaceSpec(next_port(c), ip_a, plen, ospf_area=0, ospf_cost=10)
        )
        ring[peer].interface(
            InterfaceSpec(next_port(peer), ip_b, plen, ospf_area=0, ospf_cost=10)
        )
    for c in range(num_spurs):
        spur = CiscoishBuilder(f"net1-spur{c}")
        rid = loopback_ip(950 + c)
        spur.router_id(rid)
        spur.interface(
            InterfaceSpec("Loopback0", rid, 32, ospf_area=0, ospf_passive=True)
        )
        ip_spur, ip_core, plen = p2p()
        # The first spur dual-homes to two ring routers, with an ACL on
        # only one path: the multipath-consistency violation.
        acl_out = "SPUR_FILTER" if c == 0 else None
        spur.interface(
            InterfaceSpec("Ethernet0", ip_spur, plen, ospf_area=0, ospf_cost=10)
        )
        ring[c].interface(
            InterfaceSpec(next_port(c), ip_core, plen, ospf_area=0,
                          ospf_cost=10, acl_out=acl_out)
        )
        if c == 0:
            ring[c].acl(
                "SPUR_FILTER",
                [
                    "deny tcp any any eq 23",
                    "permit ip any any",
                ],
            )
            ip_spur2, ip_core2, plen = p2p()
            spur.interface(
                InterfaceSpec("Ethernet1", ip_spur2, plen, ospf_area=0,
                              ospf_cost=10)
            )
            ring[1].interface(
                InterfaceSpec(next_port(1), ip_core2, plen, ospf_area=0,
                              ospf_cost=10)
            )
        subnet = host_subnet(3, c)
        gateway = str(Ip(subnet.network.value + 1))
        spur.interface(
            InterfaceSpec("Vlan10", gateway, 24, ospf_area=0, ospf_passive=True,
                          description="hosts")
        )
        spur.static(f"192.0.2.{4 * c}/30", "Null0")
        builders[spur.hostname] = spur
    return {name: builder.render() for name, builder in builders.items()}


def figure1a() -> Dict[str, str]:
    """Figure 1a: two route reflectors, two clients, and an origin whose
    prefix reaches both RRs with equally good attributes — equally good
    advertisements can trigger endless unnecessary re-computation
    without arrival-time tie-breaking."""
    builders: Dict[str, CiscoishBuilder] = {}

    def router(name: str, index: int) -> CiscoishBuilder:
        builder = CiscoishBuilder(name)
        rid = loopback_ip(960 + index)
        builder.router_id(rid)
        builder.interface(
            InterfaceSpec("Loopback0", rid, 32, ospf_area=0, ospf_passive=True)
        )
        builders[name] = builder
        return builder

    origin = router("origin", 0)
    rr1 = router("rr1", 1)
    rr2 = router("rr2", 2)
    client1 = router("client1", 3)
    client2 = router("client2", 4)
    links = [
        (origin, rr1), (origin, rr2),
        (rr1, client1), (rr1, client2),
        (rr2, client1), (rr2, client2),
        (rr1, rr2),
    ]
    port: Dict[str, int] = {}
    base_index = [0]
    for a, b in links:
        base = (10 << 24) | (2 << 20) | (base_index[0] << 2)
        base_index[0] += 1
        ip_a, ip_b = str(Ip(base + 1)), str(Ip(base + 2))
        pa = port.get(a.hostname, 0)
        pb = port.get(b.hostname, 0)
        port[a.hostname] = pa + 1
        port[b.hostname] = pb + 1
        a.interface(InterfaceSpec(f"Ethernet{pa}", ip_a, 30, ospf_area=0, ospf_cost=10))
        b.interface(InterfaceSpec(f"Ethernet{pb}", ip_b, 30, ospf_area=0, ospf_cost=10))
    # iBGP: clients and origin peer with both RRs (loopback sessions).
    asn = 65010
    from repro.synth.base import NeighborSpec

    def mesh(a: CiscoishBuilder, index_a: int, b: CiscoishBuilder, index_b: int,
             a_is_rr: bool = False, b_is_rr: bool = False):
        a.bgp_neighbor(NeighborSpec(peer_ip=loopback_ip(960 + index_b), remote_as=asn,
                                    next_hop_self=True))
        b.bgp_neighbor(NeighborSpec(peer_ip=loopback_ip(960 + index_a), remote_as=asn,
                                    next_hop_self=True))
        if a_is_rr:
            a.bgp_line(
                f"neighbor {loopback_ip(960 + index_b)} route-reflector-client"
            )
        if b_is_rr:
            b.bgp_line(
                f"neighbor {loopback_ip(960 + index_a)} route-reflector-client"
            )

    for builder in (origin, rr1, rr2, client1, client2):
        builder.bgp(asn)
    origin.raw("ip route 100.100.0.0 255.255.0.0 Null0")
    origin.bgp_line("network 100.100.0.0 mask 255.255.0.0")
    mesh(origin, 0, rr1, 1, b_is_rr=True)
    mesh(origin, 0, rr2, 2, b_is_rr=True)
    mesh(rr1, 1, client1, 3, a_is_rr=True)
    mesh(rr1, 1, client2, 4, a_is_rr=True)
    mesh(rr2, 2, client1, 3, a_is_rr=True)
    mesh(rr2, 2, client2, 4, a_is_rr=True)
    mesh(rr1, 1, rr2, 2)
    return {name: builder.render() for name, builder in builders.items()}


def figure1b() -> Dict[str, str]:
    """Figure 1b: two border routers that both hear 10.0.0.0/8
    externally, prefer each other's internal path (local-pref 200 on
    iBGP import), and therefore re-advertise/withdraw in lockstep — the
    pathological loop that coloring breaks (§4.1.2)."""
    ext1 = """hostname ext1
interface Ethernet0
 ip address 10.1.0.2 255.255.255.0
router bgp 100
 bgp router-id 9.9.9.1
 neighbor 10.1.0.1 remote-as 65000
 network 10.0.0.0 mask 255.0.0.0
ip route 10.0.0.0 255.0.0.0 Null0
"""
    ext2 = (
        ext1.replace("ext1", "ext2").replace("10.1.0", "10.2.0")
        .replace("bgp 100", "bgp 200").replace("9.9.9.1", "9.9.9.2")
    )
    r1 = """hostname r1
interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
interface Ethernet1
 ip address 10.12.0.1 255.255.255.0
router bgp 65000
 bgp router-id 1.1.1.1
 neighbor 10.1.0.2 remote-as 100
 neighbor 10.12.0.2 remote-as 65000
 neighbor 10.12.0.2 next-hop-self
 neighbor 10.12.0.2 route-map IBGP_IN in
route-map IBGP_IN permit 10
 set local-preference 200
"""
    r2 = (
        r1.replace("r1", "r2").replace("10.1.0", "10.2.0")
        .replace("10.12.0.1 255", "10.12.0.2 255")
        .replace("neighbor 10.12.0.2", "neighbor 10.12.0.1")
        .replace("remote-as 100", "remote-as 200")
        .replace("1.1.1.1", "2.2.2.2")
    )
    return {"ext1": ext1, "ext2": ext2, "r1": r1, "r2": r2}
