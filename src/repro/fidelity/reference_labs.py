"""The reference lab repository (§4.3.1).

Each lab is a small network exercising a feature of interest, paired
with its recorded runtime state — the stand-in for "collect device
configurations and runtime state from the network, such as show
commands ... as well as ping and traceroute data" under GNS3 emulation
(see DESIGN.md for the substitution). The recorded routes below were
reviewed by hand when the labs were authored; the repository re-runs
all labs on every invocation ("step 3 is run daily on all networks,
reducing the risk of regressions as Batfish code evolves").

The *deviation* labs encode exactly the Lesson 3 long tail: "What
should happen to incoming routing announcements when a BGP neighbor is
configured to use a route map that is not defined anywhere?" — one lab
records the permit-all device behaviour our model defaults to; its twin
flips the :class:`~repro.routing.policy.PolicySemantics` knob and
records the divergent outcome, so a semantics regression in either
direction trips the repository.
"""

from __future__ import annotations

from repro.fidelity.labs import ExpectedTrace, Lab, LabRepository, RuntimeState
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.reachability.graph import Disposition
from repro.routing.policy import PolicySemantics

OSPF_LAB_CONFIGS = {
    "r1": """
hostname r1
interface e0
 ip address 10.0.0.1 255.255.255.252
 ip ospf area 0
 ip ospf cost 10
interface lan
 ip address 172.16.1.1 255.255.255.0
 ip ospf area 0
 ip ospf passive
router ospf 1
""",
    "r2": """
hostname r2
interface e0
 ip address 10.0.0.2 255.255.255.252
 ip ospf area 0
 ip ospf cost 10
interface lan
 ip address 172.16.2.1 255.255.255.0
 ip ospf area 0
 ip ospf passive
router ospf 1
""",
}

UNDEFINED_ROUTE_MAP_CONFIGS = {
    "r1": """
hostname r1
interface e0
 ip address 10.0.0.1 255.255.255.252
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.0.0.2 remote-as 65002
 network 172.20.0.0 mask 255.255.0.0
ip route 172.20.0.0 255.255.0.0 Null0
""",
    "r2": """
hostname r2
interface e0
 ip address 10.0.0.2 255.255.255.252
router bgp 65002
 bgp router-id 2.2.2.2
 neighbor 10.0.0.1 remote-as 65001
 neighbor 10.0.0.1 route-map MISSING in
""",
}

STATIC_RECURSIVE_CONFIGS = {
    "r1": """
hostname r1
interface e0
 ip address 10.0.0.1 255.255.255.252
ip route 192.168.0.0 255.255.0.0 10.0.0.2
ip route 172.30.0.0 255.255.0.0 192.168.1.1
""",
    "r2": """
hostname r2
interface e0
 ip address 10.0.0.2 255.255.255.252
interface lan
 ip address 192.168.1.1 255.255.255.0
""",
}

# One AS, one route reflector: ``p1`` (eBGP edge, plain iBGP peer of
# ``rr``), ``c1`` (``rr``'s only client) and ``p2`` (plain peer, behind
# an export route-map that hides two prefixes).
IBGP_SPLIT_HORIZON_CONFIGS = {
    "ext": """
hostname ext
interface e0
 ip address 10.0.1.2 255.255.255.252
router bgp 100
 bgp router-id 9.9.9.9
 neighbor 10.0.1.1 remote-as 65000
 network 8.0.0.0 mask 255.0.0.0
 network 9.0.0.0 mask 255.0.0.0
ip route 8.0.0.0 255.0.0.0 Null0
ip route 9.0.0.0 255.0.0.0 Null0
""",
    "p1": """
hostname p1
interface e0
 ip address 10.0.1.1 255.255.255.252
interface e1
 ip address 10.0.2.1 255.255.255.252
router bgp 65000
 bgp router-id 1.1.1.1
 neighbor 10.0.1.2 remote-as 100
 neighbor 10.0.2.2 remote-as 65000
 neighbor 10.0.2.2 next-hop-self
""",
    "rr": """
hostname rr
interface e0
 ip address 10.0.2.2 255.255.255.252
interface e1
 ip address 10.0.3.1 255.255.255.252
interface e2
 ip address 10.0.4.1 255.255.255.252
router bgp 65000
 bgp router-id 2.2.2.2
 neighbor 10.0.2.1 remote-as 65000
 neighbor 10.0.3.2 remote-as 65000
 neighbor 10.0.3.2 route-reflector-client
 neighbor 10.0.3.2 next-hop-self
 neighbor 10.0.4.2 remote-as 65000
 neighbor 10.0.4.2 route-map TO_P2 out
 network 172.20.0.0 mask 255.255.0.0
 network 172.21.0.0 mask 255.255.0.0
ip route 172.20.0.0 255.255.0.0 Null0
ip route 172.21.0.0 255.255.0.0 Null0
ip prefix-list HIDDEN seq 5 permit 9.0.0.0/8
ip prefix-list HIDDEN seq 10 permit 172.21.0.0/16
route-map TO_P2 deny 10
 match ip address prefix-list HIDDEN
route-map TO_P2 permit 20
""",
    "c1": """
hostname c1
interface e0
 ip address 10.0.3.2 255.255.255.252
router bgp 65000
 bgp router-id 3.3.3.3
 neighbor 10.0.3.1 remote-as 65000
""",
    "p2": """
hostname p2
interface e0
 ip address 10.0.4.2 255.255.255.252
router bgp 65000
 bgp router-id 4.4.4.4
 neighbor 10.0.4.1 remote-as 65000
""",
}

# Three ASes in a triangle; ``a`` poisons its direct advertisement to
# ``c`` by prepending ``c``'s own AS on export.
EBGP_PREPEND_LOOP_CONFIGS = {
    "a": """
hostname a
interface e0
 ip address 10.0.12.1 255.255.255.252
interface e1
 ip address 10.0.13.1 255.255.255.252
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.13.2 remote-as 65003
 neighbor 10.0.13.2 route-map POISON_C out
 network 172.20.0.0 mask 255.255.0.0
ip route 172.20.0.0 255.255.0.0 Null0
route-map POISON_C permit 10
 set as-path prepend 65003
""",
    "b": """
hostname b
interface e0
 ip address 10.0.12.2 255.255.255.252
interface e1
 ip address 10.0.23.1 255.255.255.252
router bgp 65002
 bgp router-id 2.2.2.2
 neighbor 10.0.12.1 remote-as 65001
 neighbor 10.0.23.2 remote-as 65003
""",
    "c": """
hostname c
interface e0
 ip address 10.0.13.2 255.255.255.252
interface e1
 ip address 10.0.23.2 255.255.255.252
interface lan
 ip address 192.168.3.1 255.255.255.0
router bgp 65003
 bgp router-id 3.3.3.3
 neighbor 10.0.13.1 remote-as 65001
 neighbor 10.0.23.1 remote-as 65002
""",
}


def build_reference_repository() -> LabRepository:
    """The labs shipped with the repository (run by the test suite,
    standing in for the daily validation job)."""
    repository = LabRepository()

    repository.register(
        Lab(
            name="ospf-basic",
            description="two OSPF routers exchange passive LAN prefixes",
            configs=OSPF_LAB_CONFIGS,
            expected=RuntimeState(
                routes={
                    "r1": [
                        "connected 10.0.0.0/30 via e0",
                        "connected 172.16.1.0/24 via lan",
                        "ospf 172.16.2.0/24 cost 11 via e0",
                    ],
                    "r2": [
                        "connected 10.0.0.0/30 via e0",
                        "connected 172.16.2.0/24 via lan",
                        "ospf 172.16.1.0/24 cost 11 via e0",
                    ],
                },
                traces=[
                    ExpectedTrace(
                        packet=Packet(
                            src_ip=Ip("172.16.1.10"),
                            dst_ip=Ip("172.16.2.10"),
                            dst_port=80,
                        ),
                        start_node="r1",
                        start_interface="lan",
                        disposition=Disposition.DELIVERED,
                        path=["r1", "r2"],
                    )
                ],
            ),
        )
    )

    repository.register(
        Lab(
            name="undefined-route-map-permits",
            description=(
                "device behaviour: an undefined import route map permits "
                "announcements unchanged (Lesson 3 long tail)"
            ),
            configs=UNDEFINED_ROUTE_MAP_CONFIGS,
            expected=RuntimeState(
                routes={
                    "r2": [
                        "bgp 172.20.0.0/16 via 10.0.0.1 lp 100 path [65001]",
                        "connected 10.0.0.0/30 via e0",
                    ],
                },
            ),
        )
    )

    repository.register(
        Lab(
            name="undefined-route-map-denies-deviation",
            description=(
                "the same network under the alternative semantics: the "
                "deviation lab that guards the model-behaviour knob"
            ),
            configs=UNDEFINED_ROUTE_MAP_CONFIGS,
            expected=RuntimeState(
                routes={
                    "r2": ["connected 10.0.0.0/30 via e0"],
                },
            ),
            semantics=PolicySemantics(undefined_route_map_permits=False),
        )
    )

    repository.register(
        Lab(
            name="static-recursive",
            description=(
                "a static route resolving through another static; the "
                "packet is forwarded to r2, which has no route back out "
                "- a classic asymmetric-static gotcha"
            ),
            configs=STATIC_RECURSIVE_CONFIGS,
            expected=RuntimeState(
                routes={
                    "r1": [
                        "connected 10.0.0.0/30 via e0",
                        "static 172.30.0.0/16 -> 192.168.1.1 [1]",
                        "static 192.168.0.0/16 -> 10.0.0.2 [1]",
                    ],
                },
                traces=[
                    ExpectedTrace(
                        packet=Packet(
                            src_ip=Ip("10.0.0.1"), dst_ip=Ip("172.30.5.5"),
                        ),
                        start_node="r1",
                        start_interface="e0",
                        disposition=Disposition.NO_ROUTE,
                        path=["r1", "r2"],
                    )
                ],
            ),
        )
    )

    repository.register(
        Lab(
            name="ibgp-split-horizon-and-export-deny",
            description=(
                "a route reflector with one client, one plain iBGP peer "
                "behind an export route-map: iBGP-learned routes reach the "
                "client only (9.0.0.0/8 is kept from p2 by split horizon "
                "*and* by the route-map), the reflector's own routes reach "
                "everyone the route-map lets them"
            ),
            configs=IBGP_SPLIT_HORIZON_CONFIGS,
            expected=RuntimeState(
                routes={
                    "rr": [
                        "connected 10.0.2.0/30 via e0",
                        "connected 10.0.3.0/30 via e1",
                        "connected 10.0.4.0/30 via e2",
                        "ibgp 8.0.0.0/8 via 10.0.2.1 lp 100 path [100]",
                        "ibgp 9.0.0.0/8 via 10.0.2.1 lp 100 path [100]",
                        "static 172.20.0.0/16 -> Null0 [1]",
                        "static 172.21.0.0/16 -> Null0 [1]",
                    ],
                    # The client gets everything, reflected routes included.
                    "c1": [
                        "connected 10.0.3.0/30 via e0",
                        "ibgp 172.20.0.0/16 via 10.0.3.1 lp 100 path [local]",
                        "ibgp 172.21.0.0/16 via 10.0.3.1 lp 100 path [local]",
                        "ibgp 8.0.0.0/8 via 10.0.3.1 lp 100 path [100]",
                        "ibgp 9.0.0.0/8 via 10.0.3.1 lp 100 path [100]",
                    ],
                    # The plain peer gets neither iBGP-learned route (split
                    # horizon) nor 172.21.0.0/16 (route-map deny).
                    "p2": [
                        "connected 10.0.4.0/30 via e0",
                        "ibgp 172.20.0.0/16 via 10.0.4.1 lp 100 path [local]",
                    ],
                    # The reflector's own routes are not iBGP-learned.
                    "p1": [
                        "bgp 8.0.0.0/8 via 10.0.1.2 lp 100 path [100]",
                        "bgp 9.0.0.0/8 via 10.0.1.2 lp 100 path [100]",
                        "connected 10.0.1.0/30 via e0",
                        "connected 10.0.2.0/30 via e1",
                        "ibgp 172.20.0.0/16 via 10.0.2.2 lp 100 path [local]",
                        "ibgp 172.21.0.0/16 via 10.0.2.2 lp 100 path [local]",
                    ],
                },
            ),
        )
    )

    repository.register(
        Lab(
            name="ebgp-prepend-poisons-receiver",
            description=(
                "an eBGP triangle where a prepends c's AS towards c: c's "
                "loop prevention must see the prepended path and learn "
                "the prefix through b instead"
            ),
            configs=EBGP_PREPEND_LOOP_CONFIGS,
            expected=RuntimeState(
                routes={
                    "b": [
                        "bgp 172.20.0.0/16 via 10.0.12.1 lp 100 path [65001]",
                        "connected 10.0.12.0/30 via e0",
                        "connected 10.0.23.0/30 via e1",
                    ],
                    "c": [
                        "bgp 172.20.0.0/16 via 10.0.23.1 lp 100 path [65002 65001]",
                        "connected 10.0.13.0/30 via e0",
                        "connected 10.0.23.0/30 via e1",
                        "connected 192.168.3.0/24 via lan",
                    ],
                },
                traces=[
                    ExpectedTrace(
                        packet=Packet(
                            src_ip=Ip("192.168.3.10"), dst_ip=Ip("172.20.5.5"),
                        ),
                        start_node="c",
                        start_interface="lan",
                        disposition=Disposition.NULL_ROUTED,
                        path=["c", "b", "a"],
                    )
                ],
            ),
        )
    )
    return repository
