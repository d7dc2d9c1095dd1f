"""Stage keys against a from-scratch session, on edits meant to break
them.

A delta takes the IGP stage from its base when the IGP projections and
the contributions redistributed into OSPF are equal, and the BGP stage
when the BGP projections are and every read it logged of a main RIB
answers as it did. Each case below is a static route that *does* move a
later stage, through one of those reads; the last two are edits that
move none, on a base the stage record reached another way. Every case
must equal a scratch session in everything routing produces and must
show the stage the edit moved recomputed — so a memo that always hits
and one that always misses both fail here. The lint stage's key, the
lint projection, is held the same way: an inert edit must carry the
stage, an edit that moves a location or a lint input must not, and
both must lint as a scratch session does.
"""

import dataclasses

import pytest

from repro.core.cache import SnapshotCache
from repro.core.session import Session
from repro.delta import fib_lines
from repro.config.loader import detect_syntax
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.delta.engine import graph_lines
from repro.synth.networks import network_by_name

#: Two iBGP speakers peering over loopbacks that nothing routes to: the
#: session is down in both directions.
UNREACHABLE_PEERS = {
    "p1": """
hostname p1
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
interface Ethernet0
 ip address 10.0.0.1 255.255.255.252
router bgp 65000
 bgp router-id 1.1.1.1
 neighbor 2.2.2.2 remote-as 65000
 network 1.1.1.1 mask 255.255.255.255
""",
    "p2": """
hostname p2
interface Loopback0
 ip address 2.2.2.2 255.255.255.255
interface Ethernet0
 ip address 10.0.0.2 255.255.255.252
router bgp 65000
 bgp router-id 2.2.2.2
 neighbor 1.1.1.1 remote-as 65000
 network 2.2.2.2 mask 255.255.255.255
""",
}

#: r1 and r2 are iBGP over OSPF loopbacks; r3 is r2's eBGP peer. r2
#: passes r3's loopback to r1 with r3's address as the next hop, which
#: r1 resolves through OSPF; r1's network statement names a prefix it
#: does not have.
IBGP_OVER_OSPF = {
    "r1": """
hostname r1
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
 ip ospf area 0
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 ip ospf area 0
router ospf 1
 router-id 1.1.1.1
router bgp 65000
 bgp router-id 1.1.1.1
 neighbor 2.2.2.2 remote-as 65000
 network 198.51.100.0 mask 255.255.255.0
""",
    "r2": """
hostname r2
interface Loopback0
 ip address 2.2.2.2 255.255.255.255
 ip ospf area 0
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 ip ospf area 0
interface Ethernet1
 ip address 10.0.23.2 255.255.255.0
 ip ospf area 0
 ip ospf passive
router ospf 1
 router-id 2.2.2.2
router bgp 65000
 bgp router-id 2.2.2.2
 neighbor 1.1.1.1 remote-as 65000
 neighbor 10.0.23.3 remote-as 65003
""",
    "r3": """
hostname r3
interface Loopback0
 ip address 3.3.3.3 255.255.255.255
interface Ethernet0
 ip address 10.0.23.3 255.255.255.0
router bgp 65003
 bgp router-id 3.3.3.3
 neighbor 10.0.23.2 remote-as 65000
 network 3.3.3.3 mask 255.255.255.255
""",
}


def _stats(session):
    return {
        key: value
        for key, value in dataclasses.asdict(session.dataplane.stats).items()
        if key != "elapsed_seconds"
    }


def _bgp_best(session):
    return {
        hostname: [
            (route.prefix, route.next_hop_ip, route.attributes, route.received_from)
            for route in state.bgp_rib.all_best()
        ]
        for hostname, state in session.dataplane.nodes.items()
        if state.bgp_rib is not None
    }


def _established(session):
    return [
        (s.key, s.established, s.failure_reason) for s in session.dataplane.sessions
    ]


def assert_equals_scratch(variant):
    scratch = Session.from_texts(variant._configs)
    assert fib_lines(variant.fibs) == fib_lines(scratch.fibs)
    assert graph_lines(variant.analyzer) == graph_lines(scratch.analyzer)
    ours, theirs = variant.dataplane, scratch.dataplane
    assert ours.nodes.keys() == theirs.nodes.keys()
    for hostname, state in ours.nodes.items():
        assert state.main_rib.same_best(theirs.nodes[hostname].main_rib), hostname
    assert _bgp_best(variant) == _bgp_best(scratch)
    assert _established(variant) == _established(scratch)
    assert _stats(variant) == _stats(scratch)
    assert ours.stats.total_routes == sum(len(s.main_rib) for s in ours.nodes.values())
    assert ours.converged == theirs.converged


def _loaded(configs):
    base = Session.from_texts(configs)
    base.analyzer
    return base


def _static(text, prefix, mask, via="Null0"):
    return text + f"ip route {prefix} {mask} {via}\n"


def test_discard_on_an_ibgp_peer_loopback_moves_bgp():
    """NET10: a /32 discard for an iBGP peer's loopback. The peer still
    has an LPM (viability reads only that), but the loopback is also the
    BGP next hop, and its IGP cost falls from OSPF's to the static's 0."""
    configs = network_by_name("NET10").generate(1)
    base = _loaded(configs)
    session = next(s for s in base.dataplane.sessions if s.is_ibgp and s.established)
    filename = next(
        f for f, h in base.snapshot.sources.items() if h == session.local_node
    )
    peer = str(session.remote_ip)
    variant = base.delta(
        {filename: _static(configs[filename], peer, "255.255.255.255")}
    )
    assert_equals_scratch(variant)
    info = variant.delta_info
    assert info.stages["igp"] == "reused"
    assert info.stages["bgp"].startswith("recomputed")
    assert peer in info.stages["bgp"] and session.local_node in info.stages["bgp"]


def test_a_static_route_to_an_unreachable_peer_moves_session_viability():
    base = _loaded(UNREACHABLE_PEERS)
    assert not any(s.established for s in base.dataplane.sessions)
    variant = base.delta({
        "p1": _static(UNREACHABLE_PEERS["p1"], "2.2.2.2", "255.255.255.255", "10.0.0.2")
    })
    assert_equals_scratch(variant)
    assert variant.delta_info.stages["bgp"] == (
        "recomputed (reachability of peer 2.2.2.2 at p1 changed)"
    )
    # One direction of the session came up.
    assert [s.established for s in variant.dataplane.sessions] == [True, False]


def test_a_more_specific_static_over_a_bgp_next_hop_moves_its_igp_cost():
    base = _loaded(IBGP_OVER_OSPF)
    costs = base.dataplane.stages.rounds[0].reads["r1"].costs
    assert costs[next(ip for ip in costs if str(ip) == "10.0.23.3")] > 0
    variant = base.delta({
        "r1": _static(IBGP_OVER_OSPF["r1"], "10.0.23.3", "255.255.255.255", "10.0.12.2")
    })
    assert_equals_scratch(variant)
    stages = variant.delta_info.stages
    assert (stages["igp"], stages["bgp"]) == (
        "reused", "recomputed (igp cost of 10.0.23.3 at r1 changed)"
    )


def test_a_static_route_for_a_network_statement_moves_origination():
    base = _loaded(IBGP_OVER_OSPF)
    assert "198.51.100.0/24" not in str(_bgp_best(base)["r2"])
    variant = base.delta({
        "r1": _static(IBGP_OVER_OSPF["r1"], "198.51.100.0", "255.255.255.0")
    })
    assert_equals_scratch(variant)
    assert variant.delta_info.stages["bgp"] == (
        "recomputed (presence of network 198.51.100.0/24 at r1 changed)"
    )
    assert "198.51.100.0/24" in str(_bgp_best(variant)["r2"])


@pytest.mark.parametrize("name", ["NET6", "NET11"])
def test_a_redistributed_static_route_moves_the_igp(name):
    """ccore0 redistributes static into OSPF: a new static route is a
    new type-2 external everywhere in the domain."""
    configs = network_by_name(name).generate(1)
    base = _loaded(configs)
    filename = next(f for f, h in base.snapshot.sources.items() if h == "ccore0")
    variant = base.delta({filename: relevant_edit(configs[filename])})
    assert_equals_scratch(variant)
    info = variant.delta_info
    assert info.stages["igp"] == (
        "recomputed (redistribution into OSPF at ccore0 changed)"
    )
    assert info.fallback and info.dirty_devices == sorted(variant.snapshot.devices)
    # The external reached the rest of the domain.
    assert any(
        "203.0.113.128/25" in line
        for hostname, lines in fib_lines(variant.fibs).items()
        if hostname != "ccore0"
        for line in lines
    )


def test_a_delta_of_a_delta_takes_its_stages_from_the_first():
    configs = network_by_name("NET10").generate(1)
    base = _loaded(configs)
    files = sorted(configs)
    first = base.delta({files[0]: relevant_edit(configs[files[0]])})
    first.analyzer
    second = first.delta({files[1]: relevant_edit(configs[files[1]])})
    assert_equals_scratch(second)
    info = second.delta_info
    assert info.stages["igp"] == info.stages["bgp"] == "reused"
    assert info.dirty_devices == [second.snapshot.sources[files[1]]]
    # The first delta's outputs, records included, carried on.
    assert second.dataplane.stages.igp is base.dataplane.stages.igp
    assert second.dataplane.stages.rounds is base.dataplane.stages.rounds


def test_a_device_deleted_and_added_back_is_changed_in_every_stage():
    """The middle session of the chain computed nothing, so the second
    delta takes its stages from the first base, whose device set is its
    own again; r1 came back with another static route."""
    base = _loaded(IBGP_OVER_OSPF)
    first = base.delta({"r1": None}, validate=False)
    readded = _static(IBGP_OVER_OSPF["r1"], "203.0.113.0", "255.255.255.0")
    second = first.delta({"r1": readded})
    assert first.computed("dataplane") is None
    assert_equals_scratch(second)
    stages = second.delta_info.stages
    assert (stages["igp"], stages["bgp"]) == (
        "recomputed (OSPF inputs of r1 changed)", "recomputed (BGP inputs of r1 changed)"
    )


def test_a_base_loaded_from_the_disk_cache_offers_its_stages(tmp_path):
    configs = network_by_name("NET10").generate(1)
    Session.from_texts(configs, cache=SnapshotCache(str(tmp_path))).dataplane
    cache = SnapshotCache(str(tmp_path))
    base = Session.from_texts(configs, cache=cache)
    base.fibs
    assert cache.stats()["hits"] == 2  # the snapshot and the data plane
    target = sorted(configs)[-1]
    variant = base.delta({target: relevant_edit(configs[target])})
    assert_equals_scratch(variant)
    info = variant.delta_info
    assert info.stages["igp"] == info.stages["bgp"] == "reused"
    assert info.dirty_devices == [variant.snapshot.sources[target]]
    assert info.reused["rib"] == len(configs) - 1


def _shifted(text):
    """A comment line inserted at the top: every location below moves."""
    return ("#" if detect_syntax(text) == "juniperish" else "!") + " moved\n" + text


def _lint_json(session):
    return [finding.to_json() for finding in session.lint().findings]


@pytest.mark.parametrize("name", ["NET3", "NET8", "NET10"])
def test_the_lint_stage_is_carried_exactly_when_its_projection_holds(name):
    configs = network_by_name(name).generate(1)
    base = Session.from_texts(configs)
    base.lint()
    target = sorted(configs)[0]
    hostname = base.snapshot.sources[target]
    cases = (
        (irrelevant_edit, "reused"),
        (_shifted, f"recomputed (lint inputs of {hostname} changed)"),
        (relevant_edit, f"recomputed (lint inputs of {hostname} changed)"),
    )
    for edit, outcome in cases:
        variant = base.delta({target: edit(configs[target])})
        assert variant.delta_info.stages["lint"] == outcome, edit.__name__
        scratch = Session.from_texts(variant._configs)
        assert _lint_json(variant) == _lint_json(scratch), edit.__name__
