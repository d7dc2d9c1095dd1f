"""Tests for the synthetic network generators and the Table 1 registry."""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.hdr.ip import Ip, Prefix
from repro.routing.engine import compute_dataplane
from repro.synth.base import (
    CiscoishBuilder,
    InterfaceSpec,
    JuniperishBuilder,
    NeighborSpec,
    host_subnet,
    loopback_ip,
    p2p_subnet,
)
from repro.synth.campus import campus
from repro.synth.fattree import fattree, fattree_host_subnets
from repro.synth.firewall_dc import enterprise_firewall, paired_dc
from repro.synth.isp import isp
from repro.synth.networks import (
    NETWORKS,
    apt_comparison_network,
    network_by_name,
)
from repro.synth.special import figure1a, figure1b, net1
from repro.synth.wan import wan


class TestBuilders:
    def test_ciscoish_render_parses_clean(self):
        builder = CiscoishBuilder("r1")
        builder.router_id("1.1.1.1")
        builder.interface(
            InterfaceSpec("Ethernet0", "10.0.0.1", 24, ospf_area=0,
                          ospf_cost=10, acl_in="A", description="test")
        )
        builder.acl("A", ["permit ip any any"])
        builder.static("0.0.0.0/0", "10.0.0.2")
        builder.bgp(65000)
        builder.bgp_neighbor(NeighborSpec(peer_ip="10.0.0.2", remote_as=65001))
        builder.ntp("192.0.2.1")
        snapshot = load_snapshot_from_texts({"r1": builder.render()})
        assert snapshot.warnings == []
        device = snapshot.device("r1")
        assert device.interfaces["Ethernet0"].ospf_cost == 10
        assert device.bgp.local_as == 65000

    def test_juniperish_render_parses_clean(self):
        builder = JuniperishBuilder("r2")
        builder.router_id("2.2.2.2")
        builder.interface(
            InterfaceSpec("ge-0/0/0", "10.0.0.2", 24, ospf_area=0,
                          acl_in="F")
        )
        builder.filter_term("F", "all", froms=["protocol tcp"], then="accept")
        builder.bgp_local_as(65001)
        builder.bgp_neighbor(NeighborSpec(peer_ip="10.0.0.1", remote_as=65000))
        builder.static("0.0.0.0/0", "10.0.0.1")
        snapshot = load_snapshot_from_texts({"r2": builder.render()})
        assert snapshot.warnings == []
        assert snapshot.device("r2").vendor == "juniperish"

    def test_p2p_subnet_deterministic_and_disjoint(self):
        a1, b1, plen = p2p_subnet(1, 0)
        a2, b2, _ = p2p_subnet(1, 1)
        assert plen == 30
        assert a1 != a2
        assert Prefix(Ip(a1).value, 30) != Prefix(Ip(a2).value, 30)
        assert p2p_subnet(1, 0) == (a1, b1, 30)

    def test_p2p_subnet_range_check(self):
        with pytest.raises(ValueError):
            p2p_subnet(1, 1 << 14)

    def test_host_subnet_and_loopback(self):
        assert host_subnet(0, 0) == Prefix("172.16.0.0/24")
        assert loopback_ip(1) == "192.168.0.1"


def test_net1_names_its_minimum_spur_count():
    """The first spur dual-homes to two ring routers, so one spur is too
    few; the generator says so before building anything."""
    for num_spurs in (1, 0):
        with pytest.raises(ValueError, match="at least 2 spurs"):
            net1(num_spurs)
    assert len(net1(2)) == 4


class TestFatTree:
    def test_structure(self):
        configs = fattree(k=4)
        assert len(configs) == 4 + 8 + 8  # cores + aggs + edges

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fattree(k=3)

    def test_host_subnets_unique(self):
        subnets = fattree_host_subnets(8)
        assert len(subnets) == len(set(subnets))

    def test_all_sessions_establish(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(fattree(4)))
        assert dataplane.session_issues == []
        assert all(s.established for s in dataplane.sessions)

    def test_ecmp_present(self):
        """Core-level multipath: an edge should have multiple equal BGP
        paths to a remote pod's subnet."""
        dataplane = compute_dataplane(load_snapshot_from_texts(fattree(4)))
        subnets = fattree_host_subnets(4)
        match = dataplane.main_rib("edge0-0").longest_match(
            subnets[-1].first_ip
        )
        assert match is not None
        assert len(match[1]) >= 2  # maximum-paths in effect

    def test_mixed_vendor_parses_clean(self):
        snapshot = load_snapshot_from_texts(
            fattree(4, vendors=("ciscoish", "juniperish"))
        )
        vendors = {d.vendor for d in snapshot.devices.values()}
        assert vendors == {"ciscoish", "juniperish"}
        assert snapshot.warnings == []


class TestOtherGenerators:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda: wan(2, 4, 1),
            lambda: campus(2, 2),
            lambda: campus(2, 2, vendors=("ciscoish", "juniperish")),
            lambda: isp(3, 4, 1),
            lambda: enterprise_firewall(2),
            lambda: paired_dc(4),
            lambda: net1(3),
            figure1a,
        ],
        ids=["wan", "campus", "campus-mixed", "isp", "firewall", "paired-dc",
             "net1", "fig1a"],
    )
    def test_generates_clean_convergent_network(self, generate):
        snapshot = load_snapshot_from_texts(generate())
        assert snapshot.warnings == [], [
            (w.text, w.comment) for w in snapshot.warnings[:3]
        ]
        dataplane = compute_dataplane(snapshot)
        assert dataplane.converged
        assert dataplane.stats.total_routes > 0

    def test_figure1b_is_the_paper_pattern(self):
        from repro.routing.engine import ConvergenceSettings

        snapshot = load_snapshot_from_texts(figure1b())
        lockstep = compute_dataplane(
            snapshot, ConvergenceSettings(schedule="lockstep", max_iterations=40)
        )
        assert not lockstep.converged

    def test_paired_dc_cross_reachability(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(paired_dc(4)))
        match = dataplane.main_rib("edge0-0").longest_match(Ip("172.24.0.5"))
        assert match is not None
        # The cross-DC AS path passes through both DC cores.
        route = match[1][0]
        assert 64901 in route.as_path

    def test_isp_policy_prefers_customers(self):
        """Gao-Rexford: customer routes carry local-pref 200, peer
        routes 100, and peers only hear customer routes."""
        dataplane = compute_dataplane(load_snapshot_from_texts(isp(3, 4, 2)))
        core = dataplane.nodes["isp0"]
        customer_route = core.main_rib.longest_match(Ip("100.64.0.1"))
        assert customer_route is not None
        best = customer_route[1][0]
        assert best.local_pref == 200
        assert "64600:100" in best.communities
        # Peers must not receive other peers' routes.
        peer0 = dataplane.nodes["peer0"]
        other_peer_prefix = Ip("100.129.0.1")  # peer1's prefix
        assert peer0.main_rib.longest_match(other_peer_prefix) is None
        # But they do receive customer routes.
        assert peer0.main_rib.longest_match(Ip("100.64.0.1")) is not None


class TestRegistry:
    def test_eleven_networks(self):
        assert len(NETWORKS) == 11
        assert [spec.name for spec in NETWORKS] == [
            f"NET{i}" for i in range(1, 12)
        ]

    def test_lookup(self):
        assert network_by_name("NET5").network_type.startswith("WAN")
        with pytest.raises(KeyError):
            network_by_name("NET99")

    def test_type_diversity(self):
        types = {spec.network_type for spec in NETWORKS}
        assert len(types) >= 8  # diverse, like Table 1

    def test_apt_network_is_92_devices(self):
        assert len(apt_comparison_network()) == 92

    def test_scale_knob_grows_networks(self):
        small = network_by_name("NET5").generate(1)
        large = network_by_name("NET5").generate(2)
        assert len(large) > len(small)
