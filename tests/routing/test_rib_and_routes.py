"""Tests for route values, interning, RIBs, and RIB deltas."""

import pytest

from repro.hdr.ip import Ip, Prefix
from repro.routing.rib import (
    Rib,
    RibDelta,
    main_rib_preference,
    route_sort_key,
    sorted_best_set,
)
from repro.routing.route import (
    AD_EBGP,
    AD_OSPF,
    BgpAttributes,
    BgpRoute,
    ConnectedRoute,
    InternPool,
    OspfRoute,
    OspfRouteType,
    StaticRouteEntry,
    estimate_route_memory,
    intern_as_path,
    intern_communities,
    interning_stats,
    reset_interning,
)


@pytest.fixture(autouse=True)
def fresh_pools():
    reset_interning()
    yield
    reset_interning()


class TestInterning:
    def test_pool_returns_canonical(self):
        pool = InternPool("test")
        a = (1, 2, 3)
        b = (1, 2, 3)
        assert pool.intern(a) is pool.intern(b)
        assert pool.unique == 1
        assert pool.requests == 2

    def test_attributes_interned(self):
        a = BgpAttributes.make(as_path=(65001,), local_pref=200)
        b = BgpAttributes.make(as_path=(65001,), local_pref=200)
        assert a is b
        c = BgpAttributes.make(as_path=(65001,), local_pref=100)
        assert a is not c

    def test_with_changes_reinterned(self):
        a = BgpAttributes.make(local_pref=100)
        b = a.with_changes(local_pref=200)
        c = BgpAttributes.make(local_pref=200)
        assert b is c

    def test_as_path_and_communities(self):
        assert intern_as_path((1, 2)) is intern_as_path((1, 2))
        # Community sets canonicalize: sorted, deduplicated.
        assert intern_communities(("b:1", "a:1", "a:1")) == ("a:1", "b:1")

    def test_stats(self):
        BgpAttributes.make(local_pref=1)
        BgpAttributes.make(local_pref=1)
        stats = interning_stats()
        assert stats["bgp-attributes"]["requests"] >= 2
        assert stats["bgp-attributes"]["unique"] >= 1

    def test_memory_estimate_shape(self):
        # Interned layout should be dramatically smaller when bundles
        # are shared 10-20x (the paper's ~50% claim at the route level).
        interned = estimate_route_memory(10000, 500, interned=True)
        flat = estimate_route_memory(10000, 500, interned=False)
        assert interned < flat
        assert flat / interned > 1.5


class TestRouteValues:
    def test_connected(self):
        route = ConnectedRoute(prefix=Prefix("10.0.1.0/24"), interface="e0")
        assert route.admin_distance == 0
        assert "connected" in route.describe()

    def test_static_null(self):
        route = StaticRouteEntry(
            prefix=Prefix("10.0.0.0/8"), next_hop_ip=None, next_hop_interface="Null0"
        )
        assert route.is_null_routed

    def test_ospf_protocols(self):
        intra = OspfRoute(Prefix("1.0.0.0/8"), 10, 0, Ip("1.1.1.1"), "e0")
        e2 = OspfRoute(
            Prefix("1.0.0.0/8"), 20, 0, Ip("1.1.1.1"), "e0",
            route_type=OspfRouteType.EXTERNAL_2,
        )
        assert intra.protocol.value == "ospf"
        assert e2.protocol.value == "ospfE2"

    def test_bgp_route_properties(self):
        route = BgpRoute(
            prefix=Prefix("8.0.0.0/8"),
            next_hop_ip=Ip("10.0.0.1"),
            attributes=BgpAttributes.make(as_path=(65001, 3356), local_pref=150),
        )
        assert route.as_path == (65001, 3356)
        assert route.local_pref == 150
        assert route.admin_distance == AD_EBGP
        assert "8.0.0.0/8" in route.describe()


class TestRibDelta:
    def test_extend_cancels(self):
        a = RibDelta(added=["r1"], removed=[])
        b = RibDelta(added=[], removed=["r1"])
        a.extend(b)
        assert a.empty

    def test_extend_accumulates(self):
        a = RibDelta(added=["r1"], removed=["r2"])
        a.extend(RibDelta(added=["r3"], removed=[]))
        assert a.added == ["r1", "r3"]

    def test_clear_returns_snapshot(self):
        delta = RibDelta(added=["r1"], removed=["r2"])
        snapshot = delta.clear()
        assert snapshot.added == ["r1"]
        assert delta.empty

    def test_extend_matches_the_list_scan_it_replaced(self):
        """Hashed membership must fold exactly like the ``route in
        list`` scans did: first occurrence cancelled, order kept,
        repeats counted one by one."""

        def scan_extend(added, removed, other):
            added, removed = list(added), list(removed)
            for route in other.added:
                if route in removed:
                    removed.remove(route)
                else:
                    added.append(route)
            for route in other.removed:
                if route in added:
                    added.remove(route)
                else:
                    removed.append(route)
            return added, removed

        cases = [
            (["a"], ["x", "y", "x"], RibDelta(["x", "x", "x", "b"], ["a", "a"])),
            ([], [], RibDelta(["b", "c"], ["a", "b"])),  # replaced twice in one pull
            (["a", "b"], [], RibDelta([], ["b", "a", "c"])),
            (["a"], ["b"], RibDelta()),
        ]
        for added, removed, other in cases:
            delta = RibDelta(list(added), list(removed))
            delta.extend(other)
            assert (delta.added, delta.removed) == scan_extend(added, removed, other)


class TestRouteOrder:
    """``route_sort_key``'s order is the parent commit's — protocol,
    next hop, interface, then the route's ``repr`` — but ``repr`` is
    rendered only to break a real tie."""

    @staticmethod
    def _old_key(route):
        next_hop = getattr(route, "next_hop_ip", None)
        interface = getattr(route, "next_hop_interface", None) or getattr(
            route, "interface", None
        )
        return (
            str(route.prefix),
            route.protocol.value,
            next_hop.value if next_hop is not None else -1,
            interface or "",
            repr(route),
        )

    def _routes(self):
        prefix = Prefix("10.0.0.0/24")
        bgp = [
            BgpRoute(prefix, Ip("10.0.0.9"), BgpAttributes.make(med=med), Ip(peer))
            for med, peer in ((5, "10.0.0.2"), (0, "10.0.0.3"), (5, "10.0.0.1"))
        ]  # one next hop, one protocol: only repr tells them apart
        return bgp + [
            OspfRoute(prefix, 10, 0, Ip("10.0.1.2"), "e1"),
            OspfRoute(prefix, 10, 0, Ip("10.0.1.2"), "e0"),
            ConnectedRoute(prefix, "e0"),
            StaticRouteEntry(prefix, None, "Null0"),
            StaticRouteEntry(Prefix("10.0.0.0/8"), Ip("10.0.0.2"), None),
            ConnectedRoute(Prefix("9.0.0.0/8"), "e3"),
        ]

    def test_total_order_unchanged(self):
        routes = self._routes()
        assert sorted(routes, key=route_sort_key) == sorted(routes, key=self._old_key)
        assert sorted(reversed(routes), key=route_sort_key) == sorted(
            routes, key=self._old_key
        )

    def test_best_set_order_is_the_total_order(self):
        same_prefix = self._routes()[:7]
        assert sorted_best_set(same_prefix) == sorted(same_prefix, key=self._old_key)
        assert sorted_best_set(same_prefix[3:4]) == same_prefix[3:4]
        assert sorted_best_set([]) == []

    def test_repr_only_breaks_real_ties(self, monkeypatch):
        rendered = []
        for cls in (BgpRoute, OspfRoute, ConnectedRoute, StaticRouteEntry):
            original = cls.__repr__
            monkeypatch.setattr(
                cls, "__repr__",
                lambda self, original=original: rendered.append(self) or original(self),
            )
        routes = self._routes()
        sorted(routes[3:], key=route_sort_key)  # no two tie on the cheap part
        assert rendered == []
        sorted(routes, key=route_sort_key)
        assert rendered and set(rendered) <= set(routes[:3])


class TestRib:
    def _connected(self, prefix, iface="e0"):
        return ConnectedRoute(prefix=Prefix(prefix), interface=iface)

    def _ospf(self, prefix, cost, iface="e0", nh="10.0.0.2"):
        return OspfRoute(Prefix(prefix), cost, 0, Ip(nh), iface)

    def test_admin_distance_preference(self):
        rib = Rib()
        ospf = self._ospf("10.0.0.0/24", 10)
        rib.merge(ospf)
        assert rib.best_routes(Prefix("10.0.0.0/24")) == [ospf]
        connected = self._connected("10.0.0.0/24")
        rib.merge(connected)
        assert rib.best_routes(Prefix("10.0.0.0/24")) == [connected]

    def test_metric_preference_within_protocol(self):
        rib = Rib()
        worse = self._ospf("10.0.0.0/24", 20)
        better = self._ospf("10.0.0.0/24", 10, iface="e1")
        rib.merge(worse)
        rib.merge(better)
        assert rib.best_routes(Prefix("10.0.0.0/24")) == [better]

    def test_ecmp_set(self):
        rib = Rib()
        a = self._ospf("10.0.0.0/24", 10, iface="e0", nh="10.0.1.2")
        b = self._ospf("10.0.0.0/24", 10, iface="e1", nh="10.0.2.2")
        rib.merge(a)
        rib.merge(b)
        assert set(rib.best_routes(Prefix("10.0.0.0/24"))) == {a, b}

    def test_merge_reports_best_changes(self):
        rib = Rib()
        prefix = Prefix("10.0.0.0/24")
        ospf = self._ospf("10.0.0.0/24", 10)
        assert rib.merge(ospf)
        assert rib.best_routes(prefix) == [ospf]
        worse = self._ospf("10.0.0.0/24", 20, iface="e1")
        assert not rib.merge(worse)  # a candidate, not a best route
        assert rib.best_routes(prefix) == [ospf]
        connected = self._connected("10.0.0.0/24")
        assert rib.merge(connected)
        assert rib.best_routes(prefix) == [connected]

    def test_duplicate_merge_is_noop(self):
        rib = Rib()
        route = self._connected("10.0.0.0/24")
        assert rib.merge(route)
        assert not rib.merge(route)
        assert rib.best_routes(Prefix("10.0.0.0/24")) == [route]
        assert len(rib) == 1

    def test_withdraw_restores_runner_up(self):
        rib = Rib()
        ospf = self._ospf("10.0.0.0/24", 10)
        connected = self._connected("10.0.0.0/24")
        rib.merge(ospf)
        rib.merge(connected)
        assert rib.withdraw(connected)
        assert rib.best_routes(Prefix("10.0.0.0/24")) == [ospf]
        assert not rib.withdraw(connected)

    def test_withdraw_missing_is_noop(self):
        rib = Rib()
        assert not rib.withdraw(self._connected("10.0.0.0/24"))

    def test_longest_match_over_best(self):
        rib = Rib()
        rib.merge(self._connected("10.0.0.0/8", "e0"))
        rib.merge(self._connected("10.1.0.0/16", "e1"))
        prefix, routes = rib.longest_match(Ip("10.1.2.3"))
        assert prefix == Prefix("10.1.0.0/16")
        assert routes[0].interface == "e1"

    def test_len_counts_best_routes(self):
        rib = Rib()
        rib.merge(self._connected("10.0.0.0/24", "e0"))
        rib.merge(self._connected("10.0.1.0/24", "e1"))
        assert len(rib) == 2

    def test_exact_reads_and_lpm_agree_through_churn(self):
        """Exact-prefix reads, LPM and iteration are three views of one
        store: every change of a best set must show in all of them."""
        rib = Rib()
        prefix = Prefix("10.0.0.0/24")
        ospf_a = self._ospf("10.0.0.0/24", 10, iface="e0", nh="10.0.1.2")
        ospf_b = self._ospf("10.0.0.0/24", 10, iface="e1", nh="10.0.2.2")
        connected = self._connected("10.0.0.0/24")

        def views():
            match = rib.longest_match(Ip("10.0.0.7"))
            return rib.best_routes(prefix), match[1] if match else [], list(rib.routes())

        for step, expected in (
            (lambda: rib.merge(ospf_b), [ospf_b]),
            (lambda: rib.merge(ospf_a), [ospf_a, ospf_b]),  # ECMP, sorted
            (lambda: rib.merge(connected), [connected]),
            (lambda: rib.withdraw(connected), [ospf_a, ospf_b]),
            (lambda: rib.withdraw(ospf_a), [ospf_b]),
            (lambda: rib.clear_prefix(prefix), []),
        ):
            step()
            assert views() == (expected, expected, expected)
            assert len(rib) == len(expected)
        assert rib.prefixes() == []

    def test_best_routes_is_a_copy(self):
        rib = Rib()
        rib.merge(self._connected("10.0.0.0/24"))
        rib.best_routes(Prefix("10.0.0.0/24")).clear()
        assert len(rib.best_routes(Prefix("10.0.0.0/24"))) == 1

    def test_main_rib_preference_keys(self):
        connected = self._connected("10.0.0.0/24")
        ospf = self._ospf("10.0.0.0/24", 5)
        assert main_rib_preference(connected) < main_rib_preference(ospf)


class TestRendering:
    """A main RIB renders its routes once: ``Rib.rendered()`` is kept
    until the table changes and never pickled."""

    def test_every_registry_rib_renders_as_fresh_describe_calls(self):
        from repro.core.session import Session
        from repro.synth.networks import NETWORKS

        for network in NETWORKS:
            session = Session.from_texts(network.generate(1))
            for hostname, state in session.dataplane.nodes.items():
                fresh = tuple(route.describe() for route in state.main_rib.routes())
                assert state.main_rib.rendered() == fresh, (network.name, hostname)
                assert state.main_rib.rendered() is state.main_rib.rendered()
            assert [row.description for row in session.routes()] == [
                route.describe()
                for hostname in session.snapshot.hostnames()
                for route in session.dataplane.main_rib(hostname).routes()
            ]

    def test_a_change_after_rendering_renders_again(self):
        rib = Rib()
        ospf = OspfRoute(Prefix("10.0.0.0/24"), 10, 0, Ip("10.0.0.2"), "e0")
        rib.merge(ospf)
        first = rib.rendered()
        assert first == (ospf.describe(),)
        # A candidate that does not become best changes nothing shown.
        rib.merge(OspfRoute(Prefix("10.0.0.0/24"), 20, 0, Ip("10.0.0.3"), "e1"))
        assert rib.rendered() is first
        connected = ConnectedRoute(prefix=Prefix("10.0.1.0/24"), interface="e1")
        rib.merge(connected)
        assert rib.rendered() == (ospf.describe(), connected.describe())
        rib.withdraw(ospf)
        assert rib.rendered() == tuple(route.describe() for route in rib.routes())
        rib.clear_prefix(Prefix("10.0.0.0/24"))
        assert rib.rendered() == (connected.describe(),)

    def test_a_pickled_dataplane_holds_no_rendering(self):
        import pickle

        from repro.core.session import Session
        from repro.synth.special import net1

        session = Session.from_texts(net1(2))
        session.routes()
        dataplane = session.dataplane
        assert all(s.main_rib._rendered for s in dataplane.nodes.values())
        loaded = pickle.loads(pickle.dumps(dataplane))
        for hostname, state in loaded.nodes.items():
            assert state.main_rib._rendered is None
            assert state.main_rib.rendered() == dataplane.main_rib(hostname).rendered()
        # Pickling left the original's renderings alone.
        assert all(s.main_rib._rendered for s in dataplane.nodes.values())
