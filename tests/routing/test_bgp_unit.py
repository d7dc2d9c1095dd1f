"""Unit tests for the BGP RIB decision process and logical clocks."""

import pytest

from repro.config.model import BgpNeighbor
from repro.hdr.ip import Ip, Prefix
from repro.routing.bgp import (
    BgpRib,
    BgpSession,
    accepts_route,
    export_route,
    local_route,
)
from repro.routing.route import (
    AD_IBGP,
    BgpAttributes,
    BgpRoute,
    Origin,
    reset_interning,
)

PREFIX = Prefix("8.0.0.0/8")


@pytest.fixture(autouse=True)
def fresh_pools():
    reset_interning()
    yield
    reset_interning()


def _route(peer, as_path=(100,), local_pref=100, med=0, origin=Origin.IGP,
           weight=0, from_ibgp=False, next_hop="10.0.0.9"):
    return BgpRoute(
        prefix=PREFIX,
        next_hop_ip=Ip(next_hop),
        attributes=BgpAttributes.make(
            as_path=as_path,
            local_pref=local_pref,
            med=med,
            origin=origin,
            weight=weight,
            from_ibgp=from_ibgp,
            admin_distance=AD_IBGP if from_ibgp else 20,
        ),
        received_from=Ip(peer),
    )


class TestDecisionProcess:
    def _rib(self, **kwargs):
        return BgpRib(local_as=65000, **kwargs)

    def test_local_pref_wins(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1", local_pref=100), 1)
        rib.put(_route("10.0.0.2", local_pref=200), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.2")

    def test_weight_beats_local_pref(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1", weight=100, local_pref=50), 1)
        rib.put(_route("10.0.0.2", local_pref=500), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.1")

    def test_shorter_as_path_wins(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1", as_path=(100, 200)), 1)
        rib.put(_route("10.0.0.2", as_path=(300,)), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.2")

    def test_origin_preference(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1", origin=Origin.INCOMPLETE), 1)
        rib.put(_route("10.0.0.2", origin=Origin.IGP), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.2")

    def test_lower_med_wins(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1", med=50), 1)
        rib.put(_route("10.0.0.2", med=10), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.2")

    def test_ebgp_beats_ibgp(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1", from_ibgp=True), 1)
        rib.put(_route("10.0.0.2", from_ibgp=False), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.2")

    def test_igp_cost_breaks_tie(self):
        costs = {Ip("10.0.0.8"): 5, Ip("10.0.0.9"): 50}
        rib = BgpRib(local_as=65000, igp_cost=lambda ip: costs.get(ip))
        rib.put(_route("10.0.0.1", next_hop="10.0.0.9"), 1)
        rib.put(_route("10.0.0.2", next_hop="10.0.0.8"), 2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.2")

    def test_unresolvable_next_hop_excluded(self):
        rib = BgpRib(local_as=65000, igp_cost=lambda ip: None)
        rib.put(_route("10.0.0.1"), 1)
        assert rib.best_routes(PREFIX) == []

    def test_logical_clock_prefers_incumbent(self):
        rib = self._rib(use_clocks=True)
        rib.put(_route("10.0.0.9"), clock=1)
        rib.put(_route("10.0.0.1"), clock=2)  # equally good, lower address
        # With clocks, the older route stays best despite the tie-break
        # address preferring 10.0.0.1.
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.9")

    def test_without_clocks_newest_wins(self):
        rib = self._rib(use_clocks=False)
        rib.put(_route("10.0.0.9"), clock=1)
        rib.put(_route("10.0.0.1"), clock=2)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.1")

    def test_identical_readvertisement_keeps_clock(self):
        rib = self._rib(use_clocks=True)
        rib.put(_route("10.0.0.9"), clock=1)
        assert not rib.put(_route("10.0.0.9"), clock=5)  # no change
        rib.put(_route("10.0.0.1"), clock=3)
        assert rib.best_routes(PREFIX)[0].received_from == Ip("10.0.0.9")

    def test_multipath_keeps_equal_routes(self):
        rib = BgpRib(local_as=65000, multipath=4)
        rib.put(_route("10.0.0.1"), 1)
        rib.put(_route("10.0.0.2"), 2)
        assert len(rib.best_routes(PREFIX)) == 2

    def test_multipath_respects_limit(self):
        rib = BgpRib(local_as=65000, multipath=2)
        for i in range(1, 5):
            rib.put(_route(f"10.0.0.{i}"), i)
        assert len(rib.best_routes(PREFIX)) == 2

    def test_withdraw(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1"), 1)
        assert rib.withdraw(PREFIX, Ip("10.0.0.1"))
        assert rib.best_routes(PREFIX) == []
        assert not rib.withdraw(PREFIX, Ip("10.0.0.1"))

    def test_all_best_order_follows_prefixes_coming_and_going(self):
        """``all_best`` keeps its prefix order between calls and must
        notice a prefix appearing, disappearing and coming back."""

        def route(prefix, peer="10.0.0.1"):
            return BgpRoute(Prefix(prefix), Ip("10.0.0.9"), BgpAttributes.make(), Ip(peer))

        def prefixes(rib):
            return [str(r.prefix) for r in rib.all_best()]

        rib = self._rib()
        rib.put(route("9.0.0.0/8"), 1)
        rib.put(route("10.0.0.0/8"), 2)
        assert prefixes(rib) == ["10.0.0.0/8", "9.0.0.0/8"]  # by str, as ever
        rib.put(route("100.0.0.0/8"), 3)
        assert prefixes(rib) == ["10.0.0.0/8", "100.0.0.0/8", "9.0.0.0/8"]
        rib.put(route("10.0.0.0/8", peer="10.0.0.2"), 4)  # candidate, not best
        assert prefixes(rib) == ["10.0.0.0/8", "100.0.0.0/8", "9.0.0.0/8"]
        rib.withdraw(Prefix("100.0.0.0/8"), Ip("10.0.0.1"))
        assert prefixes(rib) == ["10.0.0.0/8", "9.0.0.0/8"]
        rib.put(route("100.0.0.0/8"), 5)
        assert prefixes(rib) == ["10.0.0.0/8", "100.0.0.0/8", "9.0.0.0/8"]

    def test_one_min_equals_the_seven_sequential_filters(self):
        """Lexicographic minimum over the decision tuple picks what the
        step-by-step elimination picks, whichever step decides."""
        import itertools

        def sequential(routes):
            viable = list(routes)
            for key in (
                lambda r: -r.attributes.weight,
                lambda r: -r.attributes.local_pref,
                lambda r: len(r.attributes.as_path),
                lambda r: r.attributes.origin,
                lambda r: r.attributes.med,
                lambda r: r.attributes.from_ibgp,
            ):
                best = min(key(r) for r in viable)
                viable = [r for r in viable if key(r) == best]
            return viable

        variants = [
            dict(weight=w, local_pref=lp, as_path=path, origin=origin, med=med,
                 from_ibgp=ibgp)
            for w, lp, path, origin, med, ibgp in itertools.product(
                (0, 10), (100, 200), ((1,), (1, 2)),
                (Origin.IGP, Origin.INCOMPLETE), (0, 5), (False, True),
            )
        ]
        for offset in range(0, len(variants), 3):
            chosen = variants[offset::7][:5]
            routes = [
                _route(f"10.0.0.{index + 1}", **attrs)
                for index, attrs in enumerate(chosen)
            ]
            rib = BgpRib(local_as=65000, multipath=8)
            for clock, candidate in enumerate(routes):
                rib.put(candidate, clock)
            assert set(rib.best_routes(PREFIX)) == set(sequential(routes))

    def test_delta_tracks_changes(self):
        rib = self._rib()
        rib.put(_route("10.0.0.1"), 1)
        delta = rib.take_delta()
        assert len(delta.added) == 1
        rib.put(_route("10.0.0.2", local_pref=500), 2)
        delta = rib.take_delta()
        assert len(delta.added) == 1 and len(delta.removed) == 1


def _session(is_ibgp=False, next_hop_self=False, rr_client=False,
             send_community=False):
    neighbor = BgpNeighbor(
        peer_ip=Ip("10.0.0.2"),
        remote_as=65000 if is_ibgp else 65002,
        next_hop_self=next_hop_self,
        route_reflector_client=rr_client,
        send_community=send_community,
    )
    return BgpSession(
        local_node="r1",
        remote_node="r2",
        local_ip=Ip("10.0.0.1"),
        remote_ip=Ip("10.0.0.2"),
        local_as=65000,
        remote_as=neighbor.remote_as,
        neighbor=neighbor,
        is_ibgp=is_ibgp,
    )


class TestExport:
    def test_ebgp_prepends_as_and_sets_next_hop(self):
        route = _route("10.9.9.9", as_path=(100,))
        advert = export_route(_session(is_ibgp=False), route)
        assert advert.attributes.as_path == (65000, 100)
        assert advert.next_hop_ip == Ip("10.0.0.1")
        assert advert.attributes.local_pref == 100

    def test_ebgp_strips_communities_without_send_community(self):
        route = BgpRoute(
            prefix=PREFIX,
            next_hop_ip=Ip("10.0.0.9"),
            attributes=BgpAttributes.make(communities=("65000:1",)),
            received_from=Ip("10.9.9.9"),
        )
        advert = export_route(_session(is_ibgp=False), route)
        assert advert.attributes.communities == ()
        advert = export_route(_session(is_ibgp=False, send_community=True), route)
        assert advert.attributes.communities == ("65000:1",)

    def test_ibgp_does_not_prepend(self):
        route = _route("10.9.9.9", as_path=(100,))
        advert = export_route(_session(is_ibgp=True), route)
        assert advert.attributes.as_path == (100,)
        assert advert.attributes.from_ibgp

    def test_ibgp_learned_not_reflected_to_non_client(self):
        route = _route("10.9.9.9", from_ibgp=True)
        assert export_route(_session(is_ibgp=True), route) is None

    def test_ibgp_learned_reflected_to_client(self):
        route = _route("10.9.9.9", from_ibgp=True)
        advert = export_route(_session(is_ibgp=True, rr_client=True), route)
        assert advert is not None
        assert advert.attributes.originator_id == Ip("10.9.9.9")

    def test_next_hop_self(self):
        route = _route("10.9.9.9")
        advert = export_route(_session(is_ibgp=True, next_hop_self=True), route)
        assert advert.next_hop_ip == Ip("10.0.0.1")

    def test_ibgp_preserves_next_hop_by_default(self):
        route = _route("10.9.9.9", next_hop="172.16.0.1")
        advert = export_route(_session(is_ibgp=True), route)
        assert advert.next_hop_ip == Ip("172.16.0.1")


class TestLoopPrevention:
    def test_as_path_loop_rejected(self):
        session = _session(is_ibgp=False)
        route = _route("10.0.0.2", as_path=(65002, 65000))
        # Receiver view: local_as 65000 sees its own AS in the path.
        receiver = BgpSession(
            local_node="r2", remote_node="r1",
            local_ip=Ip("10.0.0.2"), remote_ip=Ip("10.0.0.1"),
            local_as=65000, remote_as=65002,
            neighbor=session.neighbor, is_ibgp=False,
        )
        accepted, reason = accepts_route(receiver, route)
        assert not accepted and reason == "as-path loop"

    def test_originator_loop_rejected(self):
        session = _session(is_ibgp=True)
        route = BgpRoute(
            prefix=PREFIX,
            next_hop_ip=Ip("10.0.0.9"),
            attributes=BgpAttributes.make(
                from_ibgp=True, originator_id=Ip("10.0.0.1")
            ),
            received_from=Ip("10.0.0.2"),
        )
        receiver = BgpSession(
            local_node="r1", remote_node="r2",
            local_ip=Ip("10.0.0.1"), remote_ip=Ip("10.0.0.2"),
            local_as=65000, remote_as=65000,
            neighbor=session.neighbor, is_ibgp=True,
        )
        accepted, reason = accepts_route(receiver, route)
        assert not accepted and reason == "originator-id loop"


class TestLocalRoute:
    def test_network_statement_route(self):
        route = local_route(PREFIX, Ip("1.1.1.1"), 65000)
        assert route.attributes.weight == 32768
        assert route.attributes.as_path == ()
        assert route.received_from is None

    def test_redistributed_route_origin(self):
        from repro.config.model import Protocol

        route = local_route(
            PREFIX, Ip("1.1.1.1"), 65000, source_protocol=Protocol.STATIC
        )
        assert route.attributes.origin is Origin.INCOMPLETE
