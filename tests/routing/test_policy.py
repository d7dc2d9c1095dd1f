"""Tests for route-map evaluation, including the long-tail semantics knob."""

from dataclasses import fields

import pytest

from repro.config.loader import parse_config_text
from repro.hdr.ip import Ip, Prefix
from repro.routing.policy import (
    PolicyRoute,
    PolicySemantics,
    apply_route_map,
)

DEVICE = """\
hostname r1
ip prefix-list TEN seq 5 permit 10.0.0.0/8 le 24
ip community-list standard GOLD permit 65000:100
ip as-path access-list FROM_100 permit ^100_
route-map POLICY permit 10
 match ip address prefix-list TEN
 set local-preference 300
 set community 65000:42 additive
route-map POLICY permit 20
 match community GOLD
 set metric 77
route-map POLICY deny 30
route-map PREPEND permit 10
 set as-path prepend 65000 65000
route-map BY_ASPATH permit 10
 match as-path FROM_100
route-map BY_TAG permit 10
 match tag 99
route-map NEXT_HOP permit 10
 set ip next-hop 192.0.2.99
route-map UNDEF_PL permit 10
 match ip address prefix-list NO_SUCH_LIST
"""


@pytest.fixture(scope="module")
def device():
    dev, _ = parse_config_text(DEVICE)
    return dev


def _route(prefix="10.1.0.0/16", **kwargs):
    return PolicyRoute(prefix=Prefix(prefix), **kwargs)


class TestMatching:
    def test_prefix_list_match_applies_sets(self, device):
        result = apply_route_map(device, "POLICY", _route())
        assert result.permitted
        assert result.route.local_pref == 300
        assert "65000:42" in result.route.communities

    def test_fallthrough_to_community_clause(self, device):
        route = _route("172.16.0.0/16", communities={"65000:100"})
        result = apply_route_map(device, "POLICY", route)
        assert result.permitted
        assert result.route.med == 77
        assert result.route.local_pref == 100  # untouched by clause 20

    def test_no_match_hits_deny_clause(self, device):
        result = apply_route_map(device, "POLICY", _route("172.16.0.0/16"))
        assert not result.permitted
        assert result.route is None

    def test_as_path_match(self, device):
        assert apply_route_map(
            device, "BY_ASPATH", _route(as_path=(100, 200))
        ).permitted
        assert not apply_route_map(
            device, "BY_ASPATH", _route(as_path=(200, 100))
        ).permitted

    def test_tag_match(self, device):
        assert apply_route_map(device, "BY_TAG", _route(tag=99)).permitted
        assert not apply_route_map(device, "BY_TAG", _route(tag=1)).permitted

    def test_original_route_not_mutated(self, device):
        route = _route()
        apply_route_map(device, "POLICY", route)
        assert route.local_pref == 100
        assert route.communities == set()


class TestSets:
    def test_as_path_prepend(self, device):
        result = apply_route_map(device, "PREPEND", _route(as_path=(3356,)))
        assert result.route.as_path == (65000, 65000, 3356)

    def test_next_hop_set(self, device):
        result = apply_route_map(device, "NEXT_HOP", _route())
        assert result.route.next_hop_ip == Ip("192.0.2.99")


class TestLongTailSemantics:
    def test_no_policy_permits_unchanged(self, device):
        route = _route()
        result = apply_route_map(device, None, route)
        assert result.permitted
        assert result.route.local_pref == route.local_pref

    def test_undefined_route_map_default_permits(self, device):
        result = apply_route_map(device, "NO_SUCH_MAP", _route())
        assert result.permitted
        assert "undefined" in result.trace[0]

    def test_undefined_route_map_deny_semantics(self, device):
        semantics = PolicySemantics(undefined_route_map_permits=False)
        result = apply_route_map(device, "NO_SUCH_MAP", _route(), semantics)
        assert not result.permitted

    def test_undefined_prefix_list_fails_match(self, device):
        # Clause matches nothing -> implicit deny at the end.
        result = apply_route_map(device, "UNDEF_PL", _route())
        assert not result.permitted

    def test_an_undefined_route_map_is_the_only_knob(self):
        """An undefined prefix list failing its match and a clause with no
        match statement matching every route are each one row's meaning,
        which the compiled route map shares; only what an undefined route
        map does is a model choice."""
        assert [f.name for f in fields(PolicySemantics)] == ["undefined_route_map_permits"]

    def test_trace_explains_decision(self, device):
        result = apply_route_map(device, "POLICY", _route())
        assert any("clause 10: permit" in line for line in result.trace)
        assert any("set local-preference 300" in line for line in result.trace)
